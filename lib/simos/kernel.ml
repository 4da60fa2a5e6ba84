(** The kernel of the simulated OS: processes, the one syscall table
    every syscall number is served from, the traditional exec path, and
    the hooks OMOS plugs into.

    Address-space layout convention for executables:
    - text/data wherever the linker put them,
    - heap: 256 KB anonymous region at {!heap_base},
    - stack: 256 KB anonymous region ending at {!stack_top}.
    Writable and anonymous memory is demand-zero, as under Mach's
    [vm_map]: the host makes a page of a writable segment, the bss, the
    heap or the stack when the process first reads or writes it, so an
    exec costs the host the pages the process uses, not 512 KB.

    The traditional [exec] reads a serialized image from the simulated
    filesystem, charging open/parse costs proportional to file size —
    the work the paper's integrated-exec experiment shows OMOS avoiding
    ("it does not have to open files, parse complex object file
    headers, etc."). *)

exception Exec_error of string

let heap_base = 0x60000000
let heap_size = 0x40000
let stack_top = 0x7FF00000
let stack_size = 0x40000

(* One segment of a cached image: every process mapping the image
   shares its source's residency and, for a read-only segment, its
   frames and the translations of its code. Each process maps a
   writable segment privately, referencing the image's bytes and making
   its own copy of a page at the page's first access. *)
type cached_seg =
  | Shared of {
      bytes : Bytes.t;
      frames : Phys.frame_group;
      backing : Addr_space.backing_state;
      code : Svm.Cpu.translations;
    }
  | Private of Addr_space.backing_state

(* An image cached for mapping, held by whoever cached it. *)
type mappable = {
  image : Linker.Image.t;
  label : string;
  segs : cached_seg list; (* one per image segment, in order *)
}

type t = {
  fs : Fs.t;
  phys : Phys.t;
  clock : Clock.t;
  cost : Cost.t;
  mutable next_pid : int;
  (* exec'd path -> the file bytes last read there and their image *)
  execs : (string, Bytes.t * mappable) Hashtbl.t;
  read_cached : (string, unit) Hashtbl.t; (* file data brought in by read() *)
  (* syscall number -> its handler; {!no_syscall} where none is set *)
  mutable syscalls : syscall array;
  (* "#!" interpreter handlers: the paper's `#! /bin/omos` feature.
     Key = interpreter path; the handler receives the script's
     parameter words and the exec arguments and must return a ready
     process (charging its own costs). *)
  interpreters :
    (string, t -> params:string list -> args:string list -> Proc.t) Hashtbl.t;
  mutable syscall_count : int;
  mutable reap_hooks : (Proc.t -> unit) list; (* newest first *)
}

and syscall = t -> Proc.t -> Svm.Cpu.t -> Svm.Cpu.sys_result

let charge_sys (k : t) us = Clock.charge_system k.clock us
let charge_io (k : t) us = Clock.charge_io k.clock us
let charge_user (k : t) us = Clock.charge_user k.clock us

(* -- syscall implementation -------------------------------------------- *)

let reg = Svm.Cpu.get_reg
let set_reg = Svm.Cpu.set_reg
let ret cpu v = set_reg cpu Svm.Isa.reg_ret (Int32.of_int v)

let do_open (k : t) (p : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let path = Svm.Cpu.read_cstring cpu (Int32.to_int (reg cpu 1)) in
  charge_sys k k.cost.Cost.open_file;
  match Fs.lookup k.fs path with
  | Some (Fs.File data) ->
      ret cpu (Proc.alloc_fd p (Proc.Fd_file { path; data; pos = 0 }))
  | Some (Fs.Dir _) ->
      let entries = Array.of_list (Fs.list_dir k.fs path) in
      ret cpu (Proc.alloc_fd p (Proc.Fd_dir { path; entries }))
  | None -> ret cpu (-1)

let do_read (k : t) (p : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let fd = Int32.to_int (reg cpu 1) in
  let buf = Int32.to_int (reg cpu 2) in
  let len = Int32.to_int (reg cpu 3) in
  match Proc.find_fd p fd with
  | Some (Proc.Fd_file f) ->
      let n = min len (Bytes.length f.data - f.pos) in
      if n > 0 then begin
        (* first read of a file pays for its pages; later reads hit the
           buffer cache *)
        if not (Hashtbl.mem k.read_cached f.path) then begin
          Hashtbl.replace k.read_cached f.path ();
          let pages = (Bytes.length f.data + Cost.page_size - 1) / Cost.page_size in
          charge_io k (float_of_int (max 1 pages) *. k.cost.Cost.disk_read_page)
        end;
        Svm.Cpu.write_bytes cpu buf (Bytes.sub f.data f.pos n);
        f.pos <- f.pos + n
      end;
      ret cpu n
  | Some (Proc.Fd_dir _) | None -> ret cpu (-1)

let do_write (k : t) (p : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let fd = Int32.to_int (reg cpu 1) in
  let buf = Int32.to_int (reg cpu 2) in
  let len = Int32.to_int (reg cpu 3) in
  if len < 0 then ret cpu (-1)
  else begin
    let data = Svm.Cpu.read_bytes cpu buf len in
    charge_sys k (0.02 *. float_of_int len);
    if fd = 1 || fd = 2 then begin
      Buffer.add_bytes p.Proc.stdout data;
      ret cpu len
    end
    else ret cpu (-1)
  end

let do_stat (k : t) (_ : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let path = Svm.Cpu.read_cstring cpu (Int32.to_int (reg cpu 1)) in
  let out = Int32.to_int (reg cpu 2) in
  charge_sys k (k.cost.Cost.open_file *. 0.6);
  match Fs.stat k.fs path with
  | Some (`File size) ->
      cpu.Svm.Cpu.mem.Svm.Cpu.store32 out 0;
      cpu.Svm.Cpu.mem.Svm.Cpu.store32 (out + 4) size;
      ret cpu 0
  | Some (`Dir n) ->
      cpu.Svm.Cpu.mem.Svm.Cpu.store32 out 1;
      cpu.Svm.Cpu.mem.Svm.Cpu.store32 (out + 4) n;
      ret cpu 0
  | None -> ret cpu (-1)

let do_readdir (_ : t) (p : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let fd = Int32.to_int (reg cpu 1) in
  let idx = Int32.to_int (reg cpu 2) in
  let buf = Int32.to_int (reg cpu 3) in
  match Proc.find_fd p fd with
  | Some (Proc.Fd_dir d) when idx >= 0 && idx < Array.length d.entries ->
      let name = d.entries.(idx) in
      Svm.Cpu.write_bytes cpu buf (Bytes.of_string (name ^ "\000"));
      ret cpu (String.length name)
  | Some _ | None -> ret cpu (-1)

let do_argv (_ : t) (p : Proc.t) (cpu : Svm.Cpu.t) : unit =
  let i = Int32.to_int (reg cpu 1) in
  let buf = Int32.to_int (reg cpu 2) in
  let maxlen = Int32.to_int (reg cpu 3) in
  match List.nth_opt p.Proc.args i with
  | Some arg when String.length arg + 1 <= maxlen ->
      Svm.Cpu.write_bytes cpu buf (Bytes.of_string (arg ^ "\000"));
      ret cpu (String.length arg)
  | Some _ | None -> ret cpu (-1)

(* The handler of a number nothing is registered for. *)
let no_syscall (_ : t) (_ : Proc.t) (cpu : Svm.Cpu.t) : Svm.Cpu.sys_result =
  ret cpu (-1);
  Svm.Cpu.Sys_continue

(** [register_syscall k n f] makes [f] the handler of syscall [n],
    replacing any handler [n] had. *)
let register_syscall (k : t) (n : int) (f : syscall) : unit =
  if n < 0 then invalid_arg "Kernel.register_syscall: negative number";
  let len = Array.length k.syscalls in
  if n >= len then begin
    let grown = Array.make (n + 1) no_syscall in
    Array.blit k.syscalls 0 grown 0 len;
    k.syscalls <- grown
  end;
  k.syscalls.(n) <- f

(* A kernel syscall that sets r0 and continues. *)
let continuing f : syscall =
 fun k p cpu ->
  f k p cpu;
  Svm.Cpu.Sys_continue

let create ?(cost = Cost.hpux) () : t =
  let k =
    {
      fs = Fs.create ();
      phys = Phys.create ();
      clock = Clock.create ();
      cost;
      next_pid = 1;
      execs = Hashtbl.create 16;
      read_cached = Hashtbl.create 16;
      syscalls = [||];
      interpreters = Hashtbl.create 4;
      syscall_count = 0;
      reap_hooks = [];
    }
  in
  List.iter
    (fun (n, f) -> register_syscall k n f)
    [
      (Syscall.sys_exit, fun _ _ cpu -> Svm.Cpu.Sys_exit (Int32.to_int (reg cpu 1)));
      (Syscall.sys_write, continuing do_write);
      (Syscall.sys_open, continuing do_open);
      (Syscall.sys_read, continuing do_read);
      ( Syscall.sys_close,
        continuing (fun _ p cpu ->
            Proc.close_fd p (Int32.to_int (reg cpu 1));
            ret cpu 0) );
      (Syscall.sys_stat, continuing do_stat);
      (Syscall.sys_readdir, continuing do_readdir);
      (Syscall.sys_getpid, continuing (fun _ p cpu -> ret cpu p.Proc.pid));
      (Syscall.sys_argc, continuing (fun _ p cpu -> ret cpu (List.length p.Proc.args)));
      (Syscall.sys_argv, continuing do_argv);
    ];
  k

let tm_syscalls = Telemetry.Counter.make "kernel.syscalls"

(* Runtime-owned numbers run inside a [kernel.upcall] span, whether or
   not a handler is registered. *)
let dispatch (k : t) (p : Proc.t) (cpu : Svm.Cpu.t) (n : int) : Svm.Cpu.sys_result =
  k.syscall_count <- k.syscall_count + 1;
  Telemetry.Counter.incr tm_syscalls;
  charge_sys k k.cost.Cost.syscall_overhead;
  let f = if n >= 0 && n < Array.length k.syscalls then k.syscalls.(n) else no_syscall in
  if n >= Syscall.omos_base then
    Telemetry.with_span "kernel.upcall"
      ~attrs:[ ("syscall", Telemetry.I n) ]
      (fun () -> f k p cpu)
  else f k p cpu

(* -- process setup ------------------------------------------------------ *)

(** Create a process with an empty address space (the "empty task" the
    integrated exec hands to OMOS). *)
let create_process (k : t) ~(args : string list) : Proc.t =
  let aspace = Addr_space.create ~phys:k.phys ~clock:k.clock ~cost:k.cost () in
  let p = Proc.create ~pid:k.next_pid ~aspace ~args in
  k.next_pid <- k.next_pid + 1;
  p

(** Map heap and stack, attach a CPU at [entry]. Completes any exec
    path. *)
let finish_exec (k : t) (p : Proc.t) ~(entry : int) : unit =
  Addr_space.map_private p.Proc.aspace ~vaddr:heap_base ~size:heap_size ~label:"heap" ();
  Addr_space.map_private p.Proc.aspace ~vaddr:(stack_top - stack_size) ~size:stack_size
    ~label:"stack" ();
  let cpu = Svm.Cpu.create ~sys:(dispatch k p) (Addr_space.mem p.Proc.aspace) in
  set_reg cpu Svm.Isa.reg_sp (Int32.of_int (stack_top - 16));
  cpu.Svm.Cpu.pc <- entry;
  p.Proc.cpu <- Some cpu

(** [cache_image k ~label ?from_disk img] caches [img]'s segments for
    mapping: a read-only segment gets its frames, held once by the
    cache, and the translations of its code. [from_disk] marks segment
    sources as needing demand loads on first-ever touch. *)
let cache_image (k : t) ~(label : string) ?(from_disk = false) (image : Linker.Image.t) :
    mappable =
  let seg (s : Linker.Image.segment) =
    let bytes = s.Linker.Image.bytes in
    let backing =
      if from_disk then Addr_space.disk_backing ~bytes:(Bytes.length bytes)
      else { Addr_space.resident = [||] }
    in
    if s.Linker.Image.writable then Private backing
    else
      Shared
        {
          bytes;
          frames = Phys.alloc k.phys ~bytes:(Bytes.length bytes);
          backing;
          code = Svm.Cpu.translations bytes;
        }
  in
  { image; label; segs = List.map seg image.Linker.Image.segments }

(** Drop the cache's hold on [m]'s frames: mappings still in place keep
    theirs. *)
let release (k : t) (m : mappable) : unit =
  List.iter (function Shared c -> Phys.decref k.phys c.frames | Private _ -> ()) m.segs

(** Map a cached image into a process: read-only segments shared,
    writable segments private, bss anonymous, each region labelled
    [label#segment]. [touch_user_cost] charges extra user time per first
    page touch (deferred-relocation modelling). *)
let map_image (k : t) (p : Proc.t) ?(touch_user_cost = 0.0) (m : mappable) : unit =
  let img = m.image in
  let nsegs = List.length img.Linker.Image.segments in
  Telemetry.with_span "kernel.map_image"
    ~attrs:[ ("key", Telemetry.S m.label); ("segments", Telemetry.I nsegs) ]
  @@ fun () ->
  charge_sys k (k.cost.Cost.map_segment *. float_of_int nsegs);
  List.iter2
    (fun (s : Linker.Image.segment) cs ->
      let vaddr = s.Linker.Image.vaddr and label = m.label ^ "#" ^ s.Linker.Image.seg_name in
      match cs with
      | Private backing ->
          let init = s.Linker.Image.bytes in
          Addr_space.map_private p.Proc.aspace ~vaddr ~init ~backing ~touch_user_cost
            ~size:(Bytes.length init) ~label ()
      | Shared c ->
          Addr_space.map_shared p.Proc.aspace ~vaddr ~bytes:c.bytes ~code:c.code
            ~frames:c.frames ~backing:c.backing ~touch_user_cost ~label ())
    img.Linker.Image.segments m.segs;
  if img.Linker.Image.bss_size > 0 then
    Addr_space.map_private p.Proc.aspace ~vaddr:img.Linker.Image.bss_vaddr
      ~size:img.Linker.Image.bss_size ~label:(m.label ^ "#bss") ()

(** Register a script interpreter ([#! <path> params...]). *)
let register_interpreter (k : t) (path : string) handler : unit =
  Hashtbl.replace k.interpreters path handler

(* Unix kernels bound the chain of [#!] interpreters too (Linux allows
   four levels): a script naming itself would otherwise exec forever. *)
let max_interpreters = 4

(* The image exec'd at [path]: the same bytes keep it and decode
   nothing; other bytes are decoded first, so a malformed file releases
   nothing, then replace it. *)
let exec_image (k : t) ~(path : string) (data : Bytes.t) : mappable =
  match Hashtbl.find_opt k.execs path with
  | Some (cached, m) when cached == data -> m
  | Some (cached, m) when Bytes.equal cached data ->
      Hashtbl.replace k.execs path (data, m);
      m
  | prev ->
      let img =
        try Linker.Image.decode data
        with Linker.Image.Decode_error msg -> raise (Exec_error (path ^ ": " ^ msg))
      in
      Option.iter (fun (_, m) -> release k m) prev;
      let m = cache_image k ~label:path ~from_disk:(not (Hashtbl.mem k.read_cached path)) img in
      Hashtbl.replace k.execs path (data, m);
      m

(* [exec] past [depth] interpreters. *)
let rec exec_at (k : t) ~(depth : int) ~(path : string) ~(args : string list) : Proc.t =
  Telemetry.with_span "kernel.exec" ~attrs:[ ("path", Telemetry.S path) ]
  @@ fun () ->
  let data =
    try Fs.read_file k.fs path with Fs.Fs_error m -> raise (Exec_error m)
  in
  if Bytes.length data >= 2 && Bytes.get data 0 = '#' && Bytes.get data 1 = '!'
  then begin
    let line =
      match String.index_opt (Bytes.to_string data) '\n' with
      | Some i -> Bytes.sub_string data 2 (i - 2)
      | None -> Bytes.sub_string data 2 (Bytes.length data - 2)
    in
    match
      List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
    with
    | interp :: params -> (
        charge_sys k k.cost.Cost.open_file;
        match Hashtbl.find_opt k.interpreters interp with
        | Some handler -> handler k ~params ~args
        | None when Fs.exists k.fs interp ->
            (* a real interpreter binary: exec it with the script path
               in place of argv[0], Unix-style *)
            if depth >= max_interpreters then
              raise (Exec_error (path ^ ": too many levels of interpreters"));
            let rest = match args with _ :: rest -> rest | [] -> [] in
            exec_at k ~depth:(depth + 1) ~path:interp ~args:(interp :: path :: rest)
        | None -> raise (Exec_error (path ^ ": bad interpreter " ^ interp)))
    | [] -> raise (Exec_error (path ^ ": empty interpreter line"))
  end
  else begin
    charge_sys k k.cost.Cost.fork_exec_base;
    charge_sys k k.cost.Cost.open_file;
    (* header + symbol parsing cost scales with file size *)
    charge_sys k
      (k.cost.Cost.parse_header_per_kb *. (float_of_int (Bytes.length data) /. 1024.0));
    let m = exec_image k ~path data in
    let p = create_process k ~args in
    map_image k p m;
    Hashtbl.replace k.read_cached path ();
    finish_exec k p ~entry:m.image.Linker.Image.entry;
    p
  end

(** The traditional exec: open the executable, parse it, map it, run.
    This is the baseline the OSF/1 comparison measures. A file starting
    with [#!] dispatches to its registered interpreter instead — the
    paper's portable way of exporting OMOS entries into the Unix
    namespace. *)
let exec (k : t) ~(path : string) ~(args : string list) : Proc.t =
  exec_at k ~depth:0 ~path ~args

(** Run a process to completion, charging its instructions as user
    time. Returns the exit code. *)
let run (k : t) (p : Proc.t) ?(fuel = 50_000_000) () : int =
  let cpu = Proc.cpu_exn p in
  let before = cpu.Svm.Cpu.instr_count in
  let outcome = Svm.Cpu.run ~fuel cpu in
  charge_user k
    (k.cost.Cost.user_instr *. float_of_int (cpu.Svm.Cpu.instr_count - before));
  match outcome with
  | Svm.Cpu.Exited code ->
      p.Proc.exit_code <- Some code;
      code
  | Svm.Cpu.Halted -> raise (Exec_error "process halted without exiting")
  | Svm.Cpu.Running -> raise (Exec_error "process ran out of fuel")

(** Run [f] on every process {!reap} tears down, before its address
    space goes: what a process holds outside the kernel (a dynamic
    loader's arena reservations) is freed there. *)
let on_reap (k : t) (f : Proc.t -> unit) : unit = k.reap_hooks <- f :: k.reap_hooks

(** Tear down a finished process: the reap hooks, then its address
    space. *)
let reap (k : t) (p : Proc.t) : unit =
  List.iter (fun f -> f p) k.reap_hooks;
  Addr_space.destroy p.Proc.aspace
