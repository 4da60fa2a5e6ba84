(* Tests of the simulated OS: filesystem, clock, physical-memory
   accounting, demand paging, syscalls, and the traditional exec path. *)

(* -- fs ----------------------------------------------------------------- *)

let test_fs_basic () =
  let fs = Simos.Fs.create () in
  Simos.Fs.mkdir_p fs "/a/b/c";
  Simos.Fs.write_file fs "/a/b/c/x.txt" (Bytes.of_string "hello");
  Alcotest.(check bool) "exists" true (Simos.Fs.exists fs "/a/b/c/x.txt");
  Alcotest.(check string) "content" "hello"
    (Bytes.to_string (Simos.Fs.read_file fs "/a/b/c/x.txt"));
  Alcotest.(check (list string)) "listing" [ "x.txt" ] (Simos.Fs.list_dir fs "/a/b/c")

let test_fs_stat_and_remove () =
  let fs = Simos.Fs.create () in
  Simos.Fs.write_file fs "/f" (Bytes.create 10);
  (match Simos.Fs.stat fs "/f" with
  | Some (`File 10) -> ()
  | _ -> Alcotest.fail "bad stat");
  Simos.Fs.remove fs "/f";
  Alcotest.(check bool) "gone" false (Simos.Fs.exists fs "/f")

let test_fs_errors () =
  let fs = Simos.Fs.create () in
  (try
     ignore (Simos.Fs.read_file fs "/missing");
     Alcotest.fail "expected Fs_error"
   with Simos.Fs.Fs_error _ -> ());
  Simos.Fs.write_file fs "/file" Bytes.empty;
  try
    Simos.Fs.mkdir_p fs "/file/sub";
    Alcotest.fail "expected Fs_error"
  with Simos.Fs.Fs_error _ -> ()

let test_fs_disk_usage () =
  let fs = Simos.Fs.create () in
  Simos.Fs.write_file fs "/cache/a" (Bytes.create 100);
  Simos.Fs.write_file fs "/cache/b" (Bytes.create 50);
  Simos.Fs.write_file fs "/other" (Bytes.create 7);
  Alcotest.(check int) "usage" 150 (Simos.Fs.disk_usage fs "/cache")

(* -- clock --------------------------------------------------------------- *)

let test_clock () =
  let c = Simos.Clock.create () in
  Simos.Clock.charge_user c 10.0;
  Simos.Clock.charge_system c 5.0;
  Simos.Clock.charge_io c 100.0;
  Alcotest.(check (float 0.001)) "elapsed" 115.0 (Simos.Clock.elapsed c);
  let snap = Simos.Clock.snapshot c in
  Simos.Clock.charge_user c 1.0;
  let u, s, e = Simos.Clock.since c snap in
  Alcotest.(check (float 0.001)) "du" 1.0 u;
  Alcotest.(check (float 0.001)) "ds" 0.0 s;
  Alcotest.(check (float 0.001)) "de" 1.0 e

(* -- phys ----------------------------------------------------------------- *)

let test_phys_sharing () =
  let phys = Simos.Phys.create () in
  let g = Simos.Phys.alloc phys ~bytes:(3 * 4096) in
  Simos.Phys.addref phys g;
  Simos.Phys.addref phys g;
  Alcotest.(check int) "resident" 3 (Simos.Phys.resident_pages phys);
  Alcotest.(check int) "mapped" 9 (Simos.Phys.mapped_pages phys);
  Alcotest.(check int) "saved" 6 (Simos.Phys.saved_pages phys);
  Simos.Phys.decref phys g;
  Simos.Phys.decref phys g;
  Simos.Phys.decref phys g;
  Alcotest.(check int) "freed" 0 (Simos.Phys.resident_pages phys)

(* -- addr_space ------------------------------------------------------------ *)

let mk_space () =
  let phys = Simos.Phys.create () in
  let clock = Simos.Clock.create () in
  let space = Simos.Addr_space.create ~phys ~clock ~cost:Simos.Cost.hpux () in
  (space, clock, phys)

let test_paging_faults_once_per_page () =
  let space, clock, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x3000 ~label:"anon" ();
  let before = Simos.Clock.elapsed clock in
  ignore (Simos.Addr_space.load8 space 0x10000);
  let after_first = Simos.Clock.elapsed clock in
  Alcotest.(check bool) "first touch charged" true (after_first > before);
  ignore (Simos.Addr_space.load8 space 0x10004);
  Alcotest.(check (float 0.0001)) "second touch free" after_first
    (Simos.Clock.elapsed clock);
  ignore (Simos.Addr_space.load8 space 0x12000);
  Alcotest.(check bool) "new page charged" true
    (Simos.Clock.elapsed clock > after_first);
  let soft, disk = Simos.Addr_space.fault_stats space in
  Alcotest.(check (pair int int)) "fault counts" (2, 0) (soft, disk)

let test_disk_backing_charges_io () =
  let space, clock, _ = mk_space () in
  let backing = Simos.Addr_space.disk_backing ~bytes:0x2000 in
  Simos.Addr_space.map_private space ~vaddr:0x10000
    ~init:(Bytes.make 0x2000 'a') ~backing ~size:0x2000 ~label:"filedata" ();
  ignore (Simos.Addr_space.load8 space 0x10000);
  Alcotest.(check bool) "io charged" true (clock.Simos.Clock.io > 0.0);
  let _, disk = Simos.Addr_space.fault_stats space in
  Alcotest.(check int) "disk fault" 1 disk

let test_disk_backing_shared_residency () =
  (* two processes mapping the same segment: only the first touch pays
     the disk read *)
  let phys = Simos.Phys.create () in
  let clock = Simos.Clock.create () in
  let cost = Simos.Cost.hpux in
  let s1 = Simos.Addr_space.create ~phys ~clock ~cost () in
  let s2 = Simos.Addr_space.create ~phys ~clock ~cost () in
  let bytes = Bytes.make 0x1000 'c' in
  let frames = Simos.Phys.alloc phys ~bytes:0x1000 in
  let backing = Simos.Addr_space.disk_backing ~bytes:0x1000 in
  let code = Svm.Cpu.translations bytes in
  Simos.Addr_space.map_shared s1 ~vaddr:0x4000 ~bytes ~code ~frames ~backing ~label:"seg" ();
  Simos.Addr_space.map_shared s2 ~vaddr:0x4000 ~bytes ~code ~frames ~backing ~label:"seg" ();
  ignore (Simos.Addr_space.load8 s1 0x4000);
  let io_after_first = clock.Simos.Clock.io in
  ignore (Simos.Addr_space.load8 s2 0x4000);
  Alcotest.(check (float 0.0001)) "second process: no disk read" io_after_first
    clock.Simos.Clock.io;
  Alcotest.(check bool) "but charged a soft fault" true
    (fst (Simos.Addr_space.fault_stats s2) = 1)

let test_write_to_readonly_faults () =
  let space, _, phys = mk_space () in
  let bytes = Bytes.make 0x1000 'x' in
  let frames = Simos.Phys.alloc phys ~bytes:0x1000 in
  Simos.Addr_space.map_shared space ~vaddr:0x4000 ~bytes ~code:(Svm.Cpu.translations bytes)
    ~frames ~backing:{ Simos.Addr_space.resident = [||] } ~label:"ro" ();
  try
    Simos.Addr_space.store8 space 0x4000 1;
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

let test_unmapped_fault () =
  let space, _, _ = mk_space () in
  try
    ignore (Simos.Addr_space.load32 space 0xDEAD000);
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

let test_overlap_rejected () =
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x2000 ~label:"a" ();
  try
    Simos.Addr_space.map_private space ~vaddr:0x11000 ~size:0x2000 ~label:"b" ();
    Alcotest.fail "expected fault"
  with Simos.Addr_space.Fault _ -> ()

(* The CPU fetches and loads through windows onto touched pages; every
   map change must empty them. [lib] maps at 0x4000 the code [movi r1,
   imm; ret]; [main], at 0x8000, calls it, loads the immediate's low
   byte, makes a syscall that changes the map (the dlclose shape), then
   calls and loads again. *)
let lib = 0x4000

let map_lib ?(writable = false) space phys instrs =
  let code = Svm.Encode.assemble instrs in
  if writable then
    Simos.Addr_space.map_private space ~vaddr:lib ~init:code ~size:0x1000 ~label:"lib" ()
  else begin
    let bytes = Bytes.make 0x1000 '\000' in
    Bytes.blit code 0 bytes 0 (Bytes.length code);
    let frames = Simos.Phys.alloc phys ~bytes:0x1000 in
    Simos.Addr_space.map_shared space ~vaddr:lib ~bytes ~code:(Svm.Cpu.translations bytes)
      ~frames ~backing:{ Simos.Addr_space.resident = [||] } ~label:"lib" ()
  end

let lib_code imm = [ Svm.Isa.Movi (1, imm); Svm.Isa.Ret ]

let main_code =
  Svm.Isa.
    [
      Call (Int32.of_int lib);
      Ldb (2, 0, Int32.of_int (lib + 4));
      Sys 1l;
      Call (Int32.of_int lib);
      Ldb (3, 0, Int32.of_int (lib + 4));
      Sys 0l;
    ]

(* A space holding [main] and [lib imm], and a CPU at [main] whose
   syscall 1 runs [change]. *)
let dlclose_machine change =
  let space, _, phys = mk_space () in
  let main = Svm.Encode.assemble main_code in
  Simos.Addr_space.map_shared space ~vaddr:0x8000 ~bytes:main
    ~code:(Svm.Cpu.translations main) ~frames:(Simos.Phys.alloc phys ~bytes:(Bytes.length main))
    ~backing:{ Simos.Addr_space.resident = [||] } ~label:"main" ();
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x1000 ~label:"stack" ();
  map_lib space phys (lib_code 1l);
  let sys (cpu : Svm.Cpu.t) n =
    if n = 0 then Svm.Cpu.Sys_exit 0
    else begin
      change space phys cpu;
      Svm.Cpu.Sys_continue
    end
  in
  let cpu = Svm.Cpu.create ~sys (Simos.Addr_space.mem space) in
  cpu.Svm.Cpu.pc <- 0x8000;
  Svm.Cpu.set_reg cpu Svm.Isa.reg_sp 0x10ff0l;
  (space, cpu)

let must_fault what msg f =
  Alcotest.check_raises what (Simos.Addr_space.Fault msg) (fun () -> ignore (f ()))

let test_region_cache_follows_map () =
  (* unmap: the next fetch from the library and the next load from it
     fault, though both windows last served its page *)
  let _, cpu = dlclose_machine (fun space _ _ -> Simos.Addr_space.unmap space ~lo:lib) in
  must_fault "fetch after unmap" "unmapped address 0x4000" (fun () -> Svm.Cpu.run cpu);
  Alcotest.(check int32) "ran before unmap" 1l (Svm.Cpu.get_reg cpu 1);
  Alcotest.(check int32) "loaded before unmap" 1l (Svm.Cpu.get_reg cpu 2);
  must_fault "load after unmap" "unmapped address 0x4004" (fun () ->
      Svm.Cpu.read_bytes cpu (lib + 4) 1);
  (* remap with new bytes: they run, and the fresh page pays its first
     touch once *)
  let faults_at_remap = ref 0 in
  let space, cpu =
    dlclose_machine (fun space phys _ ->
        Simos.Addr_space.unmap space ~lo:lib;
        map_lib space phys (lib_code 2l);
        faults_at_remap := fst (Simos.Addr_space.fault_stats space))
  in
  Alcotest.(check bool) "exits" true (Svm.Cpu.run cpu = Svm.Cpu.Exited 0);
  Alcotest.(check int32) "new code runs" 2l (Svm.Cpu.get_reg cpu 1);
  Alcotest.(check int32) "new bytes load" 2l (Svm.Cpu.get_reg cpu 3);
  Alcotest.(check int) "fresh first-touch fault" (!faults_at_remap + 1)
    (fst (Simos.Addr_space.fault_stats space));
  (* destroy: the next fetch faults, and so does a load *)
  let _, cpu = dlclose_machine (fun space _ _ -> Simos.Addr_space.destroy space) in
  must_fault "fetch after destroy" "unmapped address 0x8018" (fun () -> Svm.Cpu.run cpu);
  must_fault "load after destroy" "unmapped address 0x4004" (fun () ->
      Svm.Cpu.read_bytes cpu (lib + 4) 1)

(* A store that rewrites an instruction in a writable text region, as a
   lazy-binding stub is patched, takes effect before it runs, though
   the code window already holds its page. *)
let test_patched_text_runs_patched () =
  let space, _, phys = mk_space () in
  let patched = Svm.Encode.encode (Svm.Isa.Movi (1, 7l)) in
  map_lib ~writable:true space phys
    Svm.Isa.
      [
        Movi (2, Bytes.get_int32_le patched 0);
        Movi (3, Bytes.get_int32_le patched 4);
        St (0, 2, Int32.of_int (lib + 32));
        St (0, 3, Int32.of_int (lib + 36));
        Sys 9l (* the bind trap the patch replaces *);
        Halt;
      ];
  let sys _ n = Alcotest.failf "unpatched trap %d ran" n in
  let cpu = Svm.Cpu.create ~sys (Simos.Addr_space.mem space) in
  cpu.Svm.Cpu.pc <- lib;
  Alcotest.(check bool) "halts" true (Svm.Cpu.run cpu = Svm.Cpu.Halted);
  Alcotest.(check int32) "patched instruction ran" 7l (Svm.Cpu.get_reg cpu 1)

(* A store into a read-only page faults even when the data window
   already serves that page for loads. *)
let test_store_to_readonly_window_page () =
  let space, _, phys = mk_space () in
  map_lib space phys
    Svm.Isa.[ Ldb (1, 0, Int32.of_int lib); Stb (0, 1, Int32.of_int (lib + 1)); Halt ];
  let cpu = Svm.Cpu.create (Simos.Addr_space.mem space) in
  cpu.Svm.Cpu.pc <- lib;
  must_fault "store" "write to read-only lib at 0x4001" (fun () -> Svm.Cpu.run cpu);
  Alcotest.(check int) "ldb and stb counted" 2 cpu.Svm.Cpu.instr_count;
  (* the ldb's rd field, not the opcode byte the store carried *)
  Alcotest.(check int) "byte unchanged" 1 (Simos.Addr_space.load8 space (lib + 1))

(* Loads and stores go through two data windows, the pages of the
   latest two data misses, and a map change must empty both: once B is
   touched, A's page sits in the second window, and after A is
   unmapped a load from it or a store to it faults. *)
let test_map_change_empties_data_windows () =
  let a = 0x10000 and b = 0x20000 in
  List.iter
    (fun (what, access) ->
      let space, _, _ = mk_space () in
      Simos.Addr_space.map_private space ~vaddr:a ~size:0x1000 ~label:"a" ();
      Simos.Addr_space.map_private space ~vaddr:b ~size:0x1000 ~label:"b" ();
      let cpu = Svm.Cpu.create (Simos.Addr_space.mem space) in
      access cpu a;
      access cpu b;
      Simos.Addr_space.unmap space ~lo:a;
      must_fault (what ^ " after unmap") "unmapped address 0x10000" (fun () -> access cpu a))
    [
      ("load", fun cpu addr -> ignore (Svm.Cpu.read_bytes cpu addr 1));
      ("store", fun cpu addr -> Svm.Cpu.write_bytes cpu addr (Bytes.of_string "x"));
    ]

let test_touched_pages_working_set () =
  let space, _, _ = mk_space () in
  Simos.Addr_space.map_private space ~vaddr:0x10000 ~size:0x10000 ~label:"lib.text" ();
  ignore (Simos.Addr_space.load8 space 0x10000);
  ignore (Simos.Addr_space.load8 space 0x15000);
  ignore (Simos.Addr_space.load8 space 0x15800);
  Alcotest.(check int) "working set" 2
    (Simos.Addr_space.touched_pages space ~pred:(fun l -> l = "lib.text") ())

(* -- kernel: exec + syscalls ------------------------------------------------ *)

(* A hand-assembled program that writes "hello" and exits with [code]. *)
let hello_image ?(code = 7) () =
  let a = Sof.Asm.create "hello" in
  Sof.Asm.label a "_start";
  (* write(1, msg, 6) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "msg";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 6l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(code) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int code));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "msg";
  Sof.Asm.data_string a "hello\n";
  let obj = Sof.Asm.finish a in
  fst (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 } [ obj ])

let test_exec_and_run () =
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let p = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[ "hello" ] in
  let code = Simos.Kernel.run k p () in
  Alcotest.(check int) "exit code" 7 code;
  Alcotest.(check string) "stdout" "hello\n" (Simos.Proc.stdout_contents p);
  Alcotest.(check bool) "time charged" true (Simos.Clock.elapsed k.Simos.Kernel.clock > 0.0)

let test_exec_missing_file () =
  let k = Simos.Kernel.create () in
  try
    ignore (Simos.Kernel.exec k ~path:"/bin/nope" ~args:[]);
    Alcotest.fail "expected Exec_error"
  with Simos.Kernel.Exec_error _ -> ()

let test_exec_text_sharing () =
  (* exec the same binary twice: the second run shares text frames *)
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let p1 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p1 ());
  let resident_one = Simos.Phys.resident_pages k.Simos.Kernel.phys in
  let p2 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p2 ());
  let saved = Simos.Phys.saved_pages k.Simos.Kernel.phys in
  Alcotest.(check bool) "text shared" true (saved >= 1);
  Alcotest.(check bool) "resident grows less than double" true
    (Simos.Phys.resident_pages k.Simos.Kernel.phys < 2 * resident_one)

(* The kernel keeps the image it decoded per path: exec'ing the same
   bytes again maps the same cached image; other bytes replace it, and
   the replaced image's frames go with its last process. *)
let test_exec_reuses_unchanged_binary () =
  let k = Simos.Kernel.create () in
  let fs = k.Simos.Kernel.fs in
  Simos.Fs.mkdir_p fs "/bin";
  let install img = Simos.Fs.write_file fs "/bin/hello" (Linker.Image.encode img) in
  let cached () = snd (Hashtbl.find k.Simos.Kernel.execs "/bin/hello") in
  let exec_run () =
    let p = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
    let code = Simos.Kernel.run k p () in
    Simos.Kernel.reap k p;
    code
  in
  install (hello_image ());
  Alcotest.(check int) "first exec" 7 (exec_run ());
  let first = cached () in
  Alcotest.(check int) "second exec" 7 (exec_run ());
  Alcotest.(check bool) "two execs, one cached image" true (cached () == first);
  let next = hello_image ~code:9 () in
  install next;
  Alcotest.(check int) "other bytes run" 9 (exec_run ());
  Alcotest.(check bool) "other bytes replace the image" true (cached () != first);
  let pages bytes = max 1 ((Bytes.length bytes + Simos.Cost.page_size - 1) / Simos.Cost.page_size) in
  let read_only_pages =
    List.fold_left
      (fun n (s : Linker.Image.segment) ->
        if s.Linker.Image.writable then n else n + pages s.Linker.Image.bytes)
      0 next.Linker.Image.segments
  in
  Alcotest.(check int) "reaped: the new image's pages resident" read_only_pages
    (Simos.Phys.resident_pages k.Simos.Kernel.phys)

(* Prints its data ("hello\n") and the first two bytes of its bss,
   stores 'X' and 'Y' over their first bytes, prints both again and
   exits 0. *)
let scribble_image () =
  let a = Sof.Asm.create "scribble" in
  let write sym len =
    Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
    Sof.Asm.lea a 2 sym;
    Sof.Asm.instr a (Svm.Isa.Movi (3, Int32.of_int len));
    Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write))
  in
  let store sym c =
    Sof.Asm.lea a 2 sym;
    Sof.Asm.instr a (Svm.Isa.Movi (4, Int32.of_int (Char.code c)));
    Sof.Asm.instr a (Svm.Isa.Stb (2, 4, 0l))
  in
  Sof.Asm.label a "_start";
  write "msg" 6;
  write "buf" 2;
  store "msg" 'X';
  store "buf" 'Y';
  write "msg" 6;
  write "buf" 2;
  Sof.Asm.instr a (Svm.Isa.Movi (1, 0l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "msg";
  Sof.Asm.data_string a "hello\n";
  Sof.Asm.bss a "buf" 64;
  fst
    (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
       [ Sof.Asm.finish a ])

(* Every process exec'd from one path maps the image's data by
   reference and makes its own pages: what the first stores into its
   data and bss, the second never sees. *)
let test_exec_private_data () =
  let k = Simos.Kernel.create () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/scribble" (Linker.Image.encode (scribble_image ()));
  let exec () = Simos.Kernel.exec k ~path:"/bin/scribble" ~args:[] in
  let data_init (p : Simos.Proc.t) =
    (List.find
       (fun (r : Simos.Addr_space.region) -> r.label = "/bin/scribble#data")
       (Simos.Addr_space.regions p.Simos.Proc.aspace))
      .bytes
  in
  let p1 = exec () and p2 = exec () in
  Alcotest.(check bool) "one image's data, referenced by both" true
    (data_init p1 == data_init p2);
  let out = "hello\n\000\000Xello\nY\000" in
  List.iter
    (fun (what, p) ->
      Alcotest.(check int) (what ^ " exits") 0 (Simos.Kernel.run k p ());
      Alcotest.(check string) (what ^ " starts from the image's bytes") out
        (Simos.Proc.stdout_contents p))
    [ ("first", p1); ("second", p2) ];
  Alcotest.(check string) "the image's data unchanged" "hello\n"
    (Bytes.sub_string (data_init p1) 0 6)

(* An exec allocates for the pages it makes, not for its 256 KB heap
   and stack: a small static binary, exec'd cold and warm, allocates
   well under 16 k words each time. Words are counted as minor + major
   - promoted, the minor figure from [Gc.minor_words] (that of
   [Gc.counters] lags on OCaml 5.1). *)
let test_exec_allocates_little () =
  let k = Simos.Kernel.create () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode (hello_image ()));
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  List.iter
    (fun what ->
      let before = allocated () in
      let p = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[ "hello" ] in
      let words = allocated () -. before in
      if words >= 16384.0 then Alcotest.failf "%s exec allocated %.0f words" what words;
      Alcotest.(check int) (what ^ " exec runs") 7 (Simos.Kernel.run k p ());
      Simos.Kernel.reap k p)
    [ "cold"; "warm" ]

let test_second_exec_cheaper_io () =
  let k = Simos.Kernel.create () in
  let img = hello_image () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/hello" (Linker.Image.encode img);
  let snap1 = Simos.Clock.snapshot k.Simos.Kernel.clock in
  let p1 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p1 ());
  let _, _, e1 = Simos.Clock.since k.Simos.Kernel.clock snap1 in
  let snap2 = Simos.Clock.snapshot k.Simos.Kernel.clock in
  let p2 = Simos.Kernel.exec k ~path:"/bin/hello" ~args:[] in
  ignore (Simos.Kernel.run k p2 ());
  let _, _, e2 = Simos.Clock.since k.Simos.Kernel.clock snap2 in
  Alcotest.(check bool) "warm exec faster" true (e2 < e1)

let test_syscall_args_and_dirs () =
  let k = Simos.Kernel.create () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/d";
  Simos.Fs.write_file k.Simos.Kernel.fs "/d/zfile" (Bytes.of_string "abc");
  Simos.Fs.write_file k.Simos.Kernel.fs "/d/afile" (Bytes.of_string "x");
  (* program: open arg1, readdir entries 0 and 1, print names *)
  let a = Sof.Asm.create "lsmini" in
  Sof.Asm.label a "_start";
  (* getarg(1, buf, 64) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 64l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_argv));
  (* fd = open(buf) *)
  Sof.Asm.lea a 1 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_open));
  Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
  (* readdir(fd, 0, buf) ; write(1, buf, r0) *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 0l));
  Sof.Asm.lea a 3 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_readdir));
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Mov (3, 0));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* readdir(fd, 1, buf) ; write *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 1l));
  Sof.Asm.lea a 3 "buf";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_readdir));
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Mov (3, 0));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(0) *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 0l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.bss a "buf" 64;
  let obj = Sof.Asm.finish a in
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ obj ]
  in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/lsmini" (Linker.Image.encode img);
  let p = Simos.Kernel.exec k ~path:"/bin/lsmini" ~args:[ "lsmini"; "/d" ] in
  ignore (Simos.Kernel.run k p ());
  (* entries come back sorted *)
  Alcotest.(check string) "dir entries" "afilezfile" (Simos.Proc.stdout_contents p)

(* -- kernel: the syscall table ------------------------------------------------ *)

let sys n = Svm.Isa.Sys (Int32.of_int n)

(* A process of [k] that runs [instrs], then exit(0). *)
let spawn (k : Simos.Kernel.t) (instrs : Svm.Isa.instr list) : Simos.Proc.t =
  let a = Sof.Asm.create "sys" in
  Sof.Asm.label a "_start";
  List.iter (Sof.Asm.instr a) (instrs @ [ Svm.Isa.Movi (1, 0l); sys Simos.Syscall.sys_exit ]);
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ Sof.Asm.finish a ]
  in
  let p = Simos.Kernel.create_process k ~args:[ "sys" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"sys" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  p

let run_to_exit k p = Alcotest.(check int) "ran to its exit" 0 (Simos.Kernel.run k p ())

let run_instrs k instrs =
  let p = spawn k instrs in
  run_to_exit k p;
  p

let check_regs (p : Simos.Proc.t) (expected : (int * int32) list) =
  let cpu = Simos.Proc.cpu_exn p in
  List.iter
    (fun (r, v) -> Alcotest.(check int32) (Printf.sprintf "r%d" r) v (Svm.Cpu.get_reg cpu r))
    expected

let returning (v : int32) : Simos.Kernel.syscall =
 fun _ _ cpu ->
  Svm.Cpu.set_reg cpu Svm.Isa.reg_ret v;
  Svm.Cpu.Sys_continue

(* A number with no handler returns -1 and the process goes on: below
   omos_base, above it inside the table, past the table's end, and
   negative. *)
let test_unknown_syscalls () =
  let k = Simos.Kernel.create () in
  Simos.Kernel.register_syscall k 160 (returning 0l);
  let p =
    run_instrs k
      Svm.Isa.
        [ sys 7; Mov (5, 0); sys 150; Mov (6, 0); sys 100_000; Mov (7, 0); sys (-3); Mov (8, 0) ]
  in
  check_regs p [ (5, -1l); (6, -1l); (7, -1l); (8, -1l) ];
  Alcotest.(check int) "each counted" 5 k.Simos.Kernel.syscall_count

let test_reregister_syscall () =
  let k = Simos.Kernel.create () in
  Simos.Kernel.register_syscall k 150 (returning 1l);
  Simos.Kernel.register_syscall k 151 (returning 2l);
  Simos.Kernel.register_syscall k 150 (returning 3l);
  let p =
    run_instrs k
      Svm.Isa.[ sys 150; Mov (5, 0); sys 151; Mov (6, 0); sys Simos.Syscall.sys_getpid; Mov (7, 0) ]
  in
  check_regs p [ (5, 3l); (6, 2l); (7, Int32.of_int p.Simos.Proc.pid) ]

(* Every number at or above omos_base runs inside one kernel.upcall
   span, a handled one and an unhandled one alike; a kernel syscall
   opens none. *)
let test_upcall_spans () =
  let k = Simos.Kernel.create () in
  Simos.Kernel.register_syscall k 150 (returning 0l);
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
  @@ fun () ->
  let spans_of_run instrs =
    let p = spawn k instrs in
    Telemetry.reset ();
    run_to_exit k p;
    List.map (fun (s : Telemetry.span) -> (s.Telemetry.name, s.Telemetry.attrs)) (Telemetry.spans ())
  in
  Alcotest.(check bool) "kernel syscalls open no span" true
    (spans_of_run [ sys Simos.Syscall.sys_getpid; sys Simos.Syscall.sys_argc ] = []);
  Alcotest.(check bool) "one kernel.upcall span each" true
    (spans_of_run [ sys 150; sys 151 ]
    = [
        ("kernel.upcall", [ ("syscall", Telemetry.I 150) ]);
        ("kernel.upcall", [ ("syscall", Telemetry.I 151) ]);
      ])

let test_syscall_numbers () =
  let open Simos.Syscall in
  let kernel =
    [ sys_exit; sys_write; sys_open; sys_read; sys_close; sys_stat; sys_readdir;
      sys_getpid; sys_argc; sys_argv ]
  in
  let runtime = [ omos_load_library; plt_bind; mon_enter; mon_exit; dynload_syscall ] in
  let all = kernel @ runtime in
  Alcotest.(check int) "pairwise distinct" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%d is the kernel's" n) true (n < omos_base))
    kernel;
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%d is a runtime's" n) true (n >= omos_base))
    runtime

let () =
  Alcotest.run "simos"
    [
      ( "fs",
        [
          Alcotest.test_case "basic" `Quick test_fs_basic;
          Alcotest.test_case "stat/remove" `Quick test_fs_stat_and_remove;
          Alcotest.test_case "errors" `Quick test_fs_errors;
          Alcotest.test_case "disk usage" `Quick test_fs_disk_usage;
        ] );
      ("clock", [ Alcotest.test_case "charging" `Quick test_clock ]);
      ("phys", [ Alcotest.test_case "sharing" `Quick test_phys_sharing ]);
      ( "paging",
        [
          Alcotest.test_case "fault once per page" `Quick test_paging_faults_once_per_page;
          Alcotest.test_case "disk backing" `Quick test_disk_backing_charges_io;
          Alcotest.test_case "shared residency" `Quick test_disk_backing_shared_residency;
          Alcotest.test_case "readonly write" `Quick test_write_to_readonly_faults;
          Alcotest.test_case "unmapped" `Quick test_unmapped_fault;
          Alcotest.test_case "overlap" `Quick test_overlap_rejected;
          Alcotest.test_case "working set" `Quick test_touched_pages_working_set;
          Alcotest.test_case "region cache follows map" `Quick test_region_cache_follows_map;
          Alcotest.test_case "patched text runs patched" `Quick test_patched_text_runs_patched;
          Alcotest.test_case "store to read-only window page" `Quick
            test_store_to_readonly_window_page;
          Alcotest.test_case "a map change empties both data windows" `Quick
            test_map_change_empties_data_windows;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "exec and run" `Quick test_exec_and_run;
          Alcotest.test_case "missing file" `Quick test_exec_missing_file;
          Alcotest.test_case "text sharing" `Quick test_exec_text_sharing;
          Alcotest.test_case "warm exec" `Quick test_second_exec_cheaper_io;
          Alcotest.test_case "exec reuses an unchanged binary" `Quick
            test_exec_reuses_unchanged_binary;
          Alcotest.test_case "exec'd processes keep private data" `Quick
            test_exec_private_data;
          Alcotest.test_case "exec allocates little" `Quick test_exec_allocates_little;
          Alcotest.test_case "args and dirs" `Quick test_syscall_args_and_dirs;
        ] );
      (* Group and case names are kept short enough that Alcotest prints
         every case name of this suite in full on an 80-column line. *)
      ( "syscalls",
        [
          Alcotest.test_case "unknown numbers return -1 and continue" `Quick
            test_unknown_syscalls;
          Alcotest.test_case "re-registering leaves other numbers" `Quick
            test_reregister_syscall;
          Alcotest.test_case "a kernel.upcall span per runtime syscall" `Quick
            test_upcall_spans;
          Alcotest.test_case "numbers distinct, runtime >= omos_base" `Quick
            test_syscall_numbers;
        ] );
    ]
