(** Dynamic loading of classes into executing programs (paper §5).

    "Via a meta-object, a client program specifies the class to be
    loaded, any specializations to apply to the meta-object, and a list
    of symbols whose bound values are to be returned from OMOS. …
    A client can request that new classes be loaded, which are then
    merged with its own implementation, allowing the new classes to
    refer to procedures and data structures within the client."

    Two entry points:

    - {!load}: the OCaml-level server interface — evaluate a graph,
      link it {e against the client's own images} (so the new class can
      call back into the client), map it into the running process, and
      return the requested bound values.

    - {!attach}: the in-simulation syscall (number
      {!Simos.Syscall.dynload_syscall}): the SVM client passes a
      blueprint string and a symbol name, gets the symbol's bound
      address back, and can jump to it with [__icall]. *)

exception Dynload_error of string

(* Classes already loaded into a process, so later loads can bind to
   earlier ones ("the client must keep track of which classes it has
   dynamically loaded" — here OMOS does it for them, the extension the
   paper says it plans). *)
type proc_classes = { mutable images : Linker.Image.t list }

type t = {
  server : Server.t;
  loaded : (int, proc_classes) Hashtbl.t; (* pid -> images *)
}

(* Give back a loaded class's arena reservations. *)
let release_reservations (t : t) (img : Linker.Image.t) : unit =
  (match Linker.Image.text_segment img with
  | Some seg ->
      Constraints.Placement.release (Server.text_arena t.server) ~lo:seg.Linker.Image.vaddr
  | None -> ());
  match Linker.Image.data_segment img with
  | Some seg ->
      Constraints.Placement.release (Server.data_arena t.server) ~lo:seg.Linker.Image.vaddr
  | None -> ()

(* A process reaped with classes still loaded gives back their arena
   reservations and its record; its mappings go with its space. *)
let create (server : Server.t) : t =
  let t = { server; loaded = Hashtbl.create 8 } in
  Simos.Kernel.on_reap (Server.kernel server) (fun p ->
      match Hashtbl.find_opt t.loaded p.Simos.Proc.pid with
      | Some c ->
          List.iter (release_reservations t) c.images;
          Hashtbl.remove t.loaded p.Simos.Proc.pid;
          Residency.self_check (Server.residency server)
      | None -> ());
  t

let images_of (t : t) (p : Simos.Proc.t) : proc_classes =
  match Hashtbl.find_opt t.loaded p.Simos.Proc.pid with
  | Some c -> c
  | None ->
      let c = { images = [] } in
      Hashtbl.replace t.loaded p.Simos.Proc.pid c;
      c

(** [load t p ~client_images ~graph ~symbols] instantiates [graph],
    binds it against the process's images (client first, then
    previously loaded classes), maps it into [p] at addresses chosen by
    the constraint system, and returns the bound values of [symbols]. *)
let load (t : t) (p : Simos.Proc.t) ~(client_images : Linker.Image.t list)
    ~(graph : Blueprint.Mgraph.node) ~(symbols : string list) : (string * int) list =
  Telemetry.Request.with_request "dynload" @@ fun () ->
  let server = t.server in
  let k = Server.kernel server in
  Simos.Kernel.charge_sys k k.Simos.Kernel.cost.Simos.Cost.ipc_round_trip;
  let classes = images_of t p in
  let externals = client_images @ classes.images in
  let r = Server.eval server graph in
  let text_size, data_size = Server.module_sizes r.Blueprint.Mgraph.m in
  let tdec =
    Constraints.Placement.place (Server.text_arena server) ~size:(max 1 text_size)
      ~owner:(Printf.sprintf "dynload-pid%d" p.Simos.Proc.pid)
      ()
  in
  let ddec =
    Constraints.Placement.place (Server.data_arena server) ~size:(max 1 data_size)
      ~owner:(Printf.sprintf "dynload-pid%d" p.Simos.Proc.pid)
      ()
  in
  let img, lstats =
    Linker.Link.link ~externals
      ~layout:
        {
          Linker.Link.text_base = tdec.Constraints.Placement.base;
          data_base = ddec.Constraints.Placement.base;
        }
      (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
  in
  Simos.Kernel.charge_sys k
    (k.Simos.Kernel.cost.Simos.Cost.reloc_apply
    *. float_of_int lstats.Linker.Link.relocs_applied);
  (* map it into the running task: the class's mappings alone hold its
     frames, so unloading or reaping frees them *)
  let m = Simos.Kernel.cache_image k ~label:"dynload" img in
  Simos.Kernel.map_image k p m;
  Simos.Kernel.release k m;
  classes.images <- img :: classes.images;
  (* dynload reservations are per-process, outside the cache, so they
     are unmanaged — but loading must never break cache/arena coherence *)
  Residency.self_check (Server.residency server);
  List.map
    (fun s ->
      match Linker.Image.find_symbol img s with
      | Some a -> (s, a)
      | None -> raise (Dynload_error ("symbol not bound: " ^ s)))
    symbols

(** [unload t p img] dynamically unlinks a previously loaded class: its
    regions are unmapped from the process and its arena reservations
    released. The paper notes dld offered unlinking where OMOS did not,
    but that "since OMOS retains access to the symbol table and
    relocation information for loaded modules, unlinking support could
    be added" — this is that addition. Raises {!Dynload_error} if [img]
    was not loaded into [p]. *)
let unload (t : t) (p : Simos.Proc.t) (img : Linker.Image.t) : unit =
  Telemetry.Request.with_request "unload" @@ fun () ->
  let classes = images_of t p in
  if not (List.memq img classes.images) then
    raise (Dynload_error ("not loaded in this process: " ^ img.Linker.Image.name));
  List.iter
    (fun (s : Linker.Image.segment) ->
      Simos.Addr_space.unmap p.Simos.Proc.aspace ~lo:s.Linker.Image.vaddr)
    img.Linker.Image.segments;
  if img.Linker.Image.bss_size > 0 then
    Simos.Addr_space.unmap p.Simos.Proc.aspace ~lo:img.Linker.Image.bss_vaddr;
  release_reservations t img;
  classes.images <- List.filter (fun i -> not (i == img)) classes.images;
  Residency.self_check (Server.residency t.server)

(** Images currently loaded into [p] through this loader. *)
let loaded (t : t) (p : Simos.Proc.t) : Linker.Image.t list =
  match Hashtbl.find_opt t.loaded p.Simos.Proc.pid with Some c -> c.images | None -> []

(** Register the in-simulation syscall in the server kernel's table:
    r1 = blueprint string address, r2 = symbol name address; returns
    the bound address in r0 (or -1). [client_images_of] supplies the
    images the client was launched with, so the loaded class can bind
    to client symbols. *)
let attach (t : t) ~(client_images_of : Simos.Proc.t -> Linker.Image.t list) : unit =
  Simos.Kernel.register_syscall (Server.kernel t.server) Simos.Syscall.dynload_syscall
    (fun _k p cpu ->
      let bp = Svm.Cpu.read_cstring cpu (Int32.to_int (Svm.Cpu.get_reg cpu 1)) in
      let sym = Svm.Cpu.read_cstring cpu (Int32.to_int (Svm.Cpu.get_reg cpu 2)) in
      (try
         let graph = Blueprint.Mgraph.parse bp in
         match
           load t p ~client_images:(client_images_of p) ~graph ~symbols:[ sym ]
         with
         | [ (_, addr) ] -> Svm.Cpu.set_reg cpu Svm.Isa.reg_ret (Int32.of_int addr)
         | _ -> Svm.Cpu.set_reg cpu Svm.Isa.reg_ret (-1l)
       with _ -> Svm.Cpu.set_reg cpu Svm.Isa.reg_ret (-1l));
      Svm.Cpu.Sys_continue)
