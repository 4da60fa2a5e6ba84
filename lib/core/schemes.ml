(** The shared-library schemes under comparison.

    Four ways to turn "client + libraries" into a running process:

    - {!static_program} — traditional static linking: one huge binary
      written to disk, exec'd the normal way. The baseline for link
      time and disk I/O (§2.1).

    - {!dynamic_program} — the traditional dynamic shared-library
      scheme (SunOS / HP-UX [-B deferred]): PIC-style libraries shared
      at system-chosen addresses, clients carrying PLT stubs + private
      dispatch tables, eager data relocation at every startup, lazy
      procedure binding on first call, and an indirect jump on every
      library call thereafter. This is the scheme OMOS is measured
      against in Table 1.

    - {!self_contained_program} — OMOS self-contained shared libraries:
      fully bound, constraint-placed, cached images; constant-time
      load, no dispatch tables. Launched via the bootstrap loader or
      the integrated exec.

    - {!partial_image_program} — OMOS partial-image shared libraries:
      a conventional executable with per-entry-point stubs that load
      the library from OMOS on first use and bind through a hash
      table/branch table.

    All schemes run the same client code on the same simulated OS; they
    differ only in linking/loading mechanics — which is the paper's
    point. *)

exception Scheme_error of string

(* -- per-process runtime state (lazy binding) --------------------------- *)

type flavor = Plt | Omos_stub

type proc_rt = {
  flavor : flavor;
  imports : Stubs.import array;
  (* resolve an import name to its bound address (filled at library
     load time for the partial-image scheme) *)
  mutable resolve : string -> int option;
  (* address of each import's slot word in the client image *)
  slot_addr : string -> int;
  (* partial-image scheme: libraries to fetch from the server on first
     use, and the interface version the client was built against *)
  lib_paths : string list;
  expected_version : string;
  mutable libs_mapped : bool;
  mutable binds : int;
}

(* Resolver over library images. *)
let resolver_of (libs : Linker.Image.t list) : string -> int option =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (img : Linker.Image.t) ->
      List.iter
        (fun (n, a) -> if not (Hashtbl.mem tbl n) then Hashtbl.replace tbl n a)
        img.Linker.Image.symtab)
    libs;
  Hashtbl.find_opt tbl

(** Interface version of a library set: a digest of the exported names.
    Recorded in partial-image clients and checked when the library is
    loaded — the safety mechanism the paper says "should be
    implemented" (§4.2). *)
let interface_version (imgs : Linker.Image.t list) : string =
  let names =
    List.sort compare
      (List.concat_map
         (fun (img : Linker.Image.t) -> List.map fst img.Linker.Image.symtab)
         imgs)
  in
  Digest.to_hex (Digest.string (String.concat "," names))

(** The scheme runtime: owns per-process lazy-binding state and the
    kernel syscalls that implement the bind traps. One per kernel. *)
type t = {
  server : Server.t;
  table : (int, proc_rt) Hashtbl.t; (* pid -> state *)
}

let handle_bind (rt : t) (k : Simos.Kernel.t) (p : Simos.Proc.t) (cpu : Svm.Cpu.t) :
    Svm.Cpu.sys_result =
  let cost = k.Simos.Kernel.cost in
  match Hashtbl.find_opt rt.table p.Simos.Proc.pid with
  | None ->
      Svm.Cpu.set_reg cpu Svm.Isa.reg_ret (-1l);
      Svm.Cpu.Sys_continue
  | Some st ->
      let index = Int32.to_int (Svm.Cpu.get_reg cpu 1) in
      if index < 0 || index >= Array.length st.imports then
        raise (Scheme_error (Printf.sprintf "bad bind index %d" index));
      let imp = st.imports.(index) in
      (match st.flavor with
      | Plt ->
          (* dld-style user-space binding: hash lookup + table patch *)
          Simos.Kernel.charge_user k cost.Simos.Cost.symbol_lookup;
          Simos.Kernel.charge_user k cost.Simos.Cost.dispatch_patch
      | Omos_stub ->
          (* first call into the library fetches the *current*
             implementation from the server and maps it *)
          if not st.libs_mapped then begin
            Simos.Kernel.charge_sys k cost.Simos.Cost.ipc_round_trip;
            let builts =
              List.map (fun path -> Server.build rt.server (Server.library path)) st.lib_paths
            in
            let imgs =
              List.map (fun (b : Server.built) -> b.Server.entry.Cache.image) builts
            in
            let version = interface_version imgs in
            if version <> st.expected_version then
              raise
                (Scheme_error
                   (Printf.sprintf
                      "library interface version mismatch: client built against %s, server provides %s"
                      (String.sub st.expected_version 0 8)
                      (String.sub version 0 8)));
            List.iter (Server.map_into rt.server p) builts;
            st.resolve <- resolver_of imgs;
            st.libs_mapped <- true
          end;
          (* hash-table lookup of the entry point *)
          Simos.Kernel.charge_user k cost.Simos.Cost.symbol_lookup;
          Simos.Kernel.charge_user k cost.Simos.Cost.dispatch_patch);
      (match st.resolve imp.Stubs.imp_name with
      | Some addr ->
          cpu.Svm.Cpu.mem.Svm.Cpu.store32 (st.slot_addr imp.Stubs.imp_name) addr;
          st.binds <- st.binds + 1;
          Svm.Cpu.set_reg cpu Svm.Isa.reg_ret (Int32.of_int addr)
      | None ->
          raise
            (Scheme_error ("unresolved import at runtime: " ^ imp.Stubs.imp_name)));
      Svm.Cpu.Sys_continue

(** Create the runtime, register its bind traps in the kernel's table,
    and drop a process's state when the kernel reaps it. *)
let runtime (server : Server.t) : t =
  let rt = { server; table = Hashtbl.create 16 } in
  let k = Server.kernel server in
  Simos.Kernel.register_syscall k Simos.Syscall.plt_bind (handle_bind rt);
  Simos.Kernel.register_syscall k Simos.Syscall.omos_load_library (handle_bind rt);
  Simos.Kernel.on_reap k (fun p -> Hashtbl.remove rt.table p.Simos.Proc.pid);
  rt

(* -- common pieces ------------------------------------------------------- *)

(** A ready-to-run program under some scheme. *)
type program = {
  prog_name : string;
  scheme : string;
  (* start one invocation; caller runs it with Kernel.run *)
  launch : args:string list -> Simos.Proc.t;
  (* memory overhead of dispatch machinery (stubs + slots), bytes *)
  dispatch_bytes : int;
  (* eager relocation work charged per invocation (dynamic scheme) *)
  eager_relocs : int;
  (* number of lazily bindable imports *)
  imports : int;
}

let graph_of_objs (objs : Sof.Object_file.t list) : Blueprint.Mgraph.node =
  Blueprint.Mgraph.Merge (List.map (fun o -> Blueprint.Mgraph.Leaf o) objs)

(* Executable path for a program under a scheme. *)
let exe_path ~scheme ~name = Printf.sprintf "/bin/%s.%s" name scheme

(* Write an image to the simulated disk as an executable, charging
   write I/O (this is static linking's dominant cost in the paper's
   development-environment argument). *)
let install_executable (server : Server.t) ~(path : string) (img : Linker.Image.t) :
    unit =
  let k = Server.kernel server in
  let bytes = Linker.Image.encode img in
  (if not (Simos.Fs.exists k.Simos.Kernel.fs path) then
     let pages = (Bytes.length bytes + Simos.Cost.page_size - 1) / Simos.Cost.page_size in
     Simos.Kernel.charge_io k
       (float_of_int pages *. k.Simos.Kernel.cost.Simos.Cost.disk_write_page));
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  Simos.Fs.write_file k.Simos.Kernel.fs path bytes

(* Imports of a client module satisfiable by the given library images. *)
let imports_of (client : Jigsaw.Module_ops.t) (libs : Linker.Image.t list) :
    Stubs.import list =
  let available = Hashtbl.create 64 in
  List.iter
    (fun (img : Linker.Image.t) ->
      List.iter (fun (n, _) -> Hashtbl.replace available n ()) img.Linker.Image.symtab)
    libs;
  Jigsaw.Module_ops.undefined client
  |> List.filter (Hashtbl.mem available)
  |> List.map Stubs.import_of_name

(* The fragments of a library's implementation, as the server
   evaluates its meta: what static linking pulls members from and what
   the dynamic scheme counts relocations in. *)
let library_fragments (server : Server.t) (l : string) : Sof.Object_file.t list =
  let meta = Server.find_meta server l in
  let r = Server.eval server (Blueprint.Meta.effective_graph meta ~spec:None) in
  Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m

(* A client whose calls into [lib_imgs] go through stubs (the dynamic
   and partial-image schemes): its imports, a stub object for them,
   references diverted to the stubs, the merge built as the static
   image [name ^ suffix] (linked against [externals]) and installed at
   [exe_path ~scheme ~name]. Returns the path, the imports and each
   import's slot address in the installed image. *)
let stubbed_client (server : Server.t) ~(scheme : string) ~(suffix : string)
    ~(name : string) ~(client : Sof.Object_file.t list)
    ~(stub_object : Stubs.import list -> Sof.Object_file.t) ?externals
    (lib_imgs : Linker.Image.t list) :
    string * Stubs.import array * (string -> int) =
  let client_mod = Jigsaw.Module_ops.of_objects ~label:name client in
  let imports = imports_of client_mod lib_imgs in
  let stubs = stub_object imports in
  let diverted = Stubs.divert_imports client_mod imports in
  let full = Jigsaw.Module_ops.merge diverted (Jigsaw.Module_ops.of_object stubs) in
  let b =
    Server.build server
      (Server.static ~name:(name ^ suffix) ?externals
         (graph_of_objs (Jigsaw.Module_ops.fragments full)))
  in
  let client_img = b.Server.entry.Cache.image in
  let path = exe_path ~scheme ~name in
  install_executable server ~path client_img;
  let slot_addr n =
    match Linker.Image.find_symbol client_img (n ^ "$slot") with
    | Some a -> a
    | None -> raise (Scheme_error ("missing slot for " ^ n))
  in
  (path, Array.of_list imports, slot_addr)

(* Count of "eager" relocations a traditional dynamic loader performs
   per invocation: data-section relocations plus text references to
   data symbols (the GOT-initialization analogue), across client and
   libraries. *)
let eager_reloc_count (frag_sets : Sof.Object_file.t list list) : int =
  let count_obj (o : Sof.Object_file.t) =
    let data_syms = Hashtbl.create 32 in
    List.iter
      (fun (s : Sof.Symbol.t) ->
        match s.Sof.Symbol.kind with
        | Sof.Symbol.Data | Sof.Symbol.Bss -> Hashtbl.replace data_syms s.name ()
        | Sof.Symbol.Text | Sof.Symbol.Abs | Sof.Symbol.Undef -> ())
      o.Sof.Object_file.symbols;
    List.length
      (List.filter
         (fun (r : Sof.Reloc.t) ->
           match r.Sof.Reloc.target with
           | Sof.Reloc.In_data -> true
           | Sof.Reloc.In_text -> Hashtbl.mem data_syms r.Sof.Reloc.symbol)
         o.Sof.Object_file.relocs)
  in
  List.fold_left
    (fun acc objs -> acc + List.fold_left (fun a o -> a + count_obj o) 0 objs)
    0 frag_sets

(* -- scheme 1: static ----------------------------------------------------- *)

(** Statically link client + libraries into one traditional binary,
    with archive semantics: only the library members that satisfy
    references are pulled in. *)
let static_program (rt : t) ~(name : string) ~(client : Sof.Object_file.t list)
    ~(libs : string list) : program =
  let server = rt.server in
  let members = List.concat_map (library_fragments server) libs in
  let pulled = Linker.Archive.select ~roots:client ~available:members in
  let graph = graph_of_objs (client @ pulled) in
  let b = Server.build server (Server.static ~name:(name ^ ".static") graph) in
  let path = exe_path ~scheme:"static" ~name in
  install_executable server ~path b.Server.entry.Cache.image;
  {
    prog_name = name;
    scheme = "static";
    launch =
      (fun ~args -> Simos.Kernel.exec (Server.kernel server) ~path ~args);
    dispatch_bytes = 0;
    eager_relocs = 0;
    imports = 0;
  }

(* -- scheme 2: traditional dynamic (the HP-UX/SunOS baseline) -------------- *)

let dynamic_program (rt : t) ~(name : string) ~(client : Sof.Object_file.t list)
    ~(libs : string list) : program =
  let server = rt.server in
  (* libraries: shared images at system-chosen (arena) addresses *)
  let lib_builts = List.map (fun l -> Server.build server (Server.library l)) libs in
  let lib_imgs = List.map (fun (b : Server.built) -> b.Server.entry.Cache.image) lib_builts in
  let path, imports, slot_addr =
    stubbed_client server ~scheme:"dynamic" ~suffix:".dyn" ~name ~client
      ~stub_object:Stubs.plt_object ~externals:lib_imgs lib_imgs
  in
  let lib_frag_sets = List.map (library_fragments server) libs in
  (* eager work at startup: the client's own data relocations *)
  let eager = eager_reloc_count [ client ] in
  (* deferred (page-wise lazy) relocation density of each library: the
     -B deferred model — a library page is relocated, privately, the
     first time each process touches it *)
  let cost = (Server.kernel server).Simos.Kernel.cost in
  (* the traditional loader opens each shared library and processes its
     headers/symbol tables on every exec; OMOS pre-parses once. The
     0.08 factor approximates header+symbol-table share of the file. *)
  let lib_open_parse =
    List.fold_left
      (fun acc (lb : Server.built) ->
        acc +. cost.Simos.Cost.open_file
        +. cost.Simos.Cost.parse_header_per_kb
           *. (float_of_int lb.Server.entry.Cache.disk_bytes /. 1024.0)
           *. 0.08)
      0.0 lib_builts
  in
  let lib_touch_costs =
    List.map2
      (fun (lb : Server.built) frags ->
        let img = lb.Server.entry.Cache.image in
        let text_pages =
          max 1
            ((match Linker.Image.text_segment img with
             | Some seg -> Bytes.length seg.Linker.Image.bytes
             | None -> 0)
            / Simos.Cost.page_size)
        in
        let relocs =
          List.fold_left (fun a o -> a + Sof.Object_file.reloc_count o) 0 frags
        in
        cost.Simos.Cost.deferred_page_overhead
        +. (cost.Simos.Cost.reloc_apply
           *. (float_of_int relocs /. float_of_int text_pages)))
      lib_builts lib_frag_sets
  in
  let k = Server.kernel server in
  (* builts can go stale if the cache is trimmed between invocations;
     re-requested ones are placed afresh, not necessarily where they
     were, so the resolver is rebuilt from the images mapped now *)
  let live_builts = ref lib_builts in
  let resolve = ref (resolver_of lib_imgs) in
  {
    prog_name = name;
    scheme = "dynamic";
    launch =
      (fun ~args ->
        (* normal exec of the client binary *)
        let p = Simos.Kernel.exec k ~path ~args in
        (* the dynamic loader opens and processes the library files … *)
        Simos.Kernel.charge_sys k lib_open_parse;
        if List.exists Server.built_evicted !live_builts then begin
          live_builts :=
            List.map (fun l -> Server.build server (Server.library l)) libs;
          resolve :=
            resolver_of
              (List.map (fun (b : Server.built) -> b.Server.entry.Cache.image) !live_builts)
        end;
        (* … and maps them; each library page this process touches pays
           deferred relocation work *)
        List.iter2
          (fun (lb : Server.built) tc ->
            Server.map_into server ~touch_user_cost:tc p lb)
          !live_builts lib_touch_costs;
        (* … plus the eager client-side data relocations, in user
           space, on every invocation — the per-start cost OMOS avoids *)
        Simos.Kernel.charge_user k
          (k.Simos.Kernel.cost.Simos.Cost.reloc_apply *. float_of_int eager);
        Hashtbl.replace rt.table p.Simos.Proc.pid
          {
            flavor = Plt;
            imports;
            resolve = !resolve;
            slot_addr;
            lib_paths = [];
            expected_version = "";
            libs_mapped = true;
            binds = 0;
          };
        p);
    dispatch_bytes = Stubs.dispatch_bytes (Array.length imports);
    eager_relocs = eager;
    imports = Array.length imports;
  }

(* -- scheme 3: OMOS self-contained ----------------------------------------- *)

(** How a self-contained program is started. *)
type exec_style = Bootstrap | Integrated

let self_contained_program (rt : t) ?(style = Bootstrap) ~(name : string)
    ~(client : Sof.Object_file.t list) ~(libs : string list) () : program =
  let server = rt.server in
  let mk () =
    let lib_builts = List.map (fun l -> Server.build server (Server.library l)) libs in
    let lib_imgs =
      List.map (fun (b : Server.built) -> b.Server.entry.Cache.image) lib_builts
    in
    let b =
      Server.build server
        (Server.static ~name:(name ^ ".sc") ~externals:lib_imgs
           (graph_of_objs client))
    in
    Server.loadable_entry (lib_builts @ [ b ])
  in
  let loadable = ref (mk ()) in
  (* a cache eviction (budget trim, injected storm) between invocations
     invalidates the builts; re-request them — still-resident parts are
     warm cache hits, evicted libraries rebuild wherever the arenas have
     room now, and the client is relinked against them *)
  let current () =
    if List.exists Server.built_evicted !loadable.Server.parts then
      loadable := mk ();
    !loadable
  in
  {
    prog_name = name;
    scheme =
      (match style with Bootstrap -> "omos-bootstrap" | Integrated -> "omos-integrated");
    launch =
      (fun ~args ->
        match style with
        | Bootstrap -> Boot.bootstrap_exec server (current ()) ~args
        | Integrated -> Boot.integrated_exec server (current ()) ~args);
    dispatch_bytes = 0;
    eager_relocs = 0;
    imports = 0;
  }

(* -- scheme 4: OMOS partial-image ------------------------------------------- *)

let partial_image_program (rt : t) ~(name : string)
    ~(client : Sof.Object_file.t list) ~(libs : string list) : program =
  let server = rt.server in
  let lib_builts = List.map (fun l -> Server.build server (Server.library l)) libs in
  let lib_imgs = List.map (fun (b : Server.built) -> b.Server.entry.Cache.image) lib_builts in
  let path, imports, slot_addr =
    stubbed_client server ~scheme:"partial" ~suffix:".pi" ~name ~client
      ~stub_object:Stubs.omos_stub_object lib_imgs
  in
  (* the interface version the client is built against, embedded at
     build time and checked at load time *)
  let version = interface_version lib_imgs in
  let k = Server.kernel server in
  {
    prog_name = name;
    scheme = "omos-partial";
    launch =
      (fun ~args ->
        (* a perfectly ordinary executable … *)
        let p = Simos.Kernel.exec k ~path ~args in
        (* … whose library arrives only when a stub first fires *)
        Hashtbl.replace rt.table p.Simos.Proc.pid
          {
            flavor = Omos_stub;
            imports;
            resolve = (fun _ -> None);
            slot_addr;
            lib_paths = libs;
            expected_version = version;
            libs_mapped = false;
            binds = 0;
          };
        p);
    dispatch_bytes = Stubs.dispatch_bytes (Array.length imports);
    eager_relocs = 0;
    imports = Array.length imports;
  }

(** Run one invocation to completion; returns (exit code, stdout). *)
let invoke (rt : t) (prog : program) ~(args : string list) : int * string =
  Telemetry.Request.with_request "exec" @@ fun () ->
  let k = Server.kernel rt.server in
  let p = prog.launch ~args in
  let code = Simos.Kernel.run k p () in
  let out = Simos.Proc.stdout_contents p in
  Simos.Kernel.reap k p;
  (code, out)
