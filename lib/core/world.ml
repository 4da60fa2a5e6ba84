(** A complete simulated machine: kernel + OMOS server + the workload
    namespace (crt0, ls, codegen, libc, the auxiliary libraries) and
    the filesystem datasets. This is the fixture the examples, tests,
    and the benchmark harness all start from. *)

type personality = Hpux | Mach_osf1 | Mach_386

(* Workload objects are deterministic; compile them once per run. *)
let compiled_libc = lazy (Workloads.Libc_gen.objects ())
let compiled_ls = lazy (Workloads.Ls_gen.obj ())
let compiled_codegen = lazy (Workloads.Codegen_gen.objects ())
let compiled_auxlibs = lazy (Workloads.Codegen_gen.libraries ())
let compiled_crt0 = lazy (Workloads.Crt0.obj ())

(* A tiny interposition fixture for [ofe explain] and the provenance
   tests: [/demo/impl.o] overrides [/demo/base.o]'s [greet], and the
   result is exported under [hello]. *)
let demo_base_source =
  "int helper() { return 1; }\nint greet() { return helper() + 41; }\n"

let demo_impl_source = "int greet() { return 52; }\n"

let compiled_demo_base =
  lazy (Minic.Driver.compile ~name:"/demo/base.o" demo_base_source)

let compiled_demo_impl =
  lazy (Minic.Driver.compile ~name:"/demo/impl.o" demo_impl_source)

let demo_meta_source =
  "(constraint-list \"T\" 0x3000000 \"D\" 0x50000000)\n\
   (rename \"^greet$\" \"hello\" (override /demo/base.o /demo/impl.o))\n"

(* Figure 1, almost verbatim. *)
let libc_meta_source =
  "(constraint-list \"T\" 0x100000 \"D\" 0x40200000) ; default address constraint\n\
   (merge\n\
  \  /libc/gen /libc/stdio /libc/string /libc/stdlib\n\
  \  /libc/hppa /libc/net /libc/quad /libc/rpc)\n"

type t = {
  kernel : Simos.Kernel.t;
  server : Server.t;
  rt : Schemes.t;
  specializers : Specializers.t;
  personality : personality;
}

let create ?(personality = Hpux) ?(faults : Residency.faults option)
    ?(many_entries = Workloads.Dataset.default_many_entries) () : t =
  let cost =
    match personality with
    | Hpux -> Simos.Cost.hpux
    | Mach_osf1 -> Simos.Cost.mach_osf1
    | Mach_386 -> Simos.Cost.mach_386
  in
  let kernel = Simos.Kernel.create ~cost () in
  Workloads.Dataset.install ~many_entries kernel.Simos.Kernel.fs;
  let server = Server.create ~kernel ?faults () in
  (* fragments *)
  Server.add_fragment server "/lib/crt0.o" (Lazy.force compiled_crt0);
  Server.add_fragment server "/obj/ls.o" (Lazy.force compiled_ls);
  List.iter (fun (path, o) -> Server.add_fragment server path o) (Lazy.force compiled_libc);
  List.iter
    (fun (path, o) -> Server.add_fragment server (path ^ ".o") o)
    (Lazy.force compiled_auxlibs);
  List.iter (fun (path, o) -> Server.add_fragment server path o) (Lazy.force compiled_codegen);
  Server.add_fragment server "/demo/base.o" (Lazy.force compiled_demo_base);
  Server.add_fragment server "/demo/impl.o" (Lazy.force compiled_demo_impl);
  (* library meta-objects *)
  Server.register_meta_source server "/lib/libc" libc_meta_source;
  Server.register_meta_source server "/demo/hello" demo_meta_source;
  List.iter
    (fun (path, _) ->
      Server.register_meta_source server path (Printf.sprintf "(merge %s.o)" path))
    (Lazy.force compiled_auxlibs);
  let rt = Schemes.runtime server in
  let specializers = Specializers.install server in
  { kernel; server; rt; specializers; personality }

(* -- workload program descriptions ------------------------------------- *)

let ls_client (_ : t) : Sof.Object_file.t list =
  [ Lazy.force compiled_crt0; Lazy.force compiled_ls ]

let ls_libs : string list = [ "/lib/libc" ]

let codegen_client (_ : t) : Sof.Object_file.t list =
  Lazy.force compiled_crt0 :: List.map snd (Lazy.force compiled_codegen)

let codegen_libs : string list =
  [ "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libal1"; "/lib/libal2"; "/lib/libc" ]

(** Arguments for the paper's three measured invocations. *)
let ls_single_args = [ "ls"; Workloads.Dataset.dir_single ]
let ls_laf_args = [ "ls"; "-laF"; Workloads.Dataset.dir_many ]
let codegen_args = [ "codegen" ]
