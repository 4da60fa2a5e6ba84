(* Tests of the OMOS server: namespace, caching, constraint-placed
   library builds, bootstrap/integrated exec, the blueprint-facing
   specializers, monitoring, reordering, and dynamic loading. *)

let compile name src = Minic.Driver.compile ~name src

(* -- namespace ----------------------------------------------------------- *)

let test_namespace () =
  let ns = Omos.Namespace.create () in
  let o = Sof.Object_file.empty "/obj/x.o" in
  Omos.Namespace.bind_fragment ns "/obj/x.o" o;
  Omos.Namespace.bind_meta ns "/lib/m" (Blueprint.Meta.parse ~name:"/lib/m" "(merge /obj/x.o)");
  Alcotest.(check bool) "fragment" true (Omos.Namespace.exists ns "/obj/x.o");
  (match Omos.Namespace.lookup ns "/lib/m" with
  | Some (Omos.Namespace.Meta _) -> ()
  | _ -> Alcotest.fail "meta lookup");
  Alcotest.(check (list string)) "all metas" [ "/lib/m" ] (Omos.Namespace.all_metas ns);
  let listing = Omos.Namespace.list ns "/obj" in
  Alcotest.(check bool) "dir listing" true (List.mem ("x.o", `Fragment) listing);
  Omos.Namespace.unbind ns "/obj/x.o";
  Alcotest.(check bool) "unbound" false (Omos.Namespace.exists ns "/obj/x.o")

(* -- cache ---------------------------------------------------------------- *)

let dummy_image name =
  let a = Sof.Asm.create name in
  Sof.Asm.label a "e";
  Sof.Asm.instr a Svm.Isa.Halt;
  fst
    (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x2000 }
       [ Sof.Asm.finish a ])

let test_cache_hits_and_misses () =
  let c = Omos.Cache.create () in
  let img = dummy_image "i" in
  Alcotest.(check bool) "miss" true (Omos.Cache.find c "k" ~acceptable:(fun _ -> true) = None);
  ignore (Omos.Cache.insert c ~key:"k" ~text_base:0x1000 ~data_base:0x2000 img);
  (match Omos.Cache.find c "k" ~acceptable:(fun _ -> true) with
  | Some e -> Alcotest.(check int) "hit counted" 1 e.Omos.Cache.hits
  | None -> Alcotest.fail "expected hit");
  let st = Omos.Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Omos.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Omos.Cache.misses;
  Alcotest.(check bool) "disk accounted" true (st.Omos.Cache.disk_bytes_total > 0)

let test_cache_multiple_placements () =
  let c = Omos.Cache.create () in
  ignore (Omos.Cache.insert c ~key:"k" ~text_base:0x1000 ~data_base:0x2000 (dummy_image "a"));
  ignore (Omos.Cache.insert c ~key:"k" ~text_base:0x9000 ~data_base:0xA000 (dummy_image "b"));
  Alcotest.(check int) "two placements" 2 (List.length (Omos.Cache.candidates c "k"));
  Alcotest.(check int) "versions_max" 2 (Omos.Cache.stats c).Omos.Cache.versions_max;
  match Omos.Cache.find c "k" ~acceptable:(fun e -> e.Omos.Cache.text_base = 0x9000) with
  | Some e -> Alcotest.(check int) "selected" 0x9000 e.Omos.Cache.text_base
  | None -> Alcotest.fail "no acceptable placement"

let test_cache_invalidate () =
  let c = Omos.Cache.create () in
  ignore (Omos.Cache.insert c ~key:"k" ~text_base:0 ~data_base:0 (dummy_image "a"));
  Omos.Cache.invalidate c "k";
  Alcotest.(check bool) "gone" true (Omos.Cache.candidates c "k" = [])

(* -- server: library builds ------------------------------------------------- *)

let test_build_library_respects_constraints () =
  let w = Omos.World.create () in
  let b = Omos.Server.build w.Omos.World.server @@ Omos.Server.library "/lib/libc" in
  (* Figure 1's constraint-list: T at 0x100000, D at 0x40200000 *)
  Alcotest.(check int) "text base" 0x100000 b.Omos.Server.entry.Omos.Cache.text_base;
  Alcotest.(check int) "data base" 0x40200000 b.Omos.Server.entry.Omos.Cache.data_base

let test_build_library_cached () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = Omos.Server.build s @@ Omos.Server.library "/lib/libc" in
  let links_after_first = (Omos.Server.stats s).Omos.Server.links in
  let b2 = Omos.Server.build s @@ Omos.Server.library "/lib/libc" in
  Alcotest.(check int) "no relink" links_after_first (Omos.Server.stats s).Omos.Server.links;
  Alcotest.(check bool) "same image" true
    (b1.Omos.Server.entry.Omos.Cache.image == b2.Omos.Server.entry.Omos.Cache.image)

let test_conflicting_library_gets_alternate_placement () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (match
     Constraints.Placement.reserve (Omos.Server.text_arena s) ~lo:0x100000
       ~size:0x20000 "squatter"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reserve failed");
  let b = Omos.Server.build s @@ Omos.Server.library "/lib/libc" in
  Alcotest.(check bool) "moved off the preferred base" true
    (b.Omos.Server.entry.Omos.Cache.text_base <> 0x100000)

let test_meta_and_fragment_files_from_fs () =
  (* meta-objects and fragments are ordinary files; the server can load
     them from the simulated filesystem in either object format *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let fs = w.Omos.World.kernel.Simos.Kernel.fs in
  let frag = compile "/obj/fsfrag.o" "int answer() { return 42; }" in
  Simos.Fs.mkdir_p fs "/src";
  Simos.Fs.write_file fs "/src/fsfrag.aout" (Sof.Aout.encode frag);
  Simos.Fs.write_file fs "/src/meta"
    (Bytes.of_string "(merge /obj/fsfrag.o)\n");
  Omos.Server.load_fragment_file s ~fs_path:"/src/fsfrag.aout" ~ns_path:"/obj/fsfrag.o";
  Omos.Server.load_meta_file s ~fs_path:"/src/meta" ~ns_path:"/lib/fslib";
  let b = Omos.Server.build s @@ Omos.Server.library "/lib/fslib" in
  Alcotest.(check bool) "answer bound" true
    (Linker.Image.find_symbol b.Omos.Server.entry.Omos.Cache.image "answer" <> None)

(* -- boot paths --------------------------------------------------------------- *)

let self_contained_ls (w : Omos.World.t) style =
  Omos.Schemes.self_contained_program w.Omos.World.rt ~style ~name:"ls"
    ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs ()

let test_bootstrap_and_integrated_agree () =
  let w = Omos.World.create ~personality:Omos.World.Mach_osf1 () in
  let boot = self_contained_ls w Omos.Schemes.Bootstrap in
  let integ = self_contained_ls w Omos.Schemes.Integrated in
  let _, out1 = Omos.Schemes.invoke w.Omos.World.rt boot ~args:Omos.World.ls_single_args in
  let _, out2 = Omos.Schemes.invoke w.Omos.World.rt integ ~args:Omos.World.ls_single_args in
  Alcotest.(check string) "same output" out1 out2

let test_integrated_cheaper_than_bootstrap () =
  let w = Omos.World.create ~personality:Omos.World.Mach_osf1 () in
  let boot = self_contained_ls w Omos.Schemes.Bootstrap in
  let integ = self_contained_ls w Omos.Schemes.Integrated in
  let time prog =
    ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:Omos.World.ls_single_args);
    let snap = Simos.Clock.snapshot w.Omos.World.kernel.Simos.Kernel.clock in
    ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:Omos.World.ls_single_args);
    let _, _, e = Simos.Clock.since w.Omos.World.kernel.Simos.Kernel.clock snap in
    e
  in
  let tb = time boot and ti = time integ in
  Alcotest.(check bool) "integrated faster" true (ti < tb)

(* -- specializers ---------------------------------------------------------------- *)

let test_lib_dynamic_specializer_generates_stubs () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let graph = Blueprint.Mgraph.parse "(specialize \"lib-dynamic\" /lib/libc)" in
  let r = Omos.Server.eval s graph in
  let exports = Jigsaw.Module_ops.exports r.Blueprint.Mgraph.m in
  Alcotest.(check bool) "strlen stub" true (List.mem "strlen" exports);
  let text =
    List.fold_left
      (fun a (o : Sof.Object_file.t) -> a + Bytes.length o.Sof.Object_file.text)
      0
      (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
  in
  let real = Omos.Server.build s @@ Omos.Server.library "/lib/libc" in
  let tseg = Option.get (Linker.Image.text_segment real.Omos.Server.entry.Omos.Cache.image) in
  Alcotest.(check bool) "stubs much smaller" true
    (text * 4 < Bytes.length tseg.Linker.Image.bytes)

let test_monitor_specializer_records_trace () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let graph =
    Blueprint.Mgraph.Merge
      [
        Omos.Schemes.graph_of_objs (Omos.World.ls_client w);
        Blueprint.Mgraph.parse "(specialize \"monitor\" /lib/libc)";
      ]
  in
  let b = Omos.Server.build s @@ Omos.Server.static ~name:"ls-mon" graph in
  let loadable = Omos.Server.loadable_entry [ b ] in
  let p = Omos.Boot.integrated_exec s loadable ~args:Omos.World.ls_single_args in
  let code = Simos.Kernel.run w.Omos.World.kernel p () in
  Alcotest.(check int) "exit 0" 0 code;
  match Omos.Specializers.last_trace w.Omos.World.specializers with
  | None -> Alcotest.fail "no trace"
  | Some trace ->
      let order = Omos.Monitor.first_call_order trace in
      Alcotest.(check bool) "saw libc calls" true (List.length order >= 4);
      Alcotest.(check bool) "strlen called" true (List.mem "strlen" order)

(* -- monitor + reorder ------------------------------------------------------------ *)

let test_monitor_entry_exit_wrappers_preserve_semantics () =
  let lib =
    compile "/lib/t.o"
      "int helper(int x) { return x * 2; } \
       int compute(int x) { return helper(x) + helper(x + 1); }"
  in
  let main_o = compile "/obj/m.o" "int main() { return compute(10); }" in
  let m =
    Jigsaw.Module_ops.merge
      (Jigsaw.Module_ops.of_objects [ Workloads.Crt0.obj (); main_o ])
      (Jigsaw.Module_ops.of_object lib)
  in
  let monitored, trace = Omos.Monitor.monitored ~exits:true m in
  let k = Simos.Kernel.create () in
  Omos.Monitor.attach k trace;
  let img, _ =
    Linker.Link.link
      ~layout:{ Linker.Link.text_base = 0x10000; data_base = 0x400000 }
      (Jigsaw.Module_ops.fragments monitored)
  in
  let p = Simos.Kernel.create_process k ~args:[ "t" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"t" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  let code = Simos.Kernel.run k p () in
  (* helper(10)+helper(11) = 20+22 = 42 *)
  Alcotest.(check int) "semantics preserved" 42 code;
  let events = Omos.Monitor.trace_events trace in
  let enters = List.filter (function Omos.Monitor.Enter _ -> true | _ -> false) events in
  let exits = List.filter (function Omos.Monitor.Exit _ -> true | _ -> false) events in
  Alcotest.(check bool) "enter events" true (List.length enters >= 3);
  (* every wrapped call exits except _start, which exits the process *)
  Alcotest.(check int) "balanced" (List.length enters - 1) (List.length exits)

let test_monitor_entry_only_preserves_semantics () =
  let m =
    Jigsaw.Module_ops.of_objects
      [ Workloads.Crt0.obj ();
        compile "/obj/m.o"
          "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } \
           int main() { return fib(9); }" ]
  in
  let monitored, trace = Omos.Monitor.monitored m in
  let k = Simos.Kernel.create () in
  Omos.Monitor.attach k trace;
  let img, _ =
    Linker.Link.link
      ~layout:{ Linker.Link.text_base = 0x10000; data_base = 0x400000 }
      (Jigsaw.Module_ops.fragments monitored)
  in
  let p = Simos.Kernel.create_process k ~args:[ "t" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"t" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  Alcotest.(check int) "fib(9)" 34 (Simos.Kernel.run k p ());
  (* recursion: every fib call logged *)
  let calls = Omos.Monitor.call_sequence trace in
  Alcotest.(check bool) "many fib events" true (List.length calls > 20)

let test_reorder_clusters_used_functions () =
  let frags =
    List.init 12 (fun i ->
        compile (Printf.sprintf "f%d.o" i)
          (Printf.sprintf "int fn%d(int x) { return x + %d; }" i i))
  in
  let trace =
    {
      Omos.Monitor.names = [| "fn7"; "fn2"; "fn11" |];
      (* events stored reversed: call order fn7, fn2, fn11 *)
      events = [ Omos.Monitor.Enter 2; Omos.Monitor.Enter 1; Omos.Monitor.Enter 0 ];
      stamps = [ (-1, -1); (-1, -1); (-1, -1) ];
      count = 3;
    }
  in
  let reordered = Omos.Reorder.from_trace ~trace frags in
  let names =
    List.concat_map
      (fun (o : Sof.Object_file.t) ->
        List.filter_map
          (fun (s : Sof.Symbol.t) ->
            if Sof.Symbol.is_exported s then Some s.Sof.Symbol.name else None)
          o.Sof.Object_file.symbols)
      reordered
  in
  (match names with
  | "fn7" :: "fn2" :: "fn11" :: _ -> ()
  | _ -> Alcotest.failf "bad order: %s" (String.concat "," names));
  Alcotest.(check int) "nothing lost" 12 (List.length reordered)

(* -- dynload ------------------------------------------------------------------------ *)

(* A world with a dynamic loader attached and a client that loads
   /obj/klass.o through the dynload syscall and calls its klass_run(5),
   which calls back into the client: client_base(5) * 7 = 42. The
   client exits 99 when the syscall returns -1. Returns the world and a
   thunk that execs and runs the client. *)
let dynload_fixture () : Omos.World.t * (unit -> int) =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/obj/klass.o"
    (compile "/obj/klass.o"
       "int klass_run(int x) { return client_base(x) * 7; }");
  let client =
    compile "/obj/dynmain.o"
      (Printf.sprintf
         "int client_base(int x) { return x + 1; } \
          char bp[] = \"(merge /obj/klass.o)\"; \
          char symname[] = \"klass_run\"; \
          int main() { \
            int f; \
            f = __syscall(%d, &bp, &symname); \
            if (f == 0 - 1) return 99; \
            return __icall(f, 5); }"
         Simos.Syscall.dynload_syscall)
  in
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"dynmain"
      (Omos.Schemes.graph_of_objs [ Workloads.Crt0.obj (); client ])
  in
  let dl = Omos.Dynload.create s in
  Omos.Dynload.attach dl ~client_images_of:(fun _ -> [ b.Omos.Server.entry.Omos.Cache.image ]);
  let run () =
    let loadable = Omos.Server.loadable_entry [ b ] in
    let p = Omos.Boot.integrated_exec s loadable ~args:[ "dynmain" ] in
    Simos.Kernel.run w.Omos.World.kernel p ()
  in
  (w, run)

let test_dynload_syscall () =
  let _, run = dynload_fixture () in
  Alcotest.(check int) "dynamically loaded class ran" 42 (run ())

(* Each runtime owns its numbers in the kernel's one table: registering
   another leaves the dynamic loader's in place. *)
let test_runtime_leaves_dynload_routed () =
  let w, run = dynload_fixture () in
  ignore (Omos.Schemes.runtime w.Omos.World.server);
  Alcotest.(check int) "dynload still routed" 42 (run ())

let test_dynload_ocaml_api () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/obj/k2.o"
    (compile "/obj/k2.o" "int twice(int x) { return x * 2; }");
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"host"
      (Omos.Schemes.graph_of_objs
         [ Workloads.Crt0.obj (); compile "/obj/h.o" "int main() { return 0; }" ])
  in
  let dl = Omos.Dynload.create s in
  let loadable = Omos.Server.loadable_entry [ b ] in
  let p = Omos.Boot.integrated_exec s loadable ~args:[ "host" ] in
  let bound =
    Omos.Dynload.load dl p
      ~client_images:[ b.Omos.Server.entry.Omos.Cache.image ]
      ~graph:(Blueprint.Mgraph.parse "(merge /obj/k2.o)")
      ~symbols:[ "twice" ]
  in
  (match bound with
  | [ ("twice", addr) ] ->
      Alcotest.(check bool) "address in library arena" true
        (addr >= Omos.Server.lib_text_lo && addr < Omos.Server.lib_text_hi)
  | _ -> Alcotest.fail "bad binding result");
  try
    ignore
      (Omos.Dynload.load dl p
         ~client_images:[ b.Omos.Server.entry.Omos.Cache.image ]
         ~graph:(Blueprint.Mgraph.parse "(merge /obj/k2.o)")
         ~symbols:[ "absent" ]);
    Alcotest.fail "expected Dynload_error"
  with Omos.Dynload.Dynload_error _ -> ()

(* -- figure 2 through the server --------------------------------------------------- *)

let test_figure2_via_server () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (* wrapper malloc returning real result + 1000; client reports
     malloc(8) - heap_base, so the +1000 is visible in the exit code *)
  Omos.Server.add_fragment s "/lib/test_malloc.o"
    (compile "/lib/test_malloc.o"
       "int malloc(int n) { return REAL_malloc(n) + 1000; }");
  Omos.Server.add_fragment s "/obj/use_malloc.o"
    (compile "/obj/use_malloc.o"
       "int main() { return malloc(8) - 0x60000000; }");
  Omos.Server.add_fragment s "/obj/crt0.o" (Workloads.Crt0.obj ());
  let run b =
    let p = Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args:[ "m" ] in
    Simos.Kernel.run w.Omos.World.kernel p ()
  in
  let plain =
    Omos.Server.build s @@ Omos.Server.static ~name:"plain"
      (Blueprint.Mgraph.parse "(merge /obj/crt0.o /obj/use_malloc.o /lib/libc)")
  in
  Alcotest.(check int) "plain: heap base exactly" 0 (run plain);
  let fig2 =
    Blueprint.Mgraph.parse
      "(hide \"^REAL_malloc$\"\n\
       (merge\n\
       (restrict \"^malloc$\"\n\
       (copy_as \"^malloc$\" \"REAL_malloc\"\n\
       (merge /obj/crt0.o /obj/use_malloc.o /lib/libc)))\n\
       /lib/test_malloc.o))"
  in
  let trapped = Omos.Server.build s @@ Omos.Server.static ~name:"trapped" fig2 in
  Alcotest.(check int) "trapped: +1000" 1000 (run trapped)

let test_figure2_exports_shape () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/lib/test_malloc2.o"
    (compile "/lib/test_malloc2.o"
       "int malloc(int n) { return REAL_malloc(n) + 1000; }");
  let fig2 =
    Blueprint.Mgraph.parse
      "(hide \"^REAL_malloc$\"\n\
       (merge\n\
       (restrict \"^malloc$\"\n\
       (copy_as \"^malloc$\" \"REAL_malloc\" /lib/libc))\n\
       /lib/test_malloc2.o))"
  in
  let r = Omos.Server.eval s fig2 in
  let exports = Jigsaw.Module_ops.exports r.Blueprint.Mgraph.m in
  Alcotest.(check bool) "malloc exported" true (List.mem "malloc" exports);
  Alcotest.(check bool) "REAL_malloc hidden" false (List.mem "REAL_malloc" exports)

let () =
  Alcotest.run "omos"
    [
      ("namespace", [ Alcotest.test_case "bind/lookup/list" `Quick test_namespace ]);
      ( "cache",
        [
          Alcotest.test_case "hits/misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "placements" `Quick test_cache_multiple_placements;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        ] );
      ( "server",
        [
          Alcotest.test_case "constraints honoured" `Quick test_build_library_respects_constraints;
          Alcotest.test_case "library cached" `Quick test_build_library_cached;
          Alcotest.test_case "conflict -> alternate" `Quick test_conflicting_library_gets_alternate_placement;
          Alcotest.test_case "load from fs files" `Quick test_meta_and_fragment_files_from_fs;
        ] );
      ( "boot",
        [
          Alcotest.test_case "bootstrap = integrated output" `Quick test_bootstrap_and_integrated_agree;
          Alcotest.test_case "integrated cheaper" `Quick test_integrated_cheaper_than_bootstrap;
        ] );
      ( "specializers",
        [
          Alcotest.test_case "lib-dynamic stubs" `Quick test_lib_dynamic_specializer_generates_stubs;
          Alcotest.test_case "monitor trace" `Quick test_monitor_specializer_records_trace;
        ] );
      ( "monitor+reorder",
        [
          Alcotest.test_case "entry/exit wrappers" `Quick test_monitor_entry_exit_wrappers_preserve_semantics;
          Alcotest.test_case "entry-only wrappers" `Quick test_monitor_entry_only_preserves_semantics;
          Alcotest.test_case "reorder clusters" `Quick test_reorder_clusters_used_functions;
        ] );
      ( "dynload",
        [
          Alcotest.test_case "syscall + icall" `Quick test_dynload_syscall;
          Alcotest.test_case "registering the scheme runtime leaves dynload routed" `Quick
            test_runtime_leaves_dynload_routed;
          Alcotest.test_case "ocaml api" `Quick test_dynload_ocaml_api;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "via server" `Quick test_figure2_via_server;
          Alcotest.test_case "exports shape" `Quick test_figure2_exports_shape;
        ] );
    ]
