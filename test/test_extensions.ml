(* Tests of the extension features the paper lists as related/future
   work, implemented here: the second object format + BFD-style switch
   (§7), dynamic unlinking (§9, "could be added"), partial-image
   interface versioning (§4.2, "should be implemented"), and
   constraint-conflict recording/feedback (§4.1). *)

let compile name src = Minic.Driver.compile ~name src

let sample_object () =
  let a = Sof.Asm.create "/obj/sample.o" in
  Sof.Asm.label a "fn";
  Sof.Asm.call a "ext";
  Sof.Asm.lea a 2 "tbl";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.label ~binding:Sof.Symbol.Weak a "weak_fn";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.label ~binding:Sof.Symbol.Local a "local_fn";
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.data_label a "tbl";
  Sof.Asm.data_word a 7l;
  Sof.Asm.data_word_sym a ~addend:4 "fn";
  Sof.Asm.bss a "buf" 100;
  Sof.Asm.ctor a "fn";
  Sof.Asm.finish a

(* -- a.out backend ---------------------------------------------------------- *)

let objects_equal (a : Sof.Object_file.t) (b : Sof.Object_file.t) : bool =
  a.Sof.Object_file.name = b.Sof.Object_file.name
  && Bytes.equal a.Sof.Object_file.text b.Sof.Object_file.text
  && Bytes.equal a.Sof.Object_file.data b.Sof.Object_file.data
  && a.Sof.Object_file.bss_size = b.Sof.Object_file.bss_size
  && a.Sof.Object_file.symbols = b.Sof.Object_file.symbols
  && a.Sof.Object_file.relocs = b.Sof.Object_file.relocs
  && a.Sof.Object_file.ctors = b.Sof.Object_file.ctors

let test_aout_roundtrip () =
  let o = sample_object () in
  let o' = Sof.Aout.decode (Sof.Aout.encode o) in
  Alcotest.(check bool) "roundtrip exact" true (objects_equal o o')

let test_aout_roundtrip_compiled () =
  let o = compile "/obj/c.o" "int g = 9; int f(int x) { return x + g; }" in
  Alcotest.(check bool) "compiled roundtrip" true
    (objects_equal o (Sof.Aout.decode (Sof.Aout.encode o)))

let test_aout_string_interning () =
  (* the same name used as symbol + reloc target + ctor appears once in
     the string table; the file stays compact *)
  let o = sample_object () in
  let encoded = Sof.Aout.encode o in
  let native = Sof.Codec.encode o in
  Alcotest.(check bool) "within 2x of native" true
    (Bytes.length encoded < 2 * Bytes.length native + 256)

let test_aout_errors () =
  (try
     ignore (Sof.Aout.decode (Bytes.of_string "NOPE"));
     Alcotest.fail "expected error"
   with Sof.Aout.Decode_error _ -> ());
  let full = Sof.Aout.encode (sample_object ()) in
  try
    ignore (Sof.Aout.decode (Bytes.sub full 0 (Bytes.length full - 10)));
    Alcotest.fail "expected error"
  with Sof.Aout.Decode_error _ -> ()

(* -- bfd switch --------------------------------------------------------------- *)

let test_bfd_detect_and_decode () =
  let o = sample_object () in
  let native = Sof.Codec.encode o in
  let aout = Sof.Aout.encode o in
  Alcotest.(check bool) "native detected" true (Sof.Bfd.detect native = Some Sof.Bfd.Native);
  Alcotest.(check bool) "aout detected" true (Sof.Bfd.detect aout = Some Sof.Bfd.Aout_style);
  Alcotest.(check bool) "junk rejected" true (Sof.Bfd.detect (Bytes.of_string "????....") = None);
  Alcotest.(check bool) "decode native" true (objects_equal o (Sof.Bfd.decode native));
  Alcotest.(check bool) "decode aout" true (objects_equal o (Sof.Bfd.decode aout))

let test_bfd_convert () =
  let o = sample_object () in
  let converted = Sof.Bfd.convert ~to_:Sof.Bfd.Aout_style (Sof.Codec.encode o) in
  Alcotest.(check bool) "converted is aout" true
    (Sof.Bfd.detect converted = Some Sof.Bfd.Aout_style);
  Alcotest.(check bool) "content preserved" true
    (objects_equal o (Sof.Bfd.decode converted))

let test_bfd_unknown () =
  try
    ignore (Sof.Bfd.decode (Bytes.of_string "XXXXjunkjunk"));
    Alcotest.fail "expected Unknown_format"
  with Sof.Bfd.Unknown_format _ -> ()

let test_bfd_linked_from_aout () =
  (* objects that travelled through the a.out backend still link and run *)
  let o =
    compile "/obj/m.o" "int main() { return 29; }"
  in
  let o' = Sof.Aout.decode (Sof.Aout.encode o) in
  let img, _ =
    Linker.Link.link
      ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x8000 }
      [ Workloads.Crt0.obj (); o' ]
  in
  let k = Simos.Kernel.create () in
  let p = Simos.Kernel.create_process k ~args:[ "m" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"m" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  Alcotest.(check int) "runs" 29 (Simos.Kernel.run k p ())

let prop_aout_roundtrip_random =
  QCheck.Test.make ~count:100 ~name:"a.out roundtrips arbitrary symbols"
    QCheck.(pair (string_gen_of_size (QCheck.Gen.int_range 1 12) QCheck.Gen.printable) small_nat)
    (fun (name, value) ->
      QCheck.assume (name <> "");
      let o =
        Sof.Object_file.make ~name:"p.o" ~text:Bytes.empty
          [ Sof.Symbol.make ~kind:Sof.Symbol.Abs ~value name ]
      in
      objects_equal o (Sof.Aout.decode (Sof.Aout.encode o)))

(* -- dynamic unlinking ---------------------------------------------------------- *)

let test_unload () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/obj/k.o" (compile "/obj/k.o" "int kfn(int x) { return x + 1; }");
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"host"
      (Omos.Schemes.graph_of_objs
         [ Workloads.Crt0.obj (); compile "/obj/h.o" "int main() { return 0; }" ])
  in
  let dl = Omos.Dynload.create s in
  let p =
    Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args:[ "host" ]
  in
  let regions0 = List.length (Simos.Addr_space.regions p.Simos.Proc.aspace) in
  let bound =
    Omos.Dynload.load dl p
      ~client_images:[ b.Omos.Server.entry.Omos.Cache.image ]
      ~graph:(Blueprint.Mgraph.parse "(merge /obj/k.o)")
      ~symbols:[ "kfn" ]
  in
  let addr = List.assoc "kfn" bound in
  Alcotest.(check bool) "mapped" true
    (List.length (Simos.Addr_space.regions p.Simos.Proc.aspace) > regions0);
  (* the class is readable while loaded *)
  ignore (Simos.Addr_space.load32 p.Simos.Proc.aspace addr);
  let img = List.hd (Omos.Dynload.loaded dl p) in
  Omos.Dynload.unload dl p img;
  Alcotest.(check int) "regions restored" regions0
    (List.length (Simos.Addr_space.regions p.Simos.Proc.aspace));
  Alcotest.(check bool) "no longer tracked" true (Omos.Dynload.loaded dl p = []);
  (* the unmapped address now faults *)
  (try
     ignore (Simos.Addr_space.load32 p.Simos.Proc.aspace addr);
     Alcotest.fail "expected fault after unload"
   with Simos.Addr_space.Fault _ -> ());
  (* and the arena space can be reused: loading again succeeds *)
  let bound2 =
    Omos.Dynload.load dl p
      ~client_images:[ b.Omos.Server.entry.Omos.Cache.image ]
      ~graph:(Blueprint.Mgraph.parse "(merge /obj/k.o)")
      ~symbols:[ "kfn" ]
  in
  Alcotest.(check bool) "reloadable" true (List.mem_assoc "kfn" bound2)

(* A loaded class's mappings alone hold its frames, so unloading it, or
   reaping its process, frees them. Each round two processes load the
   class at once, at two addresses, unload it and are reaped; between
   rounds a library is built where each of the last round's classes
   was, so the next round's classes land elsewhere. The third round
   reaps without unloading, which also gives back the classes' arena
   reservations and the loader's record of each process. *)
let test_unload_frees_frames () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server and k = w.Omos.World.kernel in
  Omos.Server.add_fragment s "/obj/k.o" (compile "/obj/k.o" "int kfn(int x) { return x + 1; }");
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"host"
      (Omos.Schemes.graph_of_objs
         [ Workloads.Crt0.obj (); compile "/obj/h.o" "int main() { return 0; }" ])
  in
  let dl = Omos.Dynload.create s in
  let round i ~unload =
    if i > 1 then
      List.iter
        (fun c ->
          let lib = Printf.sprintf "/lib/squat%d%c" i c in
          Omos.Server.register_meta_source s lib "(merge /obj/k.o)";
          ignore (Omos.Server.build s (Omos.Server.library lib)))
        [ 'a'; 'b' ];
    let procs =
      List.init 2 (fun _ ->
          Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args:[ "host" ])
    in
    List.iter
      (fun p ->
        ignore
          (Omos.Dynload.load dl p
             ~client_images:[ b.Omos.Server.entry.Omos.Cache.image ]
             ~graph:(Blueprint.Mgraph.parse "(merge /obj/k.o)")
             ~symbols:[ "kfn" ]))
      procs;
    if unload then
      List.iter (fun p -> List.iter (Omos.Dynload.unload dl p) (Omos.Dynload.loaded dl p)) procs;
    List.iter (Simos.Kernel.reap k) procs;
    (procs, Simos.Phys.resident_pages k.Simos.Kernel.phys)
  in
  let _, first = round 1 ~unload:true in
  Alcotest.(check int) "second round: resident pages" first (snd (round 2 ~unload:true));
  let procs, pages = round 3 ~unload:false in
  Alcotest.(check int) "third round, reaped loaded: resident pages" first pages;
  List.iter
    (fun (name, arena) ->
      Alcotest.(check (list (triple int int string)))
        (name ^ " arena: no class reservations") []
        (List.filter
           (fun (_, _, owner) -> String.starts_with ~prefix:"dynload-" owner)
           (Constraints.Placement.intervals (arena s))))
    [ ("text", Omos.Server.text_arena); ("data", Omos.Server.data_arena) ];
  List.iter
    (fun p ->
      Alcotest.(check int) "reaped: no classes recorded" 0
        (List.length (Omos.Dynload.loaded dl p)))
    procs

let test_unload_not_loaded () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"host2"
      (Omos.Schemes.graph_of_objs
         [ Workloads.Crt0.obj (); compile "/obj/h.o" "int main() { return 0; }" ])
  in
  let dl = Omos.Dynload.create s in
  let p =
    Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args:[ "host2" ]
  in
  try
    Omos.Dynload.unload dl p b.Omos.Server.entry.Omos.Cache.image;
    Alcotest.fail "expected Dynload_error"
  with Omos.Dynload.Dynload_error _ -> ()

(* -- partial-image versioning ------------------------------------------------------ *)

let test_version_accepted_when_unchanged () =
  let w = Omos.World.create () in
  let prog =
    Omos.Schemes.partial_image_program w.Omos.World.rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs
  in
  let code, out = Omos.Schemes.invoke w.Omos.World.rt prog ~args:Omos.World.ls_single_args in
  Alcotest.(check int) "runs" 0 code;
  Alcotest.(check string) "lists" "README\n" out

let test_version_mismatch_detected () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (* build the client against today's libc *)
  let prog =
    Omos.Schemes.partial_image_program w.Omos.World.rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs
  in
  (* the library evolves: a new export changes the interface *)
  Omos.Server.add_fragment s "/libc/extra"
    (compile "/libc/extra" "int brand_new_routine(int x) { return x; }");
  Omos.Server.register_meta_source s "/lib/libc"
    ("(constraint-list \"T\" 0x100000 \"D\" 0x40200000)\n\
      (merge /libc/gen /libc/stdio /libc/string /libc/stdlib\n\
      /libc/hppa /libc/net /libc/quad /libc/rpc /libc/extra)");
  (* the stale client must be refused at load time, not run with a
     mismatched library *)
  let p = prog.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  (try
     ignore (Simos.Kernel.run w.Omos.World.kernel p ());
     Alcotest.fail "expected version mismatch"
   with Omos.Schemes.Scheme_error msg -> (
     match
       Scanf.sscanf msg
         "library interface version mismatch: client built against %8[0-9a-f], \
          server provides %8[0-9a-f]%!"
         (fun a b -> (a, b))
     with
     | client, server ->
         (* a space in a scanf format skips any run of blanks *)
         Alcotest.(check string) "one space per gap"
           (Printf.sprintf
              "library interface version mismatch: client built against %s, \
               server provides %s"
              client server)
           msg;
         Alcotest.(check (list int)) "8 hex digits each" [ 8; 8 ]
           [ String.length client; String.length server ];
         Alcotest.(check bool) "versions differ" true (client <> server)
     | exception (Scanf.Scan_failure _ | End_of_file) ->
         Alcotest.failf "unexpected message %S" msg));
  (* a freshly built client works against the new library *)
  let prog2 =
    Omos.Schemes.partial_image_program w.Omos.World.rt ~name:"ls2"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs
  in
  let code, _ = Omos.Schemes.invoke w.Omos.World.rt prog2 ~args:Omos.World.ls_single_args in
  Alcotest.(check int) "new client runs" 0 code

(* -- conflict recording --------------------------------------------------------------- *)

let greedy_meta path = Printf.sprintf
    "(constraint-list \"T\" 0x100000 \"D\" 0x40200000)\n(merge %s.o)" path

let test_conflicts_recorded () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let libs = Workloads.Codegen_gen.libraries () in
  List.iter
    (fun (path, _) -> Omos.Server.register_meta_source s (path ^ "-g") (greedy_meta path))
    libs;
  List.iter
    (fun (path, _) -> ignore (Omos.Server.build s @@ Omos.Server.library (path ^ "-g")))
    libs;
  (* the first library won the base; the other four conflicted (text +
     data each) *)
  let cs = Omos.Server.conflicts s in
  Alcotest.(check bool) "conflicts recorded" true (List.length cs >= 4);
  Alcotest.(check bool) "owners named" true
    (List.exists (fun c -> c.Omos.Server.c_owner = "/lib/libl-g") cs)

let test_conflict_feedback_loop () =
  (* apply suggest_placements as new constraint-lists on a fresh
     server: every library then gets its preferred base, no conflicts *)
  let build_all s libs metas =
    List.iter (fun (path, meta) -> Omos.Server.register_meta_source s path meta)
      (List.combine (List.map (fun (p, _) -> p ^ "-g") libs) metas);
    List.map
      (fun (path, _) ->
        let b = Omos.Server.build s @@ Omos.Server.library (path ^ "-g") in
        b.Omos.Server.entry.Omos.Cache.text_base)
      libs
  in
  let libs = Workloads.Codegen_gen.libraries () in
  let w1 = Omos.World.create () in
  let _ = build_all w1.Omos.World.server libs (List.map (fun (p, _) -> greedy_meta p) libs) in
  let suggestions = Omos.Server.suggest_placements w1.Omos.World.server in
  (* rewrite each library's constraint-list from the suggestions *)
  let metas =
    List.map
      (fun (path, _) ->
        let tbase =
          match
            List.find_opt
              (fun (o, seg, _) -> o = path ^ "-g" && seg = Blueprint.Mgraph.Seg_text)
              suggestions
          with
          | Some (_, _, base) -> base
          | None -> 0x100000 (* the original winner keeps its base *)
        in
        let dbase =
          match
            List.find_opt
              (fun (o, seg, _) -> o = path ^ "-g" && seg = Blueprint.Mgraph.Seg_data)
              suggestions
          with
          | Some (_, _, base) -> base
          | None -> 0x40200000
        in
        Printf.sprintf "(constraint-list \"T\" %d \"D\" %d)\n(merge %s.o)" tbase dbase path)
      libs
  in
  let w2 = Omos.World.create () in
  ignore (build_all w2.Omos.World.server libs metas);
  Alcotest.(check int) "second generation conflict-free" 0
    (List.length (Omos.Server.conflicts w2.Omos.World.server))

let () =
  Alcotest.run "extensions"
    [
      ( "aout",
        [
          Alcotest.test_case "roundtrip" `Quick test_aout_roundtrip;
          Alcotest.test_case "compiled roundtrip" `Quick test_aout_roundtrip_compiled;
          Alcotest.test_case "string interning" `Quick test_aout_string_interning;
          Alcotest.test_case "errors" `Quick test_aout_errors;
        ] );
      ( "bfd",
        [
          Alcotest.test_case "detect/decode" `Quick test_bfd_detect_and_decode;
          Alcotest.test_case "convert" `Quick test_bfd_convert;
          Alcotest.test_case "unknown" `Quick test_bfd_unknown;
          Alcotest.test_case "link from aout" `Quick test_bfd_linked_from_aout;
        ] );
      ( "unload",
        [
          Alcotest.test_case "load/unload/reload" `Quick test_unload;
          Alcotest.test_case "not loaded" `Quick test_unload_not_loaded;
          Alcotest.test_case "unload frees frames" `Quick test_unload_frees_frames;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "unchanged accepted" `Quick test_version_accepted_when_unchanged;
          Alcotest.test_case "mismatch detected" `Quick test_version_mismatch_detected;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "recorded" `Quick test_conflicts_recorded;
          Alcotest.test_case "feedback loop" `Quick test_conflict_feedback_loop;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_aout_roundtrip_random ]);
    ]
