(* The staged async request pipeline: submit/await semantics, batched
   placement, admission control, and scheduler determinism. *)

let fresh_world () =
  let w = Omos.World.create () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  w.Omos.World.server

(* -- submit / await / poll ------------------------------------------------- *)

let test_submit_await () =
  let s = fresh_world () in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Alcotest.(check int) "two in flight" 2 (Omos.Server.in_flight s);
  Alcotest.(check bool) "poll pending" true (Omos.Server.poll s t1 = None);
  let r1 = Omos.Server.await s t1 in
  let r2 = Omos.Server.await s t2 in
  Alcotest.(check int) "none in flight" 0 (Omos.Server.in_flight s);
  Alcotest.(check bool) "miss 1" false r1.Omos.Server.cache_hit;
  Alcotest.(check bool) "miss 2" false r2.Omos.Server.cache_hit;
  Alcotest.(check bool) "work charged" true (r1.Omos.Server.sim_us > 0.0);
  List.iter
    (fun (r : Omos.Server.response) ->
      Alcotest.(check bool) "queue wait within total" true
        (r.Omos.Server.queue_us >= 0.0
        && r.Omos.Server.queue_us <= r.Omos.Server.sim_us))
    [ r1; r2 ];
  (* a consumed ticket is gone *)
  match Omos.Server.poll s t1 with
  | exception Omos.Server.Server_error _ -> ()
  | _ -> Alcotest.fail "consumed ticket should be unknown"

let test_sync_wrapper_unchanged () =
  let s = fresh_world () in
  let r = Omos.Server.instantiate s (Omos.Server.library "/lib/libm") in
  Alcotest.(check bool) "serial miss" false r.Omos.Server.cache_hit;
  Alcotest.(check (float 0.0)) "serial has no queue wait" 0.0 r.Omos.Server.queue_us;
  let r2 = Omos.Server.instantiate s (Omos.Server.library "/lib/libm") in
  Alcotest.(check bool) "serial hit" true r2.Omos.Server.cache_hit

(* -- coalescing ------------------------------------------------------------ *)

let test_coalescing () =
  let s = fresh_world () in
  let links0 = (Omos.Server.stats s).Omos.Server.links in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t3 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  Omos.Server.drain s;
  let r1 = Omos.Server.await s t1 in
  let r2 = Omos.Server.await s t2 in
  let r3 = Omos.Server.await s t3 in
  Alcotest.(check bool) "first builds" false r1.Omos.Server.cache_hit;
  Alcotest.(check bool) "second coalesces to a hit" true r2.Omos.Server.cache_hit;
  Alcotest.(check bool) "third coalesces to a hit" true r3.Omos.Server.cache_hit;
  Alcotest.(check int) "one link for three requests" (links0 + 1)
    (Omos.Server.stats s).Omos.Server.links;
  Alcotest.(check int) "coalesced counter" 2
    (Telemetry.Counter.get "pipeline.coalesced")

(* -- nesting ----------------------------------------------------------------- *)

(* A specializer runs inside the eval stage of the request that reaches
   it. An instantiate from there must fail that request loudly, naming
   what it asked for, and leave the pipeline ready for the next one. *)
let test_nested_instantiate_fails () =
  let s = fresh_world () in
  Omos.Server.register_specializer s "nested" (fun env _args node ->
      ignore (Omos.Server.instantiate s (Omos.Server.library "/lib/libm"));
      Blueprint.Mgraph.eval env node);
  Omos.Server.register_meta_source s "/t/nested"
    "(specialize \"nested\" /lib/libm)";
  (match Omos.Server.instantiate s (Omos.Server.library "/t/nested") with
  | exception Omos.Server.Server_error msg ->
      Alcotest.(check bool) "error names the nested target" true
        (Astring.String.is_infix ~affix:"lib:/lib/libm" msg)
  | _ -> Alcotest.fail "nested instantiate should fail");
  Alcotest.(check int) "none in flight" 0 (Omos.Server.in_flight s);
  let r = Omos.Server.instantiate s (Omos.Server.library "/lib/libm") in
  Alcotest.(check bool) "next request builds" false r.Omos.Server.cache_hit

(* -- batched placement ----------------------------------------------------- *)

(* Submit [libs] together, with batched placement on or off, and drain;
   each library's text and data bases, in submission order, and the
   text and data arenas' intervals. *)
let placed libs batch =
  let s = fresh_world () in
  Omos.Server.set_batch_placement s batch;
  let tickets = List.map (fun l -> Omos.Server.submit s (Omos.Server.library l)) libs in
  Omos.Server.drain s;
  let bases =
    List.map
      (fun tk ->
        let e = (Omos.Server.await s tk).Omos.Server.built.Omos.Server.entry in
        (e.Omos.Cache.text_base, e.Omos.Cache.data_base))
      tickets
  in
  let arenas =
    List.map Constraints.Placement.intervals
      [ Omos.Server.text_arena s; Omos.Server.data_arena s ]
  in
  (bases, arenas)

(* Libraries without placement preferences, submitted together, meet at
   the place barrier and are solved in one pass per arena; each gets the
   bases one pass per request gives it, and the arenas end identical. *)
let test_batch_equals_serial () =
  let libs = [ "/lib/libm"; "/lib/libl"; "/lib/libC" ] in
  let batched = placed libs true in
  Alcotest.(check (float 0.0)) "one pass placed all three" 3.0
    (Telemetry.Histogram.max_value (Telemetry.Histogram.make "place.batch_size"));
  let serial = placed libs false in
  Alcotest.(check (list (pair int int))) "same bases" (fst serial) (fst batched);
  Alcotest.(check bool) "arenas end identical" true (snd serial = snd batched)

(* A batch mixing libraries with placement preferences (/demo/hello and
   /lib/libc name a constraint-list) and without solves each to the
   serial answer, in order: /demo/hello gets its preferred bases, and
   /lib/libc loses its text preference, already taken by a library
   submitted before it, in both. *)
let test_batch_mixed_prefs () =
  let libs = [ "/lib/libm"; "/demo/hello"; "/lib/libl"; "/lib/libC"; "/lib/libc" ] in
  let batched = placed libs true in
  Alcotest.(check (float 0.0)) "one pass placed all five" 5.0
    (Telemetry.Histogram.max_value (Telemetry.Histogram.make "place.batch_size"));
  let serial = placed libs false in
  Alcotest.(check (list (pair int int))) "same bases" (fst serial) (fst batched);
  Alcotest.(check bool) "arenas end identical" true (snd serial = snd batched);
  Alcotest.(check (pair int int)) "/demo/hello at its preferred bases"
    (0x3000000, 0x50000000) (List.nth (fst batched) 1)

(* Concurrent misses must meet at the place barrier: one constraint
   pass solves >= 2 queued requests, visible in place.batch_size. *)
let test_batch_size_histogram () =
  let s = fresh_world () in
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Omos.Server.drain s;
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let h = Telemetry.Histogram.make "place.batch_size" in
  Alcotest.(check bool) "a batched pass happened" true
    (Telemetry.Histogram.count h >= 1);
  Alcotest.(check bool) "batch covered both requests" true
    (Telemetry.Histogram.max_value h >= 2.0);
  Alcotest.(check bool) "one solver pass counted" true
    (Telemetry.Counter.get "constraints.batch_solves" >= 1)

(* Every member of a batched flush is placed under its own request: the
   placement counts the flush records carry a submitted ticket's request
   and client, as the unbatched path's do. *)
let test_batch_member_attribution () =
  let s = fresh_world () in
  Telemetry.Request.set_client 2;
  let tickets =
    List.map
      (fun m -> Omos.Server.submit s (Omos.Server.library m))
      [ "/lib/libm"; "/lib/libl" ]
  in
  Omos.Server.drain s;
  List.iter (fun tk -> ignore (Omos.Server.await s tk)) tickets;
  let placements =
    List.filter
      (fun (e : Telemetry.Flight.event) ->
        e.kind = Telemetry.Flight.Count && e.name = "constraints.placements")
      (Telemetry.Flight.events ())
  in
  Alcotest.(check int) "one placement per library and arena" 4
    (List.length placements);
  List.iter
    (fun (e : Telemetry.Flight.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "placement %d names a ticket" e.seq)
        true
        (List.mem e.request (List.map Omos.Server.ticket_id tickets));
      Alcotest.(check int) "placement names the client" 2 e.client)
    placements

let test_unbatched_knob () =
  let s = fresh_world () in
  Omos.Server.set_batch_placement s false;
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  Omos.Server.drain s;
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let h = Telemetry.Histogram.make "place.batch_size" in
  Alcotest.(check (float 0.0)) "every pass solved one request" 1.0
    (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "no batched pass" 0
    (Telemetry.Counter.get "constraints.batch_solves")

(* -- admission control ----------------------------------------------------- *)

let test_overload () =
  let s = fresh_world () in
  Omos.Server.set_queue_limit s 2;
  let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
  let t2 = Omos.Server.submit s (Omos.Server.library "/lib/libl") in
  (match Omos.Server.submit s (Omos.Server.library "/demo/hello") with
  | exception Omos.Server.Overload _ -> ()
  | _ -> Alcotest.fail "third submit should overload");
  Alcotest.(check int) "rejection counted" 1
    (Telemetry.Counter.get "server.overloads");
  (* rejected request left no residue; the queue drains and recovers *)
  ignore (Omos.Server.await s t1);
  ignore (Omos.Server.await s t2);
  let t3 = Omos.Server.submit s (Omos.Server.library "/demo/hello") in
  let r3 = Omos.Server.await s t3 in
  Alcotest.(check bool) "recovered" false r3.Omos.Server.cache_hit

(* -- determinism ----------------------------------------------------------- *)

let conc_spec concurrency =
  {
    Omos.Workload.default with
    Omos.Workload.requests = 24;
    seed = 11;
    concurrency;
    mix = [ ("instantiate", 1) ];
  }

let test_concurrent_determinism () =
  let a = Omos.Workload.run (conc_spec 8) in
  let b = Omos.Workload.run (conc_spec 8) in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Omos.Workload.event) (y : Omos.Workload.event) ->
      Alcotest.(check bool) "events byte-identical" true (x = y))
    a b

let test_concurrent_matches_serial () =
  let conc = Omos.Workload.run (conc_spec 8) in
  let serial = Omos.Workload.run (conc_spec 1) in
  (* same requests, same clients, same cache outcomes — only the
     timings differ (queue wait, batch amortization) *)
  List.iter2
    (fun (x : Omos.Workload.event) (y : Omos.Workload.event) ->
      Alcotest.(check int) "req" y.Omos.Workload.w_req x.Omos.Workload.w_req;
      Alcotest.(check int) "client" y.Omos.Workload.w_client x.Omos.Workload.w_client;
      Alcotest.(check string) "op" y.Omos.Workload.w_op x.Omos.Workload.w_op;
      Alcotest.(check string) "target" y.Omos.Workload.w_target x.Omos.Workload.w_target;
      Alcotest.(check bool) "hit" true (x.Omos.Workload.w_hit = y.Omos.Workload.w_hit))
    conc serial

let test_seeded_interleaving_reproducible () =
  let run () =
    let s = fresh_world () in
    Omos.Server.set_sched_seed s 42;
    let ts =
      List.map
        (fun m -> Omos.Server.submit s (Omos.Server.library m))
        [ "/lib/libm"; "/lib/libl"; "/demo/hello" ]
    in
    List.map
      (fun t ->
        let r = Omos.Server.await s t in
        (r.Omos.Server.cache_hit, r.Omos.Server.sim_us, r.Omos.Server.queue_us))
      ts
  in
  Alcotest.(check bool) "seed 42 twice: identical" true (run () = run ())

(* -- map keys -------------------------------------------------------------- *)

let build_lib s path = Omos.Server.build s (Omos.Server.library path)

(* Map [b] into a fresh process; the process and the image its entry
   then holds for mapping. *)
let map_new s b =
  let p = Simos.Kernel.create_process (Omos.Server.kernel s) ~args:[ "map" ] in
  Omos.Server.map_into s p b;
  (p, Option.get b.Omos.Server.entry.Omos.Cache.mapped)

(* The frame groups of a process's read-only regions. *)
let read_only_frames (p : Simos.Proc.t) =
  List.filter_map
    (fun (r : Simos.Addr_space.region) ->
      if r.Simos.Addr_space.writable then None else Some r.Simos.Addr_space.frames)
    (Simos.Addr_space.regions p.Simos.Proc.aspace)

(* Building and hitting cache nothing for mapping: only mapping does. *)
let test_map_key_lazy () =
  let s = fresh_world () in
  let fresh = build_lib s "/lib/libc" in
  let hit = build_lib s "/lib/libc" in
  let e = fresh.Omos.Server.entry in
  Alcotest.(check bool) "one entry" true (e == hit.Omos.Server.entry);
  Alcotest.(check bool) "built, hit, never mapped: nothing cached" true
    (Option.is_none e.Omos.Cache.mapped);
  ignore (map_new s hit);
  Alcotest.(check bool) "mapping the hit caches the image" true
    (Option.is_some e.Omos.Cache.mapped)

(* The client whose request built an image and every later client map
   the one image its entry cached: a later hit maps the same mappable,
   and the same read-only frames. *)
let test_map_key_one_per_entry () =
  let s = fresh_world () in
  List.iter
    (fun path ->
      let p1, m1 = map_new s (build_lib s path) in
      let p2, m2 = map_new s (build_lib s path) in
      Alcotest.(check bool) (path ^ ": a hit maps the fresh build's image") true (m1 == m2);
      let f1 = read_only_frames p1 and f2 = read_only_frames p2 in
      Alcotest.(check bool) (path ^ ": read-only frames shared") true
        (f1 <> [] && List.length f1 = List.length f2 && List.for_all2 ( == ) f1 f2))
    [ "/lib/libc"; "/lib/libm" ]

(* -- cache keys ----------------------------------------------------------------- *)

(* Two constructions that a comma-joined digest text confuses:
   ("^f", "h,i") copies f as "h,i", ("^f,h", "i") selects nothing. The
   second must build its own image, the one lint predicts. *)
let test_cache_key_commas () =
  let s = fresh_world () in
  Omos.Server.add_fragment s "/t/x.o"
    (Minic.Driver.compile ~name:"/t/x.o"
       "int f(int x) { return x; }\nint g(int x) { return x + 1; }");
  let build src =
    Omos.Server.register_meta_source s "/t/lib" src;
    Omos.Server.instantiate s (Omos.Server.library "/t/lib")
  in
  let symtab (r : Omos.Server.response) =
    List.sort compare
      (List.map fst
         r.Omos.Server.built.Omos.Server.entry.Omos.Cache.image.Linker.Image.symtab)
  in
  let first = build "(copy_as \"^f\" \"h,i\" /t/x.o)" in
  Alcotest.(check (list string)) "first copies f" [ "f"; "g"; "h,i" ] (symtab first);
  let second = build "(copy_as \"^f,h\" \"i\" /t/x.o)" in
  let predicted = (Option.get (Omos.Server.lint_report s "/t/lib")).Analysis.Lint.exports in
  Alcotest.(check (list string)) "lint: the second copies nothing" [ "f"; "g" ] predicted;
  Alcotest.(check bool) "the second misses" false second.Omos.Server.cache_hit;
  Alcotest.(check (list string)) "the second's image is the predicted one" predicted
    (symtab second)

(* A library's image key fixes what its names resolve to. *)

let bind_fn s path fn =
  Omos.Server.add_fragment s path
    (Minic.Driver.compile ~name:path (Printf.sprintf "int %s(int x) { return x; }" fn))

(* (cache hit, exported names) of an instantiation, and its entry's
   insertion number *)
let instantiate_lib s path =
  let r = Omos.Server.instantiate s (Omos.Server.library path) in
  let e = r.Omos.Server.built.Omos.Server.entry in
  ( (r.Omos.Server.cache_hit, List.sort compare (List.map fst e.Omos.Cache.image.Linker.Image.symtab)),
    e.Omos.Cache.seq )

let hit_and_symtab = Alcotest.(pair bool (list string))

(* A fragment rebound under a library's unchanged text: the library
   misses and builds what the path holds now, re-registering the same
   text hits that image, and rebinding the path back to a
   content-identical object hits the image first built from it. *)
let test_cache_key_rebind () =
  let s = fresh_world () in
  let lib what expected =
    let got, seq = instantiate_lib s "/t/lib" in
    Alcotest.check hit_and_symtab what expected got;
    seq
  in
  bind_fn s "/t/f.o" "old_fn";
  Omos.Server.register_meta_source s "/t/lib" "(merge /t/f.o)";
  let first = lib "first build" (false, [ "old_fn" ]) in
  bind_fn s "/t/f.o" "new_fn";
  ignore (lib "the rebind misses" (false, [ "new_fn" ]));
  Omos.Server.register_meta_source s "/t/lib" "(merge /t/f.o)";
  ignore (lib "re-registered: a hit on the new image" (true, [ "new_fn" ]));
  bind_fn s "/t/f.o" "old_fn";
  Alcotest.(check int) "rebound back: a hit on the first image" first
    (lib "rebound back: a hit" (true, [ "old_fn" ]))

(* A library re-registered under another that merges it: the merging
   library misses and builds what its lint report predicts. *)
let test_cache_key_merged_edit () =
  let s = fresh_world () in
  List.iter (fun x -> bind_fn s (Printf.sprintf "/t/%s.o" x) (x ^ "_fn")) [ "a"; "b"; "c" ];
  Omos.Server.register_meta_source s "/t/inner" "(merge /t/a.o)";
  Omos.Server.register_meta_source s "/t/outer" "(merge /t/c.o /t/inner)";
  Alcotest.check hit_and_symtab "first build" (false, [ "a_fn"; "c_fn" ])
    (fst (instantiate_lib s "/t/outer"));
  Omos.Server.register_meta_source s "/t/inner" "(merge /t/b.o)";
  let predicted = (Option.get (Omos.Server.lint_report s "/t/outer")).Analysis.Lint.exports in
  Alcotest.(check (list string)) "lint predicts b_fn" [ "b_fn"; "c_fn" ] predicted;
  Alcotest.check hit_and_symtab "the merging library misses" (false, predicted)
    (fst (instantiate_lib s "/t/outer"))

(* A library registered before a path it names is bound: binding the
   path clears the report's E005 at once, and a build in between
   journals no E005. *)
let test_fresh_path_clears_unknown () =
  let s = fresh_world () in
  let e005 findings = List.exists (fun code -> code = "E005") findings in
  bind_fn s "/t/a.o" "a_fn";
  Omos.Server.register_meta_source s "/t/lib" "(merge /t/a.o /t/x.o)";
  let report () = Option.get (Omos.Server.lint_report s "/t/lib") in
  let codes () = List.map (fun f -> f.Analysis.Lint.code) (report ()).Analysis.Lint.findings in
  Alcotest.(check bool) "registered: E005" true (e005 (codes ()));
  bind_fn s "/t/x.o" "x_fn";
  Alcotest.(check bool) "bound: no E005" false (e005 (codes ()));
  Alcotest.(check (list string)) "exports" [ "a_fn"; "x_fn" ] (report ()).Analysis.Lint.exports;
  Telemetry.Provenance.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Telemetry.Provenance.set_enabled false) (fun () ->
        Omos.Server.instantiate s (Omos.Server.library "/t/lib"))
  in
  let e = r.Omos.Server.built.Omos.Server.entry in
  Alcotest.check hit_and_symtab "built" (false, [ "a_fn"; "x_fn" ])
    ( r.Omos.Server.cache_hit,
      List.sort compare (List.map fst e.Omos.Cache.image.Linker.Image.symtab) );
  let journal =
    match e.Omos.Cache.provenance with
    | Some p -> p.Telemetry.Provenance.p_events
    | None -> Alcotest.fail "no provenance"
  in
  Alcotest.(check bool) "journal: no E005" false
    (e005
       (List.filter_map
          (function Telemetry.Provenance.Lint { code; _ } -> Some code | _ -> None)
          journal))

let () =
  Alcotest.run "pipeline"
    [
      ( "api",
        [
          Alcotest.test_case "submit/await/poll" `Quick test_submit_await;
          Alcotest.test_case "sync wrapper" `Quick test_sync_wrapper_unchanged;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
          Alcotest.test_case "nested instantiate fails" `Quick
            test_nested_instantiate_fails;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch = serial solves" `Quick test_batch_equals_serial;
          Alcotest.test_case "mixed prefs" `Quick test_batch_mixed_prefs;
          Alcotest.test_case "batch_size histogram" `Quick test_batch_size_histogram;
          Alcotest.test_case "batch member attribution" `Quick
            test_batch_member_attribution;
          Alcotest.test_case "unbatched knob" `Quick test_unbatched_knob;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "overload + recovery" `Quick test_overload ] );
      ( "determinism",
        [
          Alcotest.test_case "concurrency=8 reproducible" `Quick
            test_concurrent_determinism;
          Alcotest.test_case "concurrent = serial results" `Quick
            test_concurrent_matches_serial;
          Alcotest.test_case "seeded interleaving" `Quick
            test_seeded_interleaving_reproducible;
        ] );
      ( "map keys",
        [
          Alcotest.test_case "lazy until mapped" `Quick test_map_key_lazy;
          Alcotest.test_case "one key per image" `Quick
            test_map_key_one_per_entry;
        ] );
      ( "cache keys",
        [
          Alcotest.test_case "parameters with commas" `Quick test_cache_key_commas;
          Alcotest.test_case "a rebind re-keys the library" `Quick test_cache_key_rebind;
          Alcotest.test_case "binding an unknown path clears its E005" `Quick
            test_fresh_path_clears_unknown;
          Alcotest.test_case "an edited library re-keys its merger" `Quick
            test_cache_key_merged_edit;
        ] );
    ]
