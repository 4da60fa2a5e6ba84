(* The observability layer: the binding journal attached to cache
   entries, the simulated-cost profiler, and the percentile/exporter
   additions — the acceptance tests of the provenance work. *)

module T = Telemetry

let world () =
  let w = Omos.World.create () in
  (* world construction does no instantiation work; start the journal
     and the metrics from zero *)
  T.reset ();
  w

let provenance_of (resp : Omos.Server.response) : T.Provenance.t =
  match resp.Omos.Server.built.Omos.Server.entry.Omos.Cache.provenance with
  | Some p -> p
  | None -> Alcotest.fail "no provenance on cache entry"

(* -- the binding journal ---------------------------------------------------- *)

(* /demo/hello is (rename "^greet$" "hello" (override /demo/base.o
   /demo/impl.o)): the journal must name the interposition winner, the
   loser, and the operator chain, and a query for the exported name
   must follow the rename back to the decisions made under "greet". *)
let test_override_rename_chain () =
  let w = world () in
  let s = w.Omos.World.server in
  T.Provenance.set_enabled true;
  let resp = Omos.Server.instantiate s (Omos.Server.library "/demo/hello") in
  T.Provenance.set_enabled false;
  Alcotest.(check bool) "cold build" false resp.Omos.Server.cache_hit;
  let prov = provenance_of resp in
  Alcotest.(check bool) "override in operator chain" true
    (List.mem "override" prov.T.Provenance.p_ops);
  Alcotest.(check bool) "rename in operator chain" true
    (List.mem "rename" prov.T.Provenance.p_ops);
  let evs = T.Provenance.events_for prov "hello" in
  (match
     List.find_map
       (function
         | T.Provenance.Interpose { symbol; winner; loser; how } ->
             Some (symbol, winner, loser, how)
         | _ -> None)
       evs
   with
  | Some (symbol, winner, loser, how) ->
      Alcotest.(check string) "interposed symbol" "greet" symbol;
      Alcotest.(check string) "winning definition" "/demo/impl.o" winner;
      Alcotest.(check string) "losing definition" "/demo/base.o" loser;
      Alcotest.(check string) "interposing operator" "override" how
  | None -> Alcotest.fail "no interposition surfaced for hello");
  Alcotest.(check bool) "rename recorded with the prior name" true
    (List.exists
       (function
         | T.Provenance.Sym { op = "rename"; symbol = "hello"; prior = Some "greet"; _ }
           ->
             true
         | _ -> false)
       evs);
  Alcotest.(check bool) "final binding comes from the winner" true
    (List.exists
       (function
         | T.Provenance.Bind { symbol = "hello"; frag = "/demo/impl.o"; _ } -> true
         | _ -> false)
       evs)

(* A hit serves the stored record: no relink, no link-phase spans, the
   very same provenance value the cold build captured. *)
let test_cache_hit_serves_provenance () =
  let w = world () in
  let s = w.Omos.World.server in
  T.Provenance.set_enabled true;
  let cold = Omos.Server.instantiate s (Omos.Server.library "/demo/hello") in
  let cold_prov = provenance_of cold in
  let cold_digest = T.Provenance.digest cold_prov in
  (* zero every counter and span; the warm request must add none back *)
  T.reset ();
  T.set_enabled true;
  let warm = Omos.Server.instantiate s (Omos.Server.library "/demo/hello") in
  T.set_enabled false;
  T.Provenance.set_enabled false;
  Alcotest.(check bool) "warm hit" true warm.Omos.Server.cache_hit;
  Alcotest.(check int) "no links performed" 0 (T.Counter.get "linker.links");
  Alcotest.(check int) "no link-phase spans" 0
    (List.length
       (List.filter
          (fun (sp : T.span) -> sp.T.name = "linker.link" || sp.T.name = "server.link")
          (T.spans ())));
  let warm_prov = provenance_of warm in
  Alcotest.(check bool) "the stored record itself, not a rebuild" true
    (warm_prov == cold_prov);
  Alcotest.(check string) "digest stable across the hit" cold_digest
    (T.Provenance.digest warm_prov)

(* Eviction leaves its mark in the residency transitions. *)
let test_residency_transitions () =
  let w = world () in
  let s = w.Omos.World.server in
  T.Provenance.set_enabled true;
  let b = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  let prov = provenance_of b in
  ignore (Omos.Server.evict_to_budget s ~bytes:0);
  T.Provenance.set_enabled false;
  let states = List.map snd prov.T.Provenance.p_transitions in
  Alcotest.(check bool) "placed then evicted" true
    (List.mem "placed" states && List.mem "evicted" states)

(* Bench snapshots carry construction digests. *)
let test_built_digests () =
  let w = world () in
  let s = w.Omos.World.server in
  T.Provenance.set_enabled true;
  ignore (Omos.Server.instantiate s (Omos.Server.library "/demo/hello"));
  ignore (Omos.Server.instantiate s (Omos.Server.library "/lib/libc"));
  T.Provenance.set_enabled false;
  let digests = T.Provenance.built_digests () in
  Alcotest.(check (list string)) "owners recorded, sorted"
    [ "/demo/hello"; "/lib/libc" ]
    (List.map fst digests);
  List.iter
    (fun (_, d) -> Alcotest.(check int) "hex digest" 32 (String.length d))
    digests

(* -- the simulated-cost profiler -------------------------------------------- *)

let test_profile_folded_sums_and_attribution () =
  let w = world () in
  let s = w.Omos.World.server in
  let k = Omos.Server.kernel s in
  T.set_enabled true;
  let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
  T.with_span "prof.root" (fun () ->
      let resp = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
      let p = Simos.Kernel.create_process k ~args:[ "prof" ] in
      Omos.Server.map_into s p resp.Omos.Server.built);
  T.set_enabled false;
  let total = T.Profile.total () in
  let folded_sum =
    List.fold_left (fun a (_, v) -> a +. v) 0.0 (T.Profile.folded ())
  in
  Alcotest.(check bool) "workload charged something" true (total > 0.0);
  Alcotest.(check (float 0.001)) "folded stacks sum to the total charged cost"
    total folded_sum;
  let _, _, elapsed = Simos.Clock.since k.Simos.Kernel.clock snap in
  Alcotest.(check (float 0.001)) "profiler total equals the clock delta" elapsed
    total;
  (* >= 95% of the cost lands under a named phase span (depth >= 2:
     root;phase;...), not just at the request root or unattributed *)
  let phased =
    List.fold_left
      (fun a (path, v) -> if String.contains path ';' then a +. v else a)
      0.0 (T.Profile.folded ())
  in
  Alcotest.(check bool) "per-operator attribution >= 95%" true
    (phased >= 0.95 *. total)

let test_profile_unattributed_and_disabled () =
  T.reset ();
  T.set_enabled true;
  T.Profile.charge T.Profile.User 7.0;
  T.with_span "phase" (fun () -> T.Profile.charge T.Profile.System 5.0);
  T.set_enabled false;
  T.Profile.charge T.Profile.Io 100.0;
  Alcotest.(check (float 0.001)) "disabled charges are dropped" 12.0
    (T.Profile.total ());
  Alcotest.(check bool) "outside-span charge lands under (unattributed)" true
    (List.mem_assoc "(unattributed)" (T.Profile.folded ()));
  let rows = T.Profile.rows () in
  let _, _, sys, _ = List.find (fun (path, _, _, _) -> path = "phase") rows in
  Alcotest.(check (float 0.001)) "kind split preserved" 5.0 sys

(* A charge lands on the innermost open span's path, the same after a
   sibling closed; with recording off it is dropped, spans open or
   not. *)
let test_profile_innermost_path () =
  T.reset ();
  T.set_enabled true;
  T.with_span "req" (fun () ->
      T.with_span "eval" (fun () ->
          T.with_span "merge" (fun () -> T.Profile.charge T.Profile.User 3.0);
          T.Profile.charge T.Profile.User 2.0);
      T.Profile.charge T.Profile.Io 1.0;
      T.with_span "link" (fun () ->
          T.Profile.charge T.Profile.System 4.0;
          T.set_enabled false;
          T.Profile.charge T.Profile.System 50.0;
          T.set_enabled true));
  T.set_enabled false;
  Alcotest.(check (list (pair string (float 0.001))))
    "one row per innermost path"
    [ ("req", 1.0); ("req;eval", 2.0); ("req;eval;merge", 3.0); ("req;link", 4.0) ]
    (T.Profile.folded ())

(* -- percentiles ------------------------------------------------------------- *)

let test_histogram_percentiles () =
  T.reset ();
  let h = T.Histogram.make "ztest.us.pctl" in
  for v = 1 to 100 do
    T.Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check (float 0.001)) "p50" 50.0 (T.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.001)) "p95" 95.0 (T.Histogram.percentile h 95.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (T.Histogram.percentile h 99.0);
  Alcotest.(check (float 0.001)) "p100" 100.0 (T.Histogram.percentile h 100.0);
  (* the metrics exporter carries the same percentiles *)
  let j = T.Json.parse (T.Export.metrics_json ()) in
  (match
     Option.bind
       (Option.bind (T.Json.member "histograms" j) (T.Json.member "ztest.us.pctl"))
       (T.Json.member "p95")
   with
  | Some (T.Json.Num v) -> Alcotest.(check (float 0.001)) "metrics p95" 95.0 v
  | _ -> Alcotest.fail "metrics_json histogram lacks p95");
  (* deterministic reservoir: the same observation stream always yields
     the same percentiles, even past the reservoir size *)
  let obs n seed_name =
    let h = T.Histogram.make seed_name in
    for v = 1 to n do
      T.Histogram.observe h (float_of_int (((v * 7919) mod 1000) + 1))
    done;
    (T.Histogram.percentile h 50.0, T.Histogram.percentile h 99.0)
  in
  let a = obs 5000 "ztest.us.stream_a" in
  T.reset ();
  let b = obs 5000 "ztest.us.stream_a" in
  Alcotest.(check (pair (float 0.001) (float 0.001)))
    "reservoir replacement is deterministic" a b

(* A stage installs its build's frame only while it runs: a stage that
   raises must not leave the frame catching records made outside any
   build, and a nested install hands back the outer frame. *)
let test_with_frame_restores () =
  T.reset ();
  T.Provenance.set_enabled true;
  let capture f =
    T.Provenance.capture f ~key:"k" ~text_base:0 ~data_base:0 ~placement:""
      ~generation:0
  in
  let failed = T.Provenance.open_frame () in
  (try
     T.Provenance.with_frame failed (fun () ->
         T.Provenance.record_op ~op:"inside" ~detail:"";
         raise Exit)
   with Exit -> ());
  T.Provenance.record_op ~op:"outside" ~detail:"";
  let outer = T.Provenance.open_frame () and inner = T.Provenance.open_frame () in
  T.Provenance.with_frame outer (fun () ->
      (try T.Provenance.with_frame inner (fun () -> raise Exit) with Exit -> ());
      T.Provenance.record_op ~op:"after" ~detail:"");
  T.Provenance.set_enabled false;
  Alcotest.(check (list string)) "raising body's frame closed" [ "inside" ]
    (capture failed).T.Provenance.p_ops;
  Alcotest.(check (list string)) "outer frame reinstalled" [ "after" ]
    (capture outer).T.Provenance.p_ops;
  Alcotest.(check (list string)) "inner frame untouched" []
    (capture inner).T.Provenance.p_ops

let () =
  Alcotest.run "provenance"
    [
      ( "journal",
        [
          Alcotest.test_case "override + rename chain" `Quick
            test_override_rename_chain;
          Alcotest.test_case "cache hit serves stored record" `Quick
            test_cache_hit_serves_provenance;
          Alcotest.test_case "residency transitions" `Quick
            test_residency_transitions;
          Alcotest.test_case "built digests" `Quick test_built_digests;
          Alcotest.test_case "with_frame restores on raise" `Quick
            test_with_frame_restores;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "folded sums and attribution" `Quick
            test_profile_folded_sums_and_attribution;
          Alcotest.test_case "unattributed and disabled charges" `Quick
            test_profile_unattributed_and_disabled;
          Alcotest.test_case "charges the innermost span's path" `Quick
            test_profile_innermost_path;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "histogram and exporters" `Quick test_histogram_percentiles ] );
    ]
