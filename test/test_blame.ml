(* Blame: critical-path exactness (path length == sim_us, categories
   partition sim_us), the queue/batch/coalesce response split, the
   Coalesced provenance event, and the deterministic what-if replay
   (baseline identity + batch-off counterfactual accuracy). *)

module S = Omos.Server
module B = Omos.Blame
module C = Telemetry.Causal
module Fz = Workloads.Fuzz

let fresh_world () =
  let w = Omos.World.create () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  C.set_enabled true;
  w.Omos.World.server

let close ?(eps = 1e-6) msg want got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: want %.9f got %.9f" msg want got)
    true
    (Float.abs (want -. got) <= eps)

(* The exactness invariant on every completed recorded request: the
   critical path tiles [submit, done) with no unattributed time, its
   length equals sim_us, and the blame categories partition sim_us. *)
let check_exactness (ctx : string) : B.path list =
  let ps = B.paths (C.requests ()) in
  List.iter
    (fun (p : B.path) ->
      let label fmt = Printf.sprintf "%s r%d: %s" ctx p.B.p_id fmt in
      (* contiguous tiling, by exact float equality: every boundary is
         a shared clock read *)
      let cursor = ref p.B.p_submit in
      List.iter
        (fun (s : B.slice) ->
          Alcotest.(check bool)
            (label "slices tile without gaps or overlap")
            true
            (s.B.s_from = !cursor && s.B.s_until >= s.B.s_from);
          cursor := s.B.s_until)
        p.B.p_slices;
      Alcotest.(check bool) (label "path ends at seal") true (!cursor = p.B.p_done);
      let len = List.fold_left (fun a s -> a +. B.slice_us s) 0.0 p.B.p_slices in
      close (label "critical-path length == sim_us") p.B.p_sim_us len;
      (* category sums partition sim_us *)
      let by_cat = Hashtbl.create 8 in
      List.iter
        (fun (s : B.slice) ->
          let k = B.category_label s.B.s_cat in
          Hashtbl.replace by_cat k
            ((try Hashtbl.find by_cat k with Not_found -> 0.0) +. B.slice_us s))
        p.B.p_slices;
      let cat_sum = Hashtbl.fold (fun _ v a -> a +. v) by_cat 0.0 in
      close (label "categories partition sim_us") p.B.p_sim_us cat_sum;
      List.iter
        (fun (s : B.slice) ->
          Alcotest.(check bool)
            (label "category is in the stable order")
            true
            (List.mem (B.category_label s.B.s_cat) B.category_order))
        p.B.p_slices)
    ps;
  ps

(* -- committed scenarios ---------------------------------------------------- *)

let test_serial_paths () =
  let s = fresh_world () in
  let r1 = S.instantiate s (S.library "/lib/libm") in
  let r2 = S.instantiate s (S.library "/lib/libm") in
  Alcotest.(check bool) "miss then hit" true
    ((not r1.S.cache_hit) && r2.S.cache_hit);
  let ps = check_exactness "serial" in
  Alcotest.(check int) "two paths" 2 (List.length ps);
  (* a serial request never waits on another: all wait is queue/sched
     dispatch, and the response split mirrors that *)
  List.iter
    (fun (r : S.response) ->
      close "no batch wait" 0.0 r.S.batch_us;
      close "no coalesce wait" 0.0 r.S.coalesce_us;
      close "split sums to the old queue_us" r.S.queue_us
        (r.S.queue_us +. r.S.batch_us +. r.S.coalesce_us))
    [ r1; r2 ]

let test_batched_burst_paths () =
  let s = fresh_world () in
  let libs = [ "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libal1" ] in
  let tks = List.map (fun l -> S.submit s (S.library l)) libs in
  S.drain s;
  let rs = List.map (S.await s) tks in
  let ps = check_exactness "batched burst" in
  Alcotest.(check int) "four paths" 4 (List.length ps);
  (* every member parked at the place barrier; the split agrees with
     the causal graph's non-self time *)
  List.iter2
    (fun (r : S.response) (p : B.path) ->
      Alcotest.(check bool) "batch wait recorded" true (r.S.batch_us >= 0.0);
      let wait =
        List.fold_left
          (fun a (s : B.slice) ->
            match s.B.s_cat with B.Self _ -> a | _ -> a +. B.slice_us s)
          0.0 p.B.p_slices
      in
      close "response split total == causal wait total"
        (r.S.queue_us +. r.S.batch_us +. r.S.coalesce_us)
        wait;
      (* the flush stamped its shared-solver share on every member, and
         the member's own wrap is at most the whole place interval *)
      Alcotest.(check bool) "batched member carries the solver share" true
        (p.B.p_solver_us > 0.0);
      let place =
        List.find
          (fun (s : B.slice) -> s.B.s_cat = B.Self "place")
          p.B.p_slices
      in
      Alcotest.(check bool) "wrap within the flush interval" true
        (place.B.s_self >= 0.0 && place.B.s_self <= B.slice_us place))
    rs ps

let test_coalesced_follower_split_and_provenance () =
  let s = fresh_world () in
  Telemetry.Provenance.set_enabled true;
  let t1 = S.submit s (S.library "/lib/libm") in
  let t2 = S.submit s (S.library "/lib/libm") in
  let t3 = S.submit s (S.library "/lib/libm") in
  let id1 = S.ticket_id t1 in
  S.drain s;
  let r1 = S.await s t1 and r2 = S.await s t2 and r3 = S.await s t3 in
  Telemetry.Provenance.set_enabled false;
  ignore (check_exactness "coalesced burst");
  Alcotest.(check bool) "followers hit" true (r2.S.cache_hit && r3.S.cache_hit);
  (* the followers' wait is now blamed on coalescing, not silently
     folded into queue_us-as-if-compute *)
  List.iter
    (fun (r : S.response) ->
      Alcotest.(check bool) "follower coalesce wait > 0" true
        (r.S.coalesce_us > 0.0);
      close "split still sums into sim_us bounds" r.S.sim_us
        ~eps:(Float.max 1e-6 r.S.sim_us)
        (r.S.queue_us +. r.S.batch_us +. r.S.coalesce_us))
    [ r2; r3 ];
  close "leader has no coalesce wait" 0.0 r1.S.coalesce_us;
  (* the leader's journal carries one Coalesced event per follower *)
  let prov =
    match r1.S.built.S.entry.Omos.Cache.provenance with
    | Some p -> p
    | None -> Alcotest.fail "leader entry has no provenance"
  in
  let coalesced =
    List.filter_map
      (function
        | Telemetry.Provenance.Coalesced { leader_request } ->
            Some leader_request
        | _ -> None)
      prov.Telemetry.Provenance.p_events
  in
  Alcotest.(check int) "two Coalesced events" 2 (List.length coalesced);
  List.iter
    (fun l -> Alcotest.(check int) "events name the leader ticket" id1 l)
    coalesced;
  (* the followers' causal waits point at the leader *)
  List.iter
    (fun tk ->
      match C.find (S.ticket_id tk) with
      | None -> Alcotest.fail "follower not recorded"
      | Some req ->
          Alcotest.(check bool) "coalesce wait edge names the leader" true
            (List.exists
               (fun (w : C.wait) -> w.w_kind = C.Coalesce && w.w_on = id1)
               req.C.g_waits))
    [ t2; t3 ]

(* -- what-if replay --------------------------------------------------------- *)

(* A small mixed scenario: two burst rounds over five metas with
   repeats, so the recording contains misses, hits, batching, and
   coalescing. Returns every response with its request id. *)
let mixed_responses (s : S.t) : (int * S.response) list =
  let round libs =
    let tks = List.map (fun l -> S.submit s (S.library l)) libs in
    S.drain s;
    List.map (fun tk -> (S.ticket_id tk, S.await s tk)) tks
  in
  round [ "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libm"; "/lib/libal1" ]
  @ round [ "/lib/libal2"; "/lib/libm"; "/lib/libl"; "/lib/libal2" ]

(* The scenario's total latency. *)
let mixed_scenario (s : S.t) : float =
  List.fold_left (fun a (_, r) -> a +. r.S.sim_us) 0.0 (mixed_responses s)

let test_whatif_baseline_identity () =
  let s = fresh_world () in
  let recorded_total = mixed_scenario s in
  let ps = check_exactness "mixed scenario" in
  let wi = B.what_if ps in
  Alcotest.(check string) "knob label" "baseline" wi.B.wi_knob;
  close "recorded total matches responses" recorded_total wi.B.wi_recorded_us
    ~eps:1e-3;
  (* the FIFO replay of the recorded graph reproduces every recorded
     latency: the model is the scheduler, not a heuristic *)
  List.iter
    (fun (id, rec_us, pred_us) ->
      close
        (Printf.sprintf "baseline replay reproduces r%d" id)
        rec_us pred_us
        ~eps:(1e-6 *. (1.0 +. rec_us)))
    wi.B.wi_per_request

let test_whatif_batch_off_accuracy () =
  (* record with batching on *)
  let s = fresh_world () in
  ignore (mixed_scenario s);
  let ps = B.paths (C.requests ()) in
  let wi = B.what_if ~knob:B.Batch_off ps in
  (* run the same scenario with batching actually disabled *)
  let s2 = fresh_world () in
  S.set_batch_placement s2 false;
  let actual_total = mixed_scenario s2 in
  let err =
    Float.abs (wi.B.wi_predicted_us -. actual_total)
    /. Float.max 1.0 actual_total
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "batch=off prediction within 5%% (predicted %.1f actual %.1f err %.3f)"
       wi.B.wi_predicted_us actual_total err)
    true (err <= 0.05)

let test_whatif_knob_parsing () =
  Alcotest.(check bool) "batch=off" true (B.knob_of_string "batch=off" = Some B.Batch_off);
  Alcotest.(check bool) "queue=inf" true (B.knob_of_string "queue=inf" = Some B.Queue_inf);
  Alcotest.(check bool) "coalesce=off" true
    (B.knob_of_string "coalesce=off" = Some B.Coalesce_off);
  Alcotest.(check bool) "garbage" true (B.knob_of_string "turbo=on" = None);
  (* queue=inf is the identity on a run that never overloaded *)
  let s = fresh_world () in
  ignore (mixed_scenario s);
  let ps = B.paths (C.requests ()) in
  let base = B.what_if ps in
  let qinf = B.what_if ~knob:B.Queue_inf ps in
  close "queue=inf == baseline" base.B.wi_predicted_us qinf.B.wi_predicted_us

let test_coalesce_off_rebuilds () =
  let s = fresh_world () in
  let tks =
    List.map (fun l -> S.submit s (S.library l))
      [ "/lib/libm"; "/lib/libm"; "/lib/libm" ]
  in
  S.drain s;
  List.iter (fun tk -> ignore (S.await s tk)) tks;
  let ps = B.paths (C.requests ()) in
  let base = B.what_if ps in
  let off = B.what_if ~knob:B.Coalesce_off ps in
  (* without coalescing every follower re-runs the leader's build work,
     so the predicted total grows *)
  Alcotest.(check bool)
    (Printf.sprintf "coalesce=off costs more (%.1f -> %.1f)"
       base.B.wi_predicted_us off.B.wi_predicted_us)
    true
    (off.B.wi_predicted_us > base.B.wi_predicted_us)

(* -- profile and folded stacks ---------------------------------------------- *)

let test_profile_partition_and_folded () =
  let s = fresh_world () in
  ignore (mixed_scenario s);
  let ps = B.paths (C.requests ()) in
  let prof = B.profile ps in
  Alcotest.(check int) "every request profiled" (List.length ps)
    prof.B.bp_requests;
  let cat_total =
    List.fold_left (fun a (_, st) -> a +. st.B.bs_total_us) 0.0
      prof.B.bp_categories
  in
  close "profile categories partition total sim_us" prof.B.bp_total_sim_us
    cat_total ~eps:1e-3;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "category %s present" k)
        true
        (List.mem_assoc k prof.B.bp_categories))
    B.category_order;
  let folded = B.folded ps in
  Alcotest.(check bool) "folded non-empty" true (folded <> []);
  let folded_total = List.fold_left (fun a (_, us) -> a +. us) 0.0 folded in
  close "folded stacks partition total sim_us" prof.B.bp_total_sim_us
    folded_total ~eps:1e-3;
  Alcotest.(check bool) "folded sorted by key" true
    (List.sort (fun (a, _) (b, _) -> compare a b) folded = folded)

(* -- recording is free and off by default ----------------------------------- *)

let test_recording_off_by_default_and_free () =
  (* the enabled flag survives Telemetry.reset by design (like the
     other telemetry switches), so turn it off explicitly: this test
     runs after tests that enabled it *)
  C.set_enabled false;
  let w = Omos.World.create () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let s = w.Omos.World.server in
  let off_total = mixed_scenario s in
  Alcotest.(check (list Alcotest.int)) "nothing recorded" []
    (List.map (fun (r : C.req) -> r.C.g_id) (C.requests ()));
  (* same scenario with recording on charges exactly the same simulated
     time: observation is free *)
  let s2 = fresh_world () in
  let on_total = mixed_scenario s2 in
  close "recording charges nothing" off_total on_total

(* -- the response split is the timeline ------------------------------------- *)

(* Every request records its timeline; retention only decides what
   [C.requests] returns. So the responses are the same with retention
   off and on, and each retained timeline folds back to its response's
   latency split, float for float. *)
let test_response_split_is_the_timeline () =
  let split (r : S.response) =
    let e = r.S.built.S.entry in
    ( (e.Omos.Cache.key, e.Omos.Cache.seq),
      r.S.cache_hit,
      (r.S.sim_us, r.S.queue_us, r.S.batch_us, r.S.coalesce_us) )
  in
  C.set_enabled false;
  let w = Omos.World.create () in
  Telemetry.reset ();
  let off = mixed_responses w.Omos.World.server in
  let on = mixed_responses (fresh_world ()) in
  Alcotest.(check bool) "retention leaves every response unchanged" true
    (List.map (fun (id, r) -> (id, split r)) off
    = List.map (fun (id, r) -> (id, split r)) on);
  Alcotest.(check int) "every request retained" (List.length on)
    (List.length (C.requests ()));
  Alcotest.(check bool) "the scenario batches and coalesces" true
    (List.exists (fun (_, r) -> r.S.coalesce_us > 0.0) on
    && List.exists
         (fun (tl : C.req) ->
           List.exists (fun (w : C.wait) -> w.C.w_kind = C.Batch) tl.C.g_waits)
         (C.requests ()));
  List.iter
    (fun (id, (r : S.response)) ->
      match C.find id with
      | None -> Alcotest.failf "request %d not retained" id
      | Some tl ->
          let total_wait = Float.max 0.0 (tl.C.g_sim_us -. C.work_us tl) in
          let coalesce = Float.min (C.waited_us tl C.Coalesce) total_wait in
          let batch =
            Float.min (C.waited_us tl C.Batch) (total_wait -. coalesce)
          in
          let exact what =
            Alcotest.(check (float 0.0)) (Printf.sprintf "r%d %s" id what)
          in
          exact "sim_us" r.S.sim_us tl.C.g_sim_us;
          exact "coalesce_us" r.S.coalesce_us coalesce;
          exact "batch_us" r.S.batch_us batch;
          exact "queue_us" r.S.queue_us (total_wait -. batch -. coalesce))
    on

(* -- fuzzed workloads (the 200+ cases of the acceptance criteria) ----------- *)

let run_fuzz_case ~(seed : int) ~(conc : int) ~(batch : bool) : unit =
  let case = Fz.generate ~max_modules:6 ~max_libs:3 ~seed () in
  let w = Omos.World.create () in
  (match Omos.Fuzzer.install case w with
  | () -> ()
  | exception _ -> raise Exit (* generator produced a non-compiling case *));
  let s = w.Omos.World.server in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  C.set_enabled true;
  S.set_batch_placement s batch;
  if conc > S.queue_limit s then S.set_queue_limit s conc;
  let libs = List.map Fz.lib_path case.Fz.f_libs in
  (* two rounds (misses then hits/coalesces), submitted in bursts of
     [conc]; broken libraries surface as await errors and simply don't
     produce a path *)
  let submit_burst burst =
    let tks =
      List.filter_map
        (fun l ->
          match S.submit s (S.library l) with
          | tk -> Some tk
          | exception _ -> None)
        burst
    in
    S.drain s;
    List.iter (fun tk -> match S.await s tk with _ -> () | exception _ -> ()) tks
  in
  let rec bursts = function
    | [] -> ()
    | libs ->
        let n = min conc (List.length libs) in
        let burst = List.filteri (fun i _ -> i < n) libs in
        let rest = List.filteri (fun i _ -> i >= n) libs in
        submit_burst burst;
        bursts rest
  in
  bursts (libs @ libs);
  ignore (check_exactness (Printf.sprintf "fuzz seed=%d conc=%d" seed conc))

let prop_fuzz_exactness =
  QCheck.Test.make ~name:"fuzzed workloads: critical path exactness"
    ~count:200
    (QCheck.make
       (QCheck.Gen.triple (QCheck.Gen.int_bound 10_000)
          (QCheck.Gen.oneofl [ 1; 2; 4; 8 ])
          QCheck.Gen.bool))
    (fun (seed, conc, batch) ->
      match run_fuzz_case ~seed:(seed + 1) ~conc ~batch with
      | () -> true
      | exception Exit -> QCheck.assume_fail ())

let () =
  Alcotest.run "blame"
    [
      ( "exactness",
        [
          Alcotest.test_case "serial paths" `Quick test_serial_paths;
          Alcotest.test_case "batched burst" `Quick test_batched_burst_paths;
          Alcotest.test_case "coalesced split + provenance" `Quick
            test_coalesced_follower_split_and_provenance;
          Alcotest.test_case "profile partition + folded" `Quick
            test_profile_partition_and_folded;
          Alcotest.test_case "recording off by default and free" `Quick
            test_recording_off_by_default_and_free;
          Alcotest.test_case "response split is the timeline" `Quick
            test_response_split_is_the_timeline;
        ] );
      ( "what-if",
        [
          Alcotest.test_case "baseline identity" `Quick
            test_whatif_baseline_identity;
          Alcotest.test_case "batch=off within 5%" `Quick
            test_whatif_batch_off_accuracy;
          Alcotest.test_case "knob parsing + queue=inf" `Quick
            test_whatif_knob_parsing;
          Alcotest.test_case "coalesce=off rebuilds" `Quick
            test_coalesce_off_rebuilds;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_fuzz_exactness ]);
    ]
