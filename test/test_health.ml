(* Health window and SLO gate tests. *)

module H = Telemetry.Health

let reset () = Telemetry.reset ()

let test_empty_snapshot () =
  reset ();
  let s = H.snapshot () in
  Alcotest.(check int) "requests" 0 s.H.requests;
  Alcotest.(check int) "window" 0 s.H.window;
  Alcotest.(check (float 0.0)) "hit ratio defaults high" 1.0 s.H.hit_ratio;
  Alcotest.(check (float 0.0)) "p95" 0.0 s.H.p95_us

let test_basic_stats () =
  reset ();
  H.record ~hit:false ~cost_us:100.0 ();
  H.record ~hit:true ~cost_us:0.0 ();
  H.record ~hit:true ~cost_us:0.0 ();
  H.record ~hit:false ~cost_us:300.0 ();
  let s = H.snapshot () in
  Alcotest.(check int) "requests" 4 s.H.requests;
  Alcotest.(check int) "window" 4 s.H.window;
  Alcotest.(check (float 1e-6)) "hit ratio" 0.5 s.H.hit_ratio;
  Alcotest.(check (float 1e-6)) "mean" 100.0 s.H.mean_us;
  Alcotest.(check (float 1e-6)) "max" 300.0 s.H.max_us;
  Alcotest.(check (float 1e-6)) "p99 = max" 300.0 s.H.p99_us;
  Alcotest.(check (float 1e-6)) "p50" 0.0 s.H.p50_us

let test_window_rolls () =
  reset ();
  (* 300 misses at 10us, then window_cap hits at 1us: the window only
     sees the recent hits *)
  for _ = 1 to 300 do
    H.record ~hit:false ~cost_us:10.0 ()
  done;
  for _ = 1 to H.window_cap do
    H.record ~hit:true ~cost_us:1.0 ()
  done;
  let s = H.snapshot () in
  Alcotest.(check int) "requests counts all" (300 + H.window_cap) s.H.requests;
  Alcotest.(check int) "window capped" H.window_cap s.H.window;
  Alcotest.(check (float 1e-6)) "window all hits" 1.0 s.H.hit_ratio;
  Alcotest.(check (float 1e-6)) "window costs" 1.0 s.H.max_us

let test_conflict_rate_from_counter () =
  reset ();
  let c = Telemetry.Counter.make "server.arena_conflicts" in
  H.record ~hit:true ~cost_us:1.0 ();
  Telemetry.Counter.incr c;
  H.record ~hit:true ~cost_us:1.0 ();
  Telemetry.Counter.incr c;
  H.record ~hit:true ~cost_us:1.0 ();
  H.record ~hit:true ~cost_us:1.0 ();
  let s = H.snapshot () in
  (* 2 conflicts across a 4-request window *)
  Alcotest.(check (float 1e-6)) "conflict rate" 0.5 s.H.conflict_rate;
  Alcotest.(check (float 1e-6)) "violation rate" 0.0 s.H.violation_rate

(* The parsed bounds, read back through [check] as (key, bound) rows. *)
let bounds slo =
  reset ();
  List.map (fun (k, b, _, _) -> (k, b)) (H.check slo (H.snapshot ()))

let test_parse_slo () =
  let slo =
    H.parse_slo
      "# comment\nhit_ratio_min 0.5\np95_us_max 200\np99_us_max 400\n\
       conflict_rate_max 0.1\nviolation_rate_max 0\n"
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "every bound parsed"
    [
      ("hit_ratio_min", 0.5);
      ("p95_us_max", 200.0);
      ("p99_us_max", 400.0);
      ("conflict_rate_max", 0.1);
      ("violation_rate_max", 0.0);
    ]
    (bounds slo);
  (* rows follow the key table's order, whatever the file's; a key
     given twice keeps its last value *)
  Alcotest.(check (list (pair string (float 0.0))))
    "all ten keys, in order"
    [
      ("hit_ratio_min", 0.9);
      ("p95_us_max", 1.0);
      ("p99_us_max", 2.0);
      ("conflict_rate_max", 3.0);
      ("violation_rate_max", 4.0);
      ("queue_depth_max", 5.0);
      ("headroom_pages_max", 6.0);
      ("hot_churn_max", 7.0);
      ("wait_frac_max", 8.0);
      ("wait_frac_p95_max", 9.0);
    ]
    (bounds
       (H.parse_slo
          "wait_frac_p95_max 9\nwait_frac_max 8\nhot_churn_max 7\n\
           headroom_pages_max 6\nqueue_depth_max 5\nviolation_rate_max 4\n\
           conflict_rate_max 3\np99_us_max 2\np95_us_max 1\n\
           hit_ratio_min 0.1 # superseded\nhit_ratio_min 0.9\n"));
  let empty = H.parse_slo "# only comments\n" in
  Alcotest.(check int) "all optional" 0 (List.length (bounds empty));
  (try
     ignore (H.parse_slo "p95_us_maximum 5\n");
     Alcotest.fail "unknown key accepted"
   with H.Slo_error _ -> ());
  try
    ignore (H.parse_slo "p95_us_max banana\n");
    Alcotest.fail "bad value accepted"
  with H.Slo_error _ -> ()

let test_check_and_ok () =
  reset ();
  H.record ~hit:true ~cost_us:10.0 ();
  H.record ~hit:false ~cost_us:500.0 ();
  let snap = H.snapshot () in
  let pass = H.parse_slo "hit_ratio_min 0.3\np95_us_max 1000\n" in
  let checks = H.check pass snap in
  Alcotest.(check int) "one row per bound" 2 (List.length checks);
  Alcotest.(check bool) "passes" true (H.ok checks);
  let fail = H.parse_slo "hit_ratio_min 0.9\np95_us_max 1000\n" in
  let checks = H.check fail snap in
  Alcotest.(check bool) "fails" false (H.ok checks);
  let bad =
    List.filter (fun (_, _, _, ok) -> not ok) checks |> List.map (fun (n, _, _, _) -> n)
  in
  Alcotest.(check (list string)) "the breached bound" [ "hit_ratio_min" ] bad;
  (* lower bound on the hit ratio, upper bounds elsewhere: each side
     passes at equality *)
  let edge = H.parse_slo "hit_ratio_min 0.5\np95_us_max 500\np99_us_max 499\n" in
  Alcotest.(check (list (pair string bool)))
    "bound sides"
    [ ("hit_ratio_min", true); ("p95_us_max", true); ("p99_us_max", false) ]
    (List.map (fun (n, _, _, ok) -> (n, ok)) (H.check edge snap))

let () =
  Alcotest.run "health"
    [
      ( "window",
        [
          Alcotest.test_case "empty" `Quick test_empty_snapshot;
          Alcotest.test_case "basic stats" `Quick test_basic_stats;
          Alcotest.test_case "rolls over" `Quick test_window_rolls;
          Alcotest.test_case "conflict rate" `Quick
            test_conflict_rate_from_counter;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick test_parse_slo;
          Alcotest.test_case "check" `Quick test_check_and_ok;
        ] );
    ]
