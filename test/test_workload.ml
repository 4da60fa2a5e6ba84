(* Workload driver tests: spec parsing, determinism, request-id
   threading, and fault runs tripping the flight recorder. *)

module W = Omos.Workload
module F = Telemetry.Flight

let small_spec = { W.default with W.requests = 15 }

let event_line (e : W.event) : string =
  Printf.sprintf "%d %d %s %s %s %.1f" e.W.w_req e.W.w_client e.W.w_op
    e.W.w_target
    (match e.W.w_hit with Some b -> string_of_bool b | None -> "-")
    e.W.w_cost_us

let test_two_runs_identical () =
  let r1 = W.run small_spec in
  let s1 = Telemetry.Health.snapshot () in
  let r2 = W.run small_spec in
  let s2 = Telemetry.Health.snapshot () in
  Alcotest.(check (list string))
    "event streams byte-identical"
    (List.map event_line r1) (List.map event_line r2);
  Alcotest.(check bool) "health snapshots identical" true (s1 = s2)

let test_request_ids_strictly_increase () =
  let evs = W.run small_spec in
  Alcotest.(check int) "one event per request" small_spec.W.requests
    (List.length evs);
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "strictly increasing" true (a.W.w_req < b.W.w_req);
        check rest
    | _ -> ()
  in
  check evs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "client in range" true
        (e.W.w_client >= 0 && e.W.w_client < small_spec.W.clients))
    evs

let test_spec_parse () =
  let s =
    W.parse
      "# scenario\nclients 4\nrequests 9\nseed 11\nmeta /demo/hello\n\
       meta /lib/libm\nmix instantiate=3 evict=1\nevict_bytes 128\n\
       fault_seed 5\nfault place_conflict 0.25\n"
  in
  Alcotest.(check int) "clients" 4 s.W.clients;
  Alcotest.(check int) "requests" 9 s.W.requests;
  Alcotest.(check int) "seed" 11 s.W.seed;
  Alcotest.(check (list string)) "metas" [ "/demo/hello"; "/lib/libm" ] s.W.metas;
  Alcotest.(check (list (pair string int)))
    "mix"
    [ ("instantiate", 3); ("evict", 1) ]
    s.W.mix;
  Alcotest.(check int) "evict_bytes" 128 s.W.evict_bytes;
  (match s.W.faults with
  | Some f ->
      Alcotest.(check int) "fault seed" 5 f.Omos.Residency.seed;
      Alcotest.(check (float 0.0)) "rate" 0.25 f.Omos.Residency.place_conflict
  | None -> Alcotest.fail "faults expected");
  let d = W.parse "" in
  Alcotest.(check bool) "empty spec = default" true (d = W.default)

(* Every rejection pins its exact message: error text is part of the
   spec-language surface (scripts grep it, the fuzzer replays it). *)
let test_spec_errors () =
  let expect_error text msg =
    try
      ignore (W.parse text);
      Alcotest.failf "accepted: %s" text
    with W.Spec_error m -> Alcotest.(check string) "message" msg m
  in
  expect_error "clientz 3\n" "line 1: unknown directive: clientz";
  expect_error "clients many\n" "line 1: clients: not an integer: many";
  expect_error "clients 0\n" "clients must be >= 1";
  expect_error "requests -1\n" "requests must be >= 0";
  expect_error "concurrency 0\n" "concurrency must be >= 1";
  expect_error "mix instantiate=0\n"
    "line 1: mix weight must be positive: instantiate=0";
  expect_error "mix frobnicate=2\n" "line 1: unknown op in mix: frobnicate";
  expect_error "mix instantiate\n"
    "line 1: mix entries are op=weight, got: instantiate";
  expect_error "fault gamma 0.5\n" "line 1: unknown fault: gamma";
  expect_error "fault place_conflict often\n"
    "line 1: fault rate: not a number: often";
  (* validation gaps closed by the fuzzer PR: out-of-range fault
     rates, negative eviction budgets, duplicate mix ops, and a second
     mix line were all silently accepted before *)
  expect_error "fault place_conflict 1.5\n"
    "line 1: fault rate must be in [0,1]: 1.5";
  expect_error "fault evict_storm -0.1\n"
    "line 1: fault rate must be in [0,1]: -0.1";
  expect_error "fault reserve_fail 2\n" "line 1: fault rate must be in [0,1]: 2";
  expect_error "evict_bytes -5\n" "line 1: evict_bytes must be >= 0: -5";
  expect_error "mix instantiate=2 instantiate=1\n"
    "line 1: duplicate op in mix: instantiate";
  expect_error "clients 2\nmix instantiate=2\nmix evict=1\n"
    "line 3: duplicate mix line (mix may appear once)"

(* The run must never *lower* a configured admission limit, and must
   restore it afterwards — a scenario that silently widened the queue
   masked Overload in fault runs. *)
let test_queue_limit_preserved () =
  let captured = ref None in
  let spec =
    { small_spec with W.requests = 8; W.concurrency = 4; W.mix = [ ("instantiate", 1) ] }
  in
  (* configured limit below the pipeline depth: raised for the run,
     restored after *)
  let setup w =
    let s = w.Omos.World.server in
    captured := Some s;
    Omos.Server.set_queue_limit s 2
  in
  ignore (W.run ~setup spec);
  (match !captured with
  | Some s -> Alcotest.(check int) "restored" 2 (Omos.Server.queue_limit s)
  | None -> Alcotest.fail "setup did not run");
  (* configured limit above the pipeline depth: never touched *)
  let setup w =
    let s = w.Omos.World.server in
    captured := Some s;
    Omos.Server.set_queue_limit s 100
  in
  ignore (W.run ~setup spec);
  match !captured with
  | Some s -> Alcotest.(check int) "untouched" 100 (Omos.Server.queue_limit s)
  | None -> Alcotest.fail "setup did not run"

(* A run records spans, then leaves the switch as it found it, on
   return and on raise: whatever the process does next records no
   spans it did not ask for. *)
let test_recording_restored () =
  let captured = ref None in
  let setup w = captured := Some w.Omos.World.server in
  let spec = { small_spec with W.requests = 4 } in
  Telemetry.set_enabled false;
  ignore (W.run ~setup spec);
  Alcotest.(check bool) "recorded during the run" true (Telemetry.spans () <> []);
  Alcotest.(check bool) "off again" false (Telemetry.is_enabled ());
  (match !captured with
  | Some s ->
      Telemetry.reset ();
      ignore (Omos.Server.instantiate s (Omos.Server.library "/lib/libm"));
      Alcotest.(check int) "no span after the run" 0 (List.length (Telemetry.spans ()))
  | None -> Alcotest.fail "setup did not run");
  (try
     ignore (W.run ~on_event:(fun _ -> raise Exit) spec);
     Alcotest.fail "on_event's raise was swallowed"
   with Exit -> ());
  Alcotest.(check bool) "off after a raise" false (Telemetry.is_enabled ());
  Telemetry.set_enabled true;
  ignore (W.run spec);
  Alcotest.(check bool) "on stays on" true (Telemetry.is_enabled ());
  Telemetry.set_enabled false

let test_fault_run_trips_flight_dump () =
  let prefix =
    Filename.concat (Filename.get_temp_dir_name ()) "workload_fault_flight"
  in
  List.iter
    (fun ext -> if Sys.file_exists (prefix ^ ext) then Sys.remove (prefix ^ ext))
    [ ".json"; ".txt" ];
  F.set_auto_dump (Some prefix);
  let spec =
    {
      small_spec with
      W.requests = 20;
      W.faults =
        Some
          {
            Omos.Residency.no_faults with
            Omos.Residency.seed = 11;
            place_conflict = 0.6;
            evict_storm = 0.3;
          };
    }
  in
  ignore (W.run spec);
  F.set_auto_dump None;
  Alcotest.(check bool) "json dumped" true (Sys.file_exists (prefix ^ ".json"));
  Alcotest.(check bool) "txt dumped" true (Sys.file_exists (prefix ^ ".txt"));
  (* the recorded faults are attributed to a live (client, request) *)
  let faults = List.filter (fun e -> e.F.kind = F.Fault) (F.events ()) in
  Alcotest.(check bool) "faults fired" true (faults <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "fault names its client" true (e.F.client >= 0);
      Alcotest.(check bool) "fault names its request" true (e.F.request >= 0))
    faults;
  Sys.remove (prefix ^ ".json");
  Sys.remove (prefix ^ ".txt")

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "errors" `Quick test_spec_errors;
        ] );
      ( "run",
        [
          Alcotest.test_case "deterministic" `Quick test_two_runs_identical;
          Alcotest.test_case "request ids" `Quick
            test_request_ids_strictly_increase;
          Alcotest.test_case "queue limit preserved" `Quick
            test_queue_limit_preserved;
          Alcotest.test_case "span recording restored" `Quick
            test_recording_restored;
          Alcotest.test_case "fault trips dump" `Quick
            test_fault_run_trips_flight_dump;
        ] );
    ]
