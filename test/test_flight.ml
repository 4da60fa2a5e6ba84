(* Flight recorder tests: ring semantics, zero-overhead appends,
   request-context attribution, and dump formats. *)

module F = Telemetry.Flight

let reset () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  F.set_auto_dump None;
  F.clear_context ()

(* -- ring ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  reset ();
  for i = 0 to 4999 do
    F.record ~value:(float_of_int i) F.Note "tick"
  done;
  Alcotest.(check int) "total" 5000 (F.total_recorded ());
  Alcotest.(check int) "retained" F.capacity (F.size ());
  let evs = F.events () in
  Alcotest.(check int) "events list" F.capacity (List.length evs);
  let first = List.hd evs and last = List.nth evs (F.capacity - 1) in
  Alcotest.(check int) "oldest seq" (5000 - F.capacity) first.F.seq;
  Alcotest.(check int) "newest seq" 4999 last.F.seq;
  (* slots really wrapped: the retained values match their seqs *)
  Alcotest.(check (float 0.0)) "oldest value" (float_of_int first.F.seq) first.F.value;
  Alcotest.(check (float 0.0)) "newest value" 4999.0 last.F.value;
  F.clear ();
  Alcotest.(check int) "cleared" 0 (F.size ())

(* -- no overhead beyond the ring slot -------------------------------------- *)

let test_append_adds_no_spans_or_counters () =
  reset ();
  Telemetry.set_enabled true;
  let c = Telemetry.Counter.make "flight.test.count" in
  let spans_before = List.length (Telemetry.spans ()) in
  let ring_before = F.total_recorded () in
  for _ = 1 to 100 do
    F.record F.Note "raw append"
  done;
  Alcotest.(check int) "ring grew" (ring_before + 100) (F.total_recorded ());
  Alcotest.(check int) "no spans created" spans_before
    (List.length (Telemetry.spans ()));
  Alcotest.(check int) "no counters bumped" 0 (Telemetry.Counter.value c);
  (* and the converse: metric writes land in the ring exactly once *)
  let ring_before = F.total_recorded () in
  Telemetry.Counter.incr c ~by:3;
  Telemetry.Gauge.set "flight.test.gauge" 1.5;
  Alcotest.(check int) "one ring event per write" (ring_before + 2)
    (F.total_recorded ());
  Alcotest.(check int) "counter value unaffected" 3 (Telemetry.Counter.value c)

let test_metrics_recorded_while_spans_disabled () =
  reset ();
  Telemetry.set_enabled false;
  let before = F.total_recorded () in
  Telemetry.with_span "off.span" (fun () -> ());
  Alcotest.(check int) "disabled spans stay out of the ring" before
    (F.total_recorded ());
  Telemetry.Counter.incr (Telemetry.Counter.make "flight.test.off");
  Alcotest.(check int) "counters still flow" (before + 1) (F.total_recorded ());
  Alcotest.(check int) "no completed spans" 0 (List.length (Telemetry.spans ()))

(* -- context --------------------------------------------------------------- *)

let test_context_attribution () =
  reset ();
  F.record F.Note "outside";
  F.set_context ~client:3 ~request:9;
  F.record F.Note "inside";
  F.clear_context ();
  F.record F.Note "after";
  match F.events () with
  | [ a; b; c ] ->
      Alcotest.(check (pair int int)) "outside" (-1, -1) (a.F.client, a.F.request);
      Alcotest.(check (pair int int)) "inside" (3, 9) (b.F.client, b.F.request);
      Alcotest.(check (pair int int)) "after" (-1, -1) (c.F.client, c.F.request)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_request_nesting_and_ids () =
  reset ();
  Telemetry.Request.set_client 7;
  Alcotest.(check int) "no request yet" (-1) (Telemetry.Request.current_request ());
  let outer = ref (-1) and inner = ref (-1) and inner_client = ref (-1) in
  Telemetry.Request.with_request "outer" (fun () ->
      outer := Telemetry.Request.current_request ();
      Alcotest.(check int) "ambient client inherited" 7
        (Telemetry.Request.current_client ());
      Telemetry.Request.with_request "inner" (fun () ->
          inner := Telemetry.Request.current_request ();
          inner_client := Telemetry.Request.current_client ());
      Alcotest.(check int) "outer restored" !outer
        (Telemetry.Request.current_request ()));
  Alcotest.(check bool) "ids monotonic" true (!inner > !outer);
  Alcotest.(check int) "nested inherits client" 7 !inner_client;
  Alcotest.(check int) "context cleared" (-1)
    (Telemetry.Request.current_request ());
  Alcotest.(check int) "last id" !inner (Telemetry.Request.last_id ());
  (* begin/end events landed in the ring with their own attribution *)
  let begins =
    List.filter (fun e -> e.F.kind = F.Request_begin) (F.events ())
  in
  Alcotest.(check int) "two begins" 2 (List.length begins);
  List.iter
    (fun e -> Alcotest.(check int) "begin carries client" 7 e.F.client)
    begins

(* A raise inside [within] reinstalls the context it replaced; a raise
   out of a request's body ends the request exactly once, under its own
   attribution, and leaves no context behind. *)
let test_within_restores_on_raise () =
  reset ();
  Telemetry.Request.set_client 4;
  let id = ref (-1) in
  (try
     Telemetry.Request.with_request "outer" (fun () ->
         id := Telemetry.Request.current_request ();
         (try
            Telemetry.Request.within ~client:9 ~id:99 (fun () ->
                Alcotest.(check (pair int int)) "within sets the context"
                  (9, 99)
                  ( Telemetry.Request.current_client (),
                    Telemetry.Request.current_request () );
                raise Exit)
          with Exit -> ());
         Alcotest.(check (pair int int)) "outer context back after the raise"
           (4, !id)
           ( Telemetry.Request.current_client (),
             Telemetry.Request.current_request () );
         raise Exit)
   with Exit -> ());
  Alcotest.(check (pair int int)) "no context left" (-1, -1)
    (Telemetry.Request.current_client (), Telemetry.Request.current_request ());
  match List.filter (fun e -> e.F.kind = F.Request_end) (F.events ()) with
  | [ e ] ->
      Alcotest.(check (pair int int)) "the end carries the request" (4, !id)
        (e.F.client, e.F.request);
      Alcotest.(check (float 0.0)) "the end names the request"
        (float_of_int !id) e.F.value
  | evs -> Alcotest.failf "expected one Request_end, got %d" (List.length evs)

(* -- dumps ----------------------------------------------------------------- *)

let test_dump_files_parse () =
  reset ();
  F.set_context ~client:1 ~request:4;
  F.record ~detail:"placed" F.Transition "/lib/libc";
  F.record_violation ~name:"overlap" ~detail:"0x1000..0x2000";
  F.clear_context ();
  let prefix = Filename.concat (Filename.get_temp_dir_name ()) "flight_test" in
  F.dump ~reason:"unit test" ~prefix;
  let read p =
    let ic = open_in p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let json = read (prefix ^ ".json") in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' json)
  in
  Alcotest.(check int) "header + 2 events" 3 (List.length lines);
  List.iter
    (fun l -> ignore (Telemetry.Json.parse l))
    lines;
  (match Telemetry.Json.parse (List.hd lines) with
  | j -> (
      match Telemetry.Json.member "reason" j with
      | Some (Telemetry.Json.Str r) ->
          Alcotest.(check string) "reason" "unit test" r
      | _ -> Alcotest.fail "header has no reason"));
  (match Telemetry.Json.parse (List.nth lines 2) with
  | j -> (
      match
        (Telemetry.Json.member "kind" j, Telemetry.Json.member "client" j)
      with
      | Some (Telemetry.Json.Str k), Some (Telemetry.Json.Num c) ->
          Alcotest.(check string) "violation kind" "violation" k;
          Alcotest.(check (float 0.0)) "violation client" 1.0 c
      | _ -> Alcotest.fail "event fields missing"));
  let txt = read (prefix ^ ".txt") in
  Alcotest.(check bool) "transcript header" true
    (String.length txt > 0 && String.get txt 0 = '#');
  Alcotest.(check bool) "transcript names the request" true
    (Astring.String.is_infix ~affix:"client=1 request=4" txt);
  Sys.remove (prefix ^ ".json");
  Sys.remove (prefix ^ ".txt")

let test_trip_auto_dump () =
  reset ();
  Alcotest.(check bool) "no auto prefix -> no dump" false
    (F.trip ~reason:"x" ());
  let prefix = Filename.concat (Filename.get_temp_dir_name ()) "flight_trip" in
  F.set_auto_dump (Some prefix);
  Alcotest.(check bool) "empty ring -> no dump" false (F.trip ~reason:"x" ());
  F.record F.Note "something";
  Alcotest.(check bool) "armed + non-empty -> dump" true (F.trip ~reason:"y" ());
  Alcotest.(check bool) "json written" true (Sys.file_exists (prefix ^ ".json"));
  Alcotest.(check bool) "txt written" true (Sys.file_exists (prefix ^ ".txt"));
  Sys.remove (prefix ^ ".json");
  Sys.remove (prefix ^ ".txt");
  F.set_auto_dump None

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "no span/counter overhead" `Quick
            test_append_adds_no_spans_or_counters;
          Alcotest.test_case "metrics while spans disabled" `Quick
            test_metrics_recorded_while_spans_disabled;
        ] );
      ( "context",
        [
          Alcotest.test_case "attribution" `Quick test_context_attribution;
          Alcotest.test_case "request nesting" `Quick
            test_request_nesting_and_ids;
          Alcotest.test_case "within restores on raise" `Quick
            test_within_restores_on_raise;
        ] );
      ( "dump",
        [
          Alcotest.test_case "files parse" `Quick test_dump_files_parse;
          Alcotest.test_case "trip" `Quick test_trip_auto_dump;
        ] );
    ]
