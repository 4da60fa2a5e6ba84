(* The telemetry subsystem: span nesting, metric semantics, reset
   behaviour, and exporter round-trips through the built-in JSON
   parser. *)

module T = Telemetry

(* A fake clock the tests can step manually. *)
let now = ref 0.0
let install_clock () = T.set_clock (fun () -> !now)
let tick us = now := !now +. us

let fresh () =
  install_clock ();
  now := 0.0;
  T.reset ();
  T.set_enabled true

(* -- spans ----------------------------------------------------------------- *)

let test_span_nesting () =
  fresh ();
  T.with_span "a" (fun () ->
      tick 10.0;
      T.with_span "b" (fun () ->
          tick 5.0;
          T.with_span "c" (fun () -> tick 1.0));
      tick 4.0);
  let spans = T.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find n = List.find (fun (s : T.span) -> s.T.name = n) spans in
  let sa = find "a" and sb = find "b" and sc = find "c" in
  Alcotest.(check int) "a is a root" (-1) sa.T.parent;
  Alcotest.(check int) "b under a" sa.T.id sb.T.parent;
  Alcotest.(check int) "c under b" sb.T.id sc.T.parent;
  Alcotest.(check int) "depths" 2 sc.T.depth;
  Alcotest.(check (float 0.001)) "a start" 0.0 sa.T.start_us;
  Alcotest.(check (float 0.001)) "a duration" 20.0 (sa.T.end_us -. sa.T.start_us);
  Alcotest.(check (float 0.001)) "b duration" 6.0 (sb.T.end_us -. sb.T.start_us)

let test_span_disabled () =
  fresh ();
  T.set_enabled false;
  T.with_span "ghost" (fun () -> T.add_attr "k" (T.I 1));
  Alcotest.(check int) "nothing recorded" 0 (List.length (T.spans ()));
  T.set_enabled true

(* While recording is off, with_span is a direct call: it allocates no
   option, no closure and no exception handler record of its own. *)
let test_span_disabled_allocates_nothing () =
  fresh ();
  T.set_enabled false;
  let n = ref 0 in
  let body () = incr n in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.with_span "ghost" body
  done;
  let w1 = Gc.minor_words () in
  T.set_enabled true;
  Alcotest.(check int) "every body ran" 10_000 !n;
  Alcotest.(check (float 0.0)) "no words allocated" 0.0 (w1 -. w0)

let test_span_exception_unwind () =
  fresh ();
  (try
     T.with_span "outer" ~attrs:[ ("k", T.I 1) ] (fun () ->
         T.with_span "inner" (fun () ->
             T.add_attr "seen" (T.B true);
             tick 2.0;
             failwith "boom"))
   with Failure _ -> ());
  (* both spans closed on the way out, inner first, and each kept its
     attributes *)
  match T.spans () with
  | [ inner; outer ] ->
      Alcotest.(check (list string)) "names" [ "inner"; "outer" ]
        [ inner.T.name; outer.T.name ];
      Alcotest.(check bool) "inner closed" false (Float.is_nan inner.T.end_us);
      Alcotest.(check bool) "outer closed" false (Float.is_nan outer.T.end_us);
      Alcotest.(check (float 0.001)) "outer lasted the raise" 2.0
        (outer.T.end_us -. outer.T.start_us);
      Alcotest.(check bool) "inner attribute" true
        (inner.T.attrs = [ ("seen", T.B true) ]);
      Alcotest.(check bool) "outer attribute" true (outer.T.attrs = [ ("k", T.I 1) ])
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

(* Entry attributes, then the live request's client and request, then
   add_attr's; add_attr after a child closed lands on the parent. *)
let test_span_attrs () =
  fresh ();
  T.Request.within ~client:3 ~id:9 (fun () ->
      T.with_span "x" ~attrs:[ ("k", T.I 1) ] (fun () ->
          T.with_span "child" (fun () -> T.add_attr "inner" (T.I 2));
          T.add_attr "later" (T.S "v")));
  match List.filter (fun (s : T.span) -> s.T.name = "x") (T.spans ()) with
  | [ sp ] ->
      Alcotest.(check (list string)) "attribute order"
        [ "k"; "client"; "request"; "later" ]
        (List.map fst sp.T.attrs);
      Alcotest.(check bool) "values" true
        (sp.T.attrs
        = [ ("k", T.I 1); ("client", T.I 3); ("request", T.I 9); ("later", T.S "v") ])
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* -- counters / gauges / histograms ---------------------------------------- *)

let test_counter () =
  fresh ();
  let c = T.Counter.make "t.c" in
  let c' = T.Counter.make "t.c" in
  T.Counter.incr c;
  T.Counter.incr c' ~by:4;
  Alcotest.(check int) "interned: same counter" 5 (T.Counter.value c);
  Alcotest.(check int) "get by name" 5 (T.Counter.get "t.c");
  Alcotest.(check int) "unknown name is 0" 0 (T.Counter.get "t.none")

let test_histogram () =
  fresh ();
  let h = T.Histogram.make "t.h" in
  List.iter (T.Histogram.observe h) [ 2.0; 8.0; 5.0 ];
  Alcotest.(check int) "count" 3 (T.Histogram.count h);
  Alcotest.(check (float 0.001)) "sum" 15.0 (T.Histogram.sum h);
  Alcotest.(check (float 0.001)) "mean" 5.0 (T.Histogram.mean h);
  Alcotest.(check (float 0.001)) "min" 2.0 (T.Histogram.min_value h);
  Alcotest.(check (float 0.001)) "max" 8.0 (T.Histogram.max_value h)

let test_reset_keeps_handles () =
  fresh ();
  let c = T.Counter.make "t.keep" in
  T.Counter.incr c ~by:7;
  ignore (T.with_span "s" (fun () -> ()));
  T.reset ();
  Alcotest.(check int) "zeroed in place" 0 (T.Counter.value c);
  Alcotest.(check int) "spans dropped" 0 (List.length (T.spans ()));
  (* the interned handle still works after reset *)
  T.Counter.incr c;
  Alcotest.(check int) "handle alive" 1 (T.Counter.get "t.keep")

(* -- json ------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let src = {|{"a":[1,2.5,-3],"b":"q\"uo\\te\n","c":{"d":true,"e":null}}|} in
  match T.Json.parse src with
  | T.Json.Obj fields ->
      Alcotest.(check bool) "a is arr" true
        (match List.assoc "a" fields with T.Json.Arr _ -> true | _ -> false);
      Alcotest.(check string) "escapes decode" "q\"uo\\te\n"
        (match List.assoc "b" fields with T.Json.Str s -> s | _ -> "?");
      (* printing and reparsing is stable *)
      let again = T.Json.parse (T.Json.to_string (T.Json.Obj fields)) in
      Alcotest.(check bool) "reparse equal" true (again = T.Json.Obj fields)
  | _ -> Alcotest.fail "expected an object"

let test_json_errors () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("rejects " ^ s) (T.Json.Parse_error "")
        (fun () ->
          try ignore (T.Json.parse s)
          with T.Json.Parse_error _ -> raise (T.Json.Parse_error "")))
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* -- exporters --------------------------------------------------------------- *)

let test_chrome_export () =
  fresh ();
  T.with_span "outer" (fun () ->
      tick 2.0;
      T.with_span "inner" (fun () -> tick 1.0));
  T.Counter.incr (T.Counter.make "t.ch");
  let j = T.Json.parse (T.Export.chrome ()) in
  let events =
    match T.Json.member "traceEvents" j with
    | Some (T.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let xs =
    List.filter_map
      (fun ev ->
        match (T.Json.member "ph" ev, T.Json.member "name" ev) with
        | Some (T.Json.Str "X"), Some (T.Json.Str n) -> Some (n, ev)
        | _ -> None)
      events
  in
  Alcotest.(check int) "two complete events" 2 (List.length xs);
  (* X events are sorted by start time: outer first *)
  Alcotest.(check string) "outer first" "outer" (fst (List.hd xs));
  let dur ev =
    match T.Json.member "dur" ev with Some (T.Json.Num d) -> d | _ -> nan
  in
  Alcotest.(check (float 0.001)) "outer spans both ticks" 3.0 (dur (List.assoc "outer" xs));
  Alcotest.(check bool) "counter event present" true
    (List.exists
       (fun ev ->
         match (T.Json.member "ph" ev, T.Json.member "name" ev) with
         | Some (T.Json.Str "C"), Some (T.Json.Str "t.ch") -> true
         | _ -> false)
       events)

let test_metrics_export () =
  fresh ();
  T.Counter.incr (T.Counter.make "t.m") ~by:9;
  T.Gauge.set "t.mg" 0.5;
  T.Histogram.observe (T.Histogram.make "t.mh") 7.0;
  let j = T.Json.parse (T.Export.metrics_json ()) in
  (match T.Json.member "schema" j with
  | Some (T.Json.Str s) -> Alcotest.(check string) "schema" "omos.metrics/1" s
  | _ -> Alcotest.fail "no schema field");
  (match Option.bind (T.Json.member "counters" j) (T.Json.member "t.m") with
  | Some (T.Json.Num n) -> Alcotest.(check (float 0.001)) "counter" 9.0 n
  | _ -> Alcotest.fail "counter missing");
  match Option.bind (T.Json.member "histograms" j) (T.Json.member "t.mh") with
  | Some h -> (
      match T.Json.member "count" h with
      | Some (T.Json.Num c) -> Alcotest.(check (float 0.001)) "hist count" 1.0 c
      | _ -> Alcotest.fail "histogram count missing")
  | None -> Alcotest.fail "histogram missing"

(* -- the instrumented request path ------------------------------------------ *)

let test_request_path_trace () =
  (* a real instantiation produces the nested span tree the trace
     command relies on, and the global cache counters track Cache.stats *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  T.reset ();
  T.set_enabled true;
  let resp = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  T.set_enabled false;
  Alcotest.(check bool) "cold build" false resp.Omos.Server.cache_hit;
  let names = List.map (fun (sp : T.span) -> sp.T.name) (T.spans ()) in
  List.iter
    (fun n -> Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
    [ "omos.instantiate"; "blueprint.eval"; "constraints.place"; "linker.link" ];
  let st = Omos.Server.cache_stats s in
  Alcotest.(check int) "hits agree" st.Omos.Cache.hits (T.Counter.get "cache.hits");
  Alcotest.(check int) "misses agree" st.Omos.Cache.misses (T.Counter.get "cache.misses");
  (* the root span is the instantiate *)
  let root =
    List.find (fun (sp : T.span) -> sp.T.parent = -1) (T.spans ())
  in
  Alcotest.(check string) "root" "omos.instantiate" root.T.name;
  (* warm request: a hit, no new link span *)
  T.reset ();
  T.set_enabled true;
  let resp2 = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  T.set_enabled false;
  Alcotest.(check bool) "warm hit" true resp2.Omos.Server.cache_hit;
  Alcotest.(check int) "no link on hit" 0 (T.Counter.get "linker.links")

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled" `Quick test_span_disabled;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_span_disabled_allocates_nothing;
          Alcotest.test_case "exception unwind" `Quick test_span_exception_unwind;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome" `Quick test_chrome_export;
          Alcotest.test_case "metrics" `Quick test_metrics_export;
        ] );
      ( "request-path",
        [ Alcotest.test_case "trace" `Quick test_request_path_trace ] );
    ]
