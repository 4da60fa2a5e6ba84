(* The continuous hotness store, the layout-locality auditor, and the
   observability satellites that ride along: overload flight dumps,
   snapshot run metadata, and the pipeline profile-identity property. *)

module T = Telemetry

let fresh_world () =
  let w = Omos.World.create () in
  T.reset ();
  T.set_enabled true;
  w

(* The E1 monitored run: ls -laF against the monitored libc. *)
let monitored_ls_trace () : Omos.Monitor.trace =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let graph =
    Blueprint.Mgraph.Merge
      [
        Omos.Schemes.graph_of_objs (Omos.World.ls_client w);
        Blueprint.Mgraph.parse "(specialize \"monitor\" /lib/libc)";
      ]
  in
  let b = Omos.Server.build s (Omos.Server.static ~name:"ls-mon" graph) in
  let p =
    Omos.Boot.integrated_exec s
      (Omos.Server.loadable_entry [ b ])
      ~args:Omos.World.ls_laf_args
  in
  ignore (Simos.Kernel.run w.Omos.World.kernel p ());
  match Omos.Specializers.last_trace w.Omos.World.specializers with
  | Some t -> t
  | None -> Alcotest.fail "no monitor trace"

let split_libc () =
  List.concat_map Workloads.Libc_gen.split_objects Workloads.Libc_gen.section_names

(* -- hotness store ----------------------------------------------------------- *)

let test_hotness_window_stats () =
  T.reset ();
  List.iter
    (fun fn -> T.Hotness.record_call ~key:"/lib/k" fn)
    [ "a"; "b"; "a"; "c"; "a"; "b" ];
  T.Hotness.record_call ~key:"/lib/other" "z";
  Alcotest.(check int) "events" 7 (T.Hotness.total_events ());
  Alcotest.(check (list string)) "keys" [ "/lib/k"; "/lib/other" ] (T.Hotness.keys ());
  let st =
    match T.Hotness.stat_for "/lib/k" with
    | Some s -> s
    | None -> Alcotest.fail "missing stat"
  in
  Alcotest.(check int) "calls" 6 st.T.Hotness.hs_calls;
  Alcotest.(check (list (pair string int))) "counts hottest-first"
    [ ("a", 3); ("b", 2); ("c", 1) ]
    st.T.Hotness.hs_functions;
  Alcotest.(check (list string)) "first-call order" [ "a"; "b"; "c" ]
    st.T.Hotness.hs_first_call;
  Alcotest.(check int) "a->b transitions seen twice" 2
    (List.assoc ("a", "b") st.T.Hotness.hs_transitions);
  (match T.Hotness.hottest () with
  | Some ("/lib/k", "a", 3) -> ()
  | other ->
      Alcotest.failf "unexpected hottest %s"
        (match other with
        | Some (k, f, n) -> Printf.sprintf "(%s,%s,%d)" k f n
        | None -> "None"));
  (* churn: b overtaking a changes the top identity exactly once *)
  let chg0 = T.Counter.get "hotness.top_changes" in
  List.iter (fun fn -> T.Hotness.record_call ~key:"/lib/k" fn) [ "b"; "b" ];
  Alcotest.(check int) "one top change" (chg0 + 1)
    (T.Counter.get "hotness.top_changes");
  T.reset ();
  Alcotest.(check int) "reset clears the window" 0 (T.Hotness.total_events ())

let test_hotness_rolling_window () =
  T.reset ();
  for i = 1 to T.Hotness.window_cap + 100 do
    T.Hotness.record_call ~key:"/lib/k" (if i <= 100 then "old" else "new")
  done;
  let st = Option.get (T.Hotness.stat_for "/lib/k") in
  Alcotest.(check int) "window holds cap events" T.Hotness.window_cap
    st.T.Hotness.hs_calls;
  Alcotest.(check bool) "rolled-out function is gone" false
    (List.mem_assoc "old" st.T.Hotness.hs_functions);
  Alcotest.(check int) "total keeps counting" (T.Hotness.window_cap + 100)
    (T.Hotness.total_events ())

(* -- the auditor ------------------------------------------------------------- *)

(* Synthetic per-function layout: two small hot routines separated by a
   page of cold code each, so the actual order touches 2 pages while
   the packed optimum (and the reordered layout) fits in 1. *)
let test_audit_math_synthetic () =
  T.reset ();
  let page = Simos.Cost.page_size in
  let mk name size fns =
    let text = Bytes.make size '\x00' in
    let symbols =
      List.map
        (fun (n, v) -> Sof.Symbol.make ~kind:Sof.Symbol.Text ~value:v n)
        fns
    in
    Sof.Object_file.make ~name ~text symbols
  in
  let frags =
    [
      mk "f0" 64 [ ("hot0", 0) ];
      mk "c0" page [ ("cold0", 0) ];
      mk "f1" 64 [ ("hot1", 0) ];
      mk "c1" page [ ("cold1", 0) ];
    ]
  in
  let ranges = Omos.Hotspots.function_ranges frags in
  Alcotest.(check int) "ranges cover all exported functions" 4 (List.length ranges);
  Alcotest.(check bool) "hot1 offset past the first cold page" true
    (List.assoc "hot1" ranges = (64 + page, 128 + page));
  Alcotest.(check int) "scattered calls touch two pages" 2
    (Omos.Hotspots.distinct_pages ranges [ "hot0"; "hot1" ]);
  Alcotest.(check int) "packed lower bound is one page" 1
    (Omos.Hotspots.packed_pages ranges [ "hot0"; "hot1" ]);
  let trace =
    {
      Omos.Monitor.names = [| "hot0"; "hot1" |];
      events = List.rev [ Omos.Monitor.Enter 0; Omos.Monitor.Enter 1 ];
      stamps = [ (-1, -1); (-1, -1) ];
      count = 2;
    }
  in
  let a = Omos.Hotspots.audit ~key:"/syn" ~trace frags in
  Alcotest.(check int) "headroom" 1 (Omos.Hotspots.headroom a);
  Alcotest.(check int) "reorder reclaims everything" 0 (Omos.Hotspots.residual a);
  Alcotest.(check int) "bytes touched" 128 a.Omos.Hotspots.a_bytes_touched;
  (* recorded in the store: gauge + audit pages + health headroom *)
  Alcotest.(check (option (triple int int int))) "audit recorded"
    (Some (2, 1, 1))
    (T.Hotness.audit_pages "/syn");
  Alcotest.(check int) "max headroom" 1 (T.Hotness.max_headroom ())

(* The acceptance property on the real E1 workload: strictly positive
   headroom under the original section order, zero after reordering. *)
let test_audit_e1_headroom () =
  T.reset ();
  let trace = monitored_ls_trace () in
  let frags = split_libc () in
  let before = Omos.Hotspots.audit ~key:"/lib/libc" ~trace frags in
  let after =
    Omos.Hotspots.audit ~key:"/lib/libc(reordered)" ~trace
      (Omos.Reorder.from_trace ~trace frags)
  in
  Alcotest.(check bool) "headroom strictly positive before reorder" true
    (Omos.Hotspots.headroom before > 0);
  Alcotest.(check int) "headroom zero after reorder" 0
    (Omos.Hotspots.headroom after);
  Alcotest.(check bool) "optimal is a lower bound" true
    (before.Omos.Hotspots.a_pages_optimal <= before.Omos.Hotspots.a_pages_actual);
  (* the health window surfaces the same numbers *)
  let snap = T.Health.snapshot () in
  Alcotest.(check (float 0.001)) "health headroom"
    (float_of_int (Omos.Hotspots.headroom before))
    snap.T.Health.headroom_pages;
  Alcotest.(check bool) "health names a hot function" true
    (snap.T.Health.hot_fn <> "-")

(* -- satellite: overload rejections dump the flight ring --------------------- *)

let test_overload_dumps_flight () =
  let w = fresh_world () in
  let s = w.Omos.World.server in
  let prefix = Filename.concat (Filename.get_temp_dir_name ()) "hs_overload_flight" in
  List.iter
    (fun ext -> try Sys.remove (prefix ^ ext) with Sys_error _ -> ())
    [ ".json"; ".txt" ];
  let saved = T.Flight.auto_dump_prefix () in
  Fun.protect
    ~finally:(fun () -> T.Flight.set_auto_dump saved)
    (fun () ->
      T.Flight.set_auto_dump (Some prefix);
      Omos.Server.set_queue_limit s 1;
      let t1 = Omos.Server.submit s (Omos.Server.library "/lib/libm") in
      (match Omos.Server.submit s (Omos.Server.library "/lib/libl") with
      | exception Omos.Server.Overload _ -> ()
      | _ -> Alcotest.fail "second submit should overload");
      ignore (Omos.Server.await s t1));
  Alcotest.(check bool) "flight.json written" true (Sys.file_exists (prefix ^ ".json"));
  Alcotest.(check bool) "dump counted" true (T.Counter.get "flight.dumps" >= 1);
  Alcotest.(check bool) "cause labeled" true
    (T.Counter.get "flight.dumps.overload" >= 1);
  (* the ring carries the fault event naming the rejection *)
  let ic = open_in (prefix ^ ".json") in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "fault event in dump" true
    (Astring.String.is_infix ~affix:"server.overload" contents)

(* -- satellite: snapshot carries the pipeline knobs -------------------------- *)

let meta_member key json =
  match T.Json.member "meta" json with Some m -> T.Json.member key m | None -> None

let test_runinfo_in_snapshot () =
  let w = fresh_world () in
  let s = w.Omos.World.server in
  let snap () = T.Json.parse (T.Export.metrics_json ()) in
  Alcotest.(check bool) "queue limit defaults into the snapshot" true
    (meta_member "queue_limit" (snap ()) = Some (T.Json.Num 64.0));
  Alcotest.(check bool) "batch placement recorded" true
    (meta_member "batch_placement" (snap ()) = Some (T.Json.Bool true));
  Omos.Server.set_queue_limit s 5;
  Omos.Server.set_sched_seed s 42;
  Omos.Server.set_batch_placement s false;
  Alcotest.(check bool) "knob changes tracked" true
    (meta_member "queue_limit" (snap ()) = Some (T.Json.Num 5.0)
    && meta_member "sched_seed" (snap ()) = Some (T.Json.Num 42.0)
    && meta_member "batch_placement" (snap ()) = Some (T.Json.Bool false));
  T.reset ();
  Alcotest.(check bool) "metadata survives reset (configuration, not measurement)"
    true
    (meta_member "queue_limit" (snap ()) = Some (T.Json.Num 5.0))

(* -- property: folded profile totals = charged clock cost through the
   pipeline's suspend/resume stages --------------------------------------- *)

let pipeline_metas = [| "/lib/libm"; "/lib/libl"; "/lib/libC"; "/demo/hello" |]

let prop_profile_total_identity =
  QCheck.Test.make ~count:12 ~long_factor:20 ~name:"pipeline profile identity"
    QCheck.(pair (int_bound 1000) (int_range 1 8))
    (fun (seed, n) ->
      let w = fresh_world () in
      let s = w.Omos.World.server in
      Omos.Server.set_sched_seed s seed;
      let k = Omos.Server.kernel s in
      let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
      Fun.protect
        ~finally:(fun () -> T.set_enabled false)
        (fun () ->
          (* interleaved stages: n submissions drain through the
             cooperative scheduler, each suspending and resuming its
             detached request around every stage *)
          let ts =
            List.init n (fun i ->
                Omos.Server.submit s
                  (Omos.Server.library
                     pipeline_metas.((seed + i) mod Array.length pipeline_metas)))
          in
          Omos.Server.drain s;
          List.iter (fun t -> ignore (Omos.Server.await s t)) ts);
      let total = T.Profile.total () in
      let folded_sum =
        List.fold_left (fun a (_, v) -> a +. v) 0.0 (T.Profile.folded ())
      in
      let _, _, elapsed = Simos.Clock.since k.Simos.Kernel.clock snap in
      abs_float (total -. folded_sum) < 0.001
      && abs_float (total -. elapsed) < 0.001)

(* -- property: hotness aggregation is byte-deterministic under workload
   concurrency ------------------------------------------------------------- *)

let conc_spec concurrency =
  {
    Omos.Workload.default with
    Omos.Workload.requests = 16;
    seed = 7;
    concurrency;
    mix = [ ("instantiate", 1) ];
  }

let hotspots_bytes concurrency =
  (* the workload driver resets telemetry internally, so it runs first;
     the monitored run then feeds the store the export serializes *)
  ignore (Omos.Workload.run (conc_spec concurrency));
  ignore (monitored_ls_trace ());
  T.Export.hotspots_json ()

let prop_hotness_deterministic =
  QCheck.Test.make ~count:16 ~long_factor:20
    ~name:"hotness byte-deterministic under concurrency"
    QCheck.(int_range 2 8)
    (fun concurrency ->
      let serial = hotspots_bytes 1 in
      hotspots_bytes concurrency = serial && hotspots_bytes concurrency = serial)

let () =
  Alcotest.run "hotspots"
    [
      ( "hotness",
        [
          Alcotest.test_case "window stats" `Quick test_hotness_window_stats;
          Alcotest.test_case "rolling window" `Quick test_hotness_rolling_window;
        ] );
      ( "audit",
        [
          Alcotest.test_case "synthetic math" `Quick test_audit_math_synthetic;
          Alcotest.test_case "E1 headroom" `Quick test_audit_e1_headroom;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "overload dumps flight" `Quick test_overload_dumps_flight;
          Alcotest.test_case "runinfo in snapshot" `Quick test_runinfo_in_snapshot;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_profile_total_identity;
          QCheck_alcotest.to_alcotest prop_hotness_deterministic;
        ] );
    ]
