(* The host-clock benchmark of the OMOS reproduction.

     omosbench --workload exec_mix|build_cold|relink_edit --seed N
               --seconds S --trace 0|1 [--inject ORACLE]
     omosbench expected

   --trace 0 measures the end-to-end metrics; --trace 1 measures the
   per-layer metrics, writes the Chrome trace of the benchmark's spans
   to perfbench/out/ and prints a self-time table. Both print human-readable
   diagnostics and end with one JSON result line. [expected] prints the
   exec_mix outputs the committed oracle files hold. See README.md. *)

module H = Harness

let workloads : H.workload list =
  [ Exec_mix.workload; Build_cold.workload; Relink_edit.workload ]

let find_workload name =
  match List.find_opt (fun (w : H.workload) -> w.H.name = name) workloads with
  | Some w -> w
  | None ->
      prerr_endline ("omosbench: unknown workload " ^ name);
      exit 2

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* -- end-to-end run ----------------------------------------------------------- *)

let setups = 3

(* Set the workload up [setups] times (each a fresh world) and keep the
   last instance. Each set-up's time is normalized by the probes taken
   just before and after it. *)
let set_up (w : H.workload) ~seed ~inject : H.instance * float list * float list =
  let raw = ref [] and norm = ref [] and inst = ref None in
  for _ = 1 to setups do
    inst := None;
    let p0 = H.probe () in
    let t0 = H.now () in
    let i = w.H.setup ~seed ~inject in
    let t = H.now () -. t0 in
    let p1 = H.probe () in
    raw := t :: !raw;
    norm := (t *. H.probe_ref /. ((p0 +. p1) /. 2.0)) :: !norm;
    inst := Some i
  done;
  Gc.compact ();
  (Option.get !inst, List.rev !raw, List.rev !norm)

let print_failures (r : H.loop_result) (fin : string list) =
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) (r.H.failures @ fin)

let end_to_end (w : H.workload) ~seed ~seconds ~inject : bool * int * int * H.metric list
    =
  let inst, setup_raw, setup_times = set_up w ~seed ~inject in
  let r =
    H.closed_loop ~probe_calls:inst.H.probe_calls ~seconds ~min_calls:inst.H.min_calls
      ~det_calls:inst.H.det_calls inst.H.op
  in
  let fin = inst.H.finish () in
  let failed = r.H.failed + List.length fin in
  let attempted = r.H.ops + List.length fin in
  let lat, wall = H.normalized r in
  let p50 = H.percentile lat 50.0 and p95 = H.percentile lat 95.0 in
  let beyond = Array.fold_left (fun a x -> if x > p95 then a + 1 else a) 0 lat in
  let det = float_of_int r.H.det_ops in
  let metrics =
    [
      { H.metric = "ops_per_s"; value = float_of_int r.H.ops /. wall; unit_ = "ops/s" };
      { H.metric = "op_p50_ms"; value = p50 *. 1e3; unit_ = "ms" };
      { H.metric = "op_p95_ms"; value = p95 *. 1e3; unit_ = "ms" };
      { H.metric = "sim_ms_per_op"; value = r.H.det_sim_us /. det /. 1e3; unit_ = "ms" };
      { H.metric = "alloc_words_per_op"; value = r.H.det_words /. det; unit_ = "words" };
      {
        H.metric = "peak_heap_mb";
        value = mib_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
        unit_ = "MB";
      };
      { H.metric = "setup_s"; value = H.median setup_times; unit_ = "s" };
    ]
  in
  Printf.printf "workload %s  seed %d  %.1f s measured\n" w.H.name seed r.H.wall;
  Printf.printf "  inputs digest %s\n" inst.H.inputs;
  Printf.printf "  ops %d in %d calls; failed %d, failed_frac %.4f\n" r.H.ops r.H.calls failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf "  raw host time: %.4f ops/s, latency ms p50 %.3f p95 %.3f max %.3f\n"
    (float_of_int r.H.ops /. r.H.wall)
    (H.percentile r.H.lat 50.0 *. 1e3)
    (H.percentile r.H.lat 95.0 *. 1e3)
    (H.percentile r.H.lat 100.0 *. 1e3);
  Printf.printf "  host speed (probe_ref / probe): median %.3f, min %.3f, max %.3f\n"
    (H.percentile r.H.call_speed 50.0) (H.percentile r.H.call_speed 0.0)
    (H.percentile r.H.call_speed 100.0);
  Printf.printf "  normalized: %d latency samples beyond p95\n" beyond;
  Printf.printf "  deterministic prefix: %d ops, %.3f sim ms, %.0f words\n" r.H.det_ops
    (r.H.det_sim_us /. 1e3) r.H.det_words;
  Printf.printf "  setup runs: %s s raw, %s s normalized\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_raw))
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  List.iter (fun m -> Printf.printf "  %-20s %14.4f %s\n" m.H.metric m.H.value m.H.unit_) metrics;
  List.iter print_endline (inst.H.rows r);
  print_failures r fin;
  (failed = 0, attempted, failed, metrics)

(* -- command line ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let inject = ref "" in
  let mode = ref "run" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME exec_mix | build_cold | relink_edit");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--inject", Arg.Set_string inject, "ORACLE inject a wrong output (oracle self-check)");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "omosbench [expected] [options]";
  let inject = if !inject = "" then None else Some !inject in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "omosbench: --trace takes 0 or 1";
    exit 2
  end;
  match !mode with
  | "expected" -> Exec_mix.print_expected ()
  | _ ->
      let w = find_workload !workload in
      let correct, attempted, failed, metrics =
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~inject
        else Trace_run.run w ~seed:!seed ~seconds:!seconds ~inject
      in
      print_endline (H.result_line ~correct ~attempted ~failed metrics)
