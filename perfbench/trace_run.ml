(* The traced run (--trace 1): per-layer metrics.

   After one set-up the run alternates three phases over the same op
   sequence:
     U  untraced, as the end-to-end run: the baseline op time, the GC
        counts, and the count metrics of the deterministic prefix;
     T  traced: every layer call of an op sits in a benchmark span, and
        after each op the workload replays its layer calls on the op's
        inputs, each in a span of its own (outside the op);
     R  untraced with the program's own Provenance and Causal recording
        on, for the cost of that recording.
   The spans give each layer's host time and words per op, the Chrome
   trace and the self-time table; T against U gives the tracing
   overhead. *)

module H = Harness

(* Layers timed by spans; each gives a [_us] and a [_words] metric. *)
let span_layers =
  [
    "schemes.launch";
    "simos.run";
    "server.submit";
    "server.drain";
    "server.evict";
    "blueprint.parse";
    "blueprint.eval";
    "jigsaw.to_object";
    "linker.link";
    "linker.combine";
    "constraints.place";
    "sof.codec";
    "residency.check";
    "server.register";
    "server.rebuild";
    "analysis.lint";
    "analysis.impact";
    "analysis.diff";
  ]

(* Every per-layer metric, with its unit, in BENCHMARK.json order. *)
let metric_units : (string * string) list =
  List.concat_map (fun n -> [ (n ^ "_us", "us"); (n ^ "_words", "words") ]) span_layers
  @ [
      ("svm.ns_per_instr", "ns");
      ("svm.words_per_instr", "words");
      ("svm.instrs_per_op", "count");
      ("simos.syscalls_per_op", "count");
      ("simos.faults_per_op", "count");
      ("schemes.binds_per_op", "count");
      ("simos.sim_user_ms", "ms");
      ("simos.sim_sys_ms", "ms");
      ("simos.sim_io_ms", "ms");
      ("server.sim_parse_us", "us");
      ("server.sim_eval_us", "us");
      ("server.sim_place_us", "us");
      ("server.sim_link_us", "us");
      ("server.sim_wait_us", "us");
      ("jigsaw.ops_per_op", "count");
      ("linker.relocs_per_op", "count");
      ("constraints.batch_solves_per_op", "count");
      ("pipeline.coalesced_per_op", "count");
      ("cache.hit_ratio", "ratio");
      ("impact.reused_per_op", "count");
      ("impact.respun_per_op", "count");
      ("impact.reuse_frac", "ratio");
      ("cache.memo_hits_per_op", "count");
      ("gc.minor_per_op", "count");
      ("gc.major_per_op", "count");
      ("telemetry.record_overhead_pct", "%");
      ("trace.overhead_pct", "%");
      ("trace.selfsum_err_pct", "%");
    ]

let max_written_spans = 20_000
let out = "perfbench/out"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run (w : H.workload) ~seed ~seconds ~inject : bool * int * int * H.metric list =
  let inst = w.H.setup ~seed ~inject in
  Gc.compact ();
  (* The phases alternate in [blocks] rounds of U, T, R, so drift over
     the run (heap growth, a neighbour's load) falls on all three. The
     count metrics come from the first U block's deterministic prefix. *)
  let blocks = 3 in
  let frac = seconds /. float_of_int blocks in
  let next = ref 0 in
  let loop ?(det_calls = 0) ~share ~min_calls o =
    let first = !next in
    let x =
      H.closed_loop ~first ~probe_calls:inst.H.probe_calls ~seconds:(share *. frac) ~min_calls
        ~det_calls o
    in
    next := first + x.H.calls;
    (first, x)
  in
  let traced_op =
    {
      inst.H.op with
      H.check =
        (fun i ->
          let bad = inst.H.op.H.check i in
          inst.H.replay i;
          bad);
    }
  in
  let us = ref [] and ts = ref [] and rs = ref [] in
  let det = Hashtbl.create 64 and det_ops = ref 0 in
  let gc_ops = ref 0 and minor = ref 0 and major = ref 0 in
  let spans = ref [] in
  H.Span.reset ();
  Hashtbl.reset H.counts;
  for b = 0 to blocks - 1 do
    (* U *)
    let g0 = Gc.quick_stat () in
    let det_calls = if b = 0 then inst.H.det_calls else 0 in
    let ((_, u) as ub) = loop ~det_calls ~share:0.3 ~min_calls:det_calls inst.H.op in
    let g1 = Gc.quick_stat () in
    gc_ops := !gc_ops + u.H.ops;
    minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
    if b = 0 then begin
      Hashtbl.iter (Hashtbl.replace det) H.counts;
      det_ops := u.H.det_ops;
      Hashtbl.reset H.counts
    end;
    us := ub :: !us;
    (* T: every op counted, so instruction counts match the span totals *)
    H.Span.enabled := true;
    ts := loop ~det_calls:max_int ~share:0.4 ~min_calls:1 traced_op :: !ts;
    H.Span.enabled := false;
    spans := !spans @ H.Span.all ();
    H.Span.recorded := [];
    (* R *)
    Telemetry.Provenance.set_enabled true;
    Telemetry.Causal.set_enabled true;
    rs := loop ~share:0.3 ~min_calls:1 inst.H.op :: !rs;
    Telemetry.Provenance.set_enabled false;
    Telemetry.Causal.set_enabled false;
    Telemetry.Causal.reset_state ()
  done;
  let spans = !spans in
  let det_per_op name =
    Option.value ~default:0.0 (Hashtbl.find_opt det name) /. float_of_int !det_ops
  in
  let fin = inst.H.finish () in
  let sum f xs = List.fold_left (fun a (_, x) -> a + f x) 0 xs in
  let sumf f xs = List.fold_left (fun a (_, x) -> a +. f x) 0.0 xs in
  let ops xs = sum (fun x -> x.H.ops) xs in
  let per_op xs = sumf (fun x -> x.H.wall) xs /. float_of_int (ops xs) in
  (* a phase is compared with U class by class: U's per-class mean times
     weighted by the other phase's call mix *)
  let class_means xs =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (first, x) ->
        Array.iteri
          (fun k t ->
            let c = inst.H.klass (first + k) in
            let n, s = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl c) in
            Hashtbl.replace tbl c (n + 1, s +. t))
          x.H.call_wall)
      xs;
    tbl
  in
  let base = class_means !us in
  let overhead_pct xs =
    let num = ref 0.0 and den = ref 0.0 in
    Hashtbl.iter
      (fun c (n, s) ->
        match Hashtbl.find_opt base c with
        | Some (bn, bs) ->
            num := !num +. s;
            den := !den +. (float_of_int n *. bs /. float_of_int bn)
        | None -> ())
      (class_means xs);
    if !den > 0.0 then (!num /. !den -. 1.0) *. 100.0 else 0.0
  in
  let trace_overhead = overhead_pct !ts in
  let t_ops = float_of_int (ops !ts) in
  let selfs = H.Span.self spans in
  let total name =
    List.fold_left
      (fun (a, aw) ((s : H.Span.t), _, _) ->
        if s.H.Span.name = name then (a +. s.H.Span.t1 -. s.H.Span.t0, aw +. s.H.Span.w1 -. s.H.Span.w0)
        else (a, aw))
      (0.0, 0.0) selfs
  in
  (* self times of each op's spans sum to the root "op" span; against
     the loop's own op time the gap is the span bookkeeping outside it *)
  let op_spans = List.filter (fun ((s : H.Span.t), _, _) -> s.H.Span.op >= 0) selfs in
  let self_sum = List.fold_left (fun a (_, st, _) -> a +. st) 0.0 op_spans in
  let wall_sum = sumf (fun x -> Array.fold_left ( +. ) 0.0 x.H.call_wall) !ts in
  let selfsum_err_pct = (wall_sum -. self_sum) /. wall_sum *. 100.0 in
  let selfsum_ok = selfsum_err_pct >= 0.0 && selfsum_err_pct <= Float.max 1.0 trace_overhead in
  let instrs = H.counted "svm.instrs" in
  let run_s, run_w = total "simos.run" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let values = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let s, ws = total n in
      Hashtbl.replace values (n ^ "_us") (s /. t_ops *. 1e6);
      Hashtbl.replace values (n ^ "_words") (ws /. t_ops))
    span_layers;
  let hits = det_per_op "cache.hits" and misses = det_per_op "cache.misses" in
  let reused = det_per_op "impact.reused" and respun = det_per_op "impact.respun" in
  List.iter
    (fun (k, v) -> Hashtbl.replace values k v)
    [
      ("svm.ns_per_instr", ratio (run_s *. 1e9) instrs);
      ("svm.words_per_instr", ratio run_w instrs);
      ("svm.instrs_per_op", det_per_op "svm.instrs");
      ("simos.syscalls_per_op", det_per_op "simos.syscalls");
      ("simos.faults_per_op", det_per_op "simos.faults");
      ("schemes.binds_per_op", det_per_op "schemes.binds");
      ("simos.sim_user_ms", det_per_op "simos.sim_user_us" /. 1e3);
      ("simos.sim_sys_ms", det_per_op "simos.sim_sys_us" /. 1e3);
      ("simos.sim_io_ms", det_per_op "simos.sim_io_us" /. 1e3);
      ("server.sim_parse_us", det_per_op "server.sim_parse_us");
      ("server.sim_eval_us", det_per_op "server.sim_eval_us");
      ("server.sim_place_us", det_per_op "server.sim_place_us");
      ("server.sim_link_us", det_per_op "server.sim_link_us");
      ("server.sim_wait_us", det_per_op "server.sim_wait_us");
      ("jigsaw.ops_per_op", det_per_op "jigsaw.ops");
      ("linker.relocs_per_op", det_per_op "linker.relocs");
      ("constraints.batch_solves_per_op", det_per_op "constraints.batch_solves");
      ("pipeline.coalesced_per_op", det_per_op "pipeline.coalesced");
      ("cache.hit_ratio", ratio hits (hits +. misses));
      ("impact.reused_per_op", reused);
      ("impact.respun_per_op", respun);
      ("impact.reuse_frac", ratio reused (reused +. respun));
      ("cache.memo_hits_per_op", det_per_op "cache.memo_hits");
      ("gc.minor_per_op", float_of_int !minor /. float_of_int !gc_ops);
      ("gc.major_per_op", float_of_int !major /. float_of_int !gc_ops);
      ("telemetry.record_overhead_pct", overhead_pct !rs);
      ("trace.overhead_pct", trace_overhead);
      ("trace.selfsum_err_pct", selfsum_err_pct);
    ];
  let metrics =
    List.map
      (fun (n, unit_) ->
        { H.metric = n; value = Option.value ~default:0.0 (Hashtbl.find_opt values n); unit_ })
      metric_units
  in
  (* outputs: the Chrome trace, the self-time table, the metrics *)
  mkdir_p out;
  let trace_path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" w.H.name seed) in
  write_file trace_path
    (H.Span.chrome (List.filteri (fun i _ -> i < max_written_spans) spans));
  Printf.printf "workload %s  seed %d  traced run\n" w.H.name seed;
  Printf.printf "  inputs digest %s\n" inst.H.inputs;
  Printf.printf "  phase U (untraced)   %6d ops  %9.4f ms/op\n" (ops !us) (per_op !us *. 1e3);
  Printf.printf "  phase T (traced)     %6d ops  %9.4f ms/op  overhead %+.2f%%\n" (ops !ts)
    (per_op !ts *. 1e3) trace_overhead;
  Printf.printf "  phase R (recording)  %6d ops  %9.4f ms/op  overhead %+.2f%%\n" (ops !rs)
    (per_op !rs *. 1e3) (overhead_pct !rs);
  Printf.printf "  %d spans, first %d written to %s\n" (List.length spans)
    (min max_written_spans (List.length spans))
    trace_path;
  Printf.printf "  self-time check: op self times sum to %.3f s of %.3f s op wall (gap %.4f%%): %s\n"
    self_sum wall_sum selfsum_err_pct
    (if selfsum_ok then "ok" else "FAILED");
  Printf.printf "  self-time table (traced phase, per op):\n";
  Printf.printf "    %-20s %8s %12s %14s %8s\n" "span" "calls" "self us/op" "self words/op" "share";
  let names = List.sort_uniq compare (List.map (fun ((s : H.Span.t), _, _) -> s.H.Span.name) selfs) in
  List.iter
    (fun n ->
      let calls, st, sw =
        List.fold_left
          (fun (c, a, aw) ((s : H.Span.t), st, sw) ->
            if s.H.Span.name = n then (c + 1, a +. st, aw +. sw) else (c, a, aw))
          (0, 0.0, 0.0) selfs
      in
      Printf.printf "    %-20s %8d %12.2f %14.0f %7.1f%%\n" n calls (st /. t_ops *. 1e6) (sw /. t_ops)
        (st /. wall_sum *. 100.0))
    names;
  List.iter (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.H.metric m.H.value m.H.unit_) metrics;
  let all = !us @ !ts @ !rs in
  let failed = sum (fun x -> x.H.failed) all + List.length fin in
  List.iter
    (fun f -> Printf.printf "  FAILED: %s\n" f)
    (List.concat_map (fun (_, x) -> x.H.failures) all @ fin);
  let attempted = ops all + List.length fin in
  (failed = 0 && selfsum_ok, attempted, failed, metrics)
