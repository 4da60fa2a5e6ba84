(* The bench regression gate: compare a fresh BENCH_*.json snapshot
   against a committed baseline and exit non-zero when a simulated cost
   regressed by more than the tolerance or a work counter changed.

     compare.exe BASELINE CURRENT

   Simulated costs are gated with a tolerance: the "bench.*" gauges
   (simulated seconds of the paper tables) and the sums of the "*.us.*"
   phase histograms (simulated microseconds). A gated cost the baseline
   has and the snapshot lacks (MISSING) fails the gate as a regression
   does. Wall-clock numbers vary with the host and are reported but
   never gated. Work counters (links, relocations, cache misses) are
   deterministic, so they are gated exactly: a counter whose value
   changed (DRIFT), one only the baseline has (GONE) and one only the
   snapshot has (NEW) each fail the gate. After a deliberate change,
   re-bless by copying the fresh snapshots over the baselines. *)

let tolerance = 0.20

(* quantities this small are formatting noise, not regressions *)
let abs_floor = 1e-3

let read_json (path : string) : Telemetry.Json.t =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Telemetry.Json.parse s

let fields = function Telemetry.Json.Obj f -> f | _ -> []

let contains ~(sub : string) (s : string) : bool =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n > 0 && go 0

let starts ~(prefix : string) (s : string) : bool =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* (label, value) pairs of the gated simulated costs in a snapshot. *)
let gated_costs (j : Telemetry.Json.t) : (string * float) list =
  let gauges =
    match Telemetry.Json.member "gauges" j with
    | Some g ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Telemetry.Json.Num n when starts ~prefix:"bench." k ->
                Some ("gauge " ^ k, n)
            | _ -> None)
          (fields g)
    | None -> []
  in
  let hists =
    match Telemetry.Json.member "histograms" j with
    | Some h ->
        List.filter_map
          (fun (k, v) ->
            if contains ~sub:".us." k then
              match Telemetry.Json.member "sum" v with
              | Some (Telemetry.Json.Num s) -> Some ("hist " ^ k ^ ".sum", s)
              | _ -> None
            else None)
          (fields h)
    | None -> []
  in
  gauges @ hists

let counters (j : Telemetry.Json.t) : (string * float) list =
  match Telemetry.Json.member "counters" j with
  | Some c ->
      List.filter_map
        (fun (k, v) ->
          match v with Telemetry.Json.Num n -> Some (k, n) | _ -> None)
        (fields c)
  | None -> []

(* Compare one baseline/current snapshot pair; returns the number of
   cost regressions (missing costs among them) and counter differences
   found. *)
let compare_pair (baseline_path : string) (current_path : string) : int =
  let b = read_json baseline_path and c = read_json current_path in
  let cur_costs = gated_costs c in
  let regressions = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun (label, base) ->
      match List.assoc_opt label cur_costs with
      | None ->
          incr regressions;
          Printf.printf "MISSING  %-52s (was %.3f)\n" label base
      | Some cur ->
          incr compared;
          let worse =
            cur > (base *. (1.0 +. tolerance)) +. abs_floor
          in
          if worse then begin
            incr regressions;
            Printf.printf "REGRESS  %-52s %12.3f -> %12.3f (+%.0f%%)\n" label
              base cur
              (100.0 *. (cur -. base) /. (if base = 0.0 then 1.0 else base))
          end
          else Printf.printf "ok       %-52s %12.3f -> %12.3f\n" label base cur)
    (gated_costs b);
  (* deterministic work counters: exact, on both sides *)
  let base_counters = counters b and cur_counters = counters c in
  let differences = ref 0 in
  let differ fmt =
    incr differences;
    Printf.printf fmt
  in
  List.iter
    (fun (k, base) ->
      match List.assoc_opt k cur_counters with
      | Some cur when cur <> base ->
          differ "DRIFT    counter %-44s %12.0f -> %12.0f\n" k base cur
      | Some _ -> ()
      | None -> differ "GONE     counter %-44s %12.0f -> %12s\n" k base "-")
    base_counters;
  List.iter
    (fun (k, cur) ->
      if not (List.mem_assoc k base_counters) then
        differ "NEW      counter %-44s %12s -> %12.0f\n" k "-" cur)
    cur_counters;
  Printf.printf
    "compared %d simulated costs, %d regression(s) beyond %.0f%%; %d counters, %d differ\n"
    !compared !regressions (100.0 *. tolerance) (List.length base_counters) !differences;
  !regressions + !differences

(* Directory mode: every BENCH_*.json in the baseline directory must
   have a fresh counterpart (same file name) in the current directory;
   a missing counterpart fails the gate like a regression. *)
let compare_dirs (baseline_dir : string) (current_dir : string) : int =
  let snapshots =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f ->
           starts ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if snapshots = [] then begin
    Printf.eprintf "compare: no BENCH_*.json baselines in %s\n" baseline_dir;
    exit 2
  end;
  List.fold_left
    (fun acc f ->
      let baseline = Filename.concat baseline_dir f in
      let current = Filename.concat current_dir f in
      Printf.printf "== %s\n" f;
      if Sys.file_exists current then acc + compare_pair baseline current
      else begin
        Printf.printf "MISSING  no current snapshot %s\n" current;
        acc + 1
      end)
    0 snapshots

let () =
  match Array.to_list Sys.argv with
  | [ _; baseline_path ] when Sys.is_directory baseline_path ->
      if compare_dirs baseline_path "." > 0 then exit 1
  | [ _; baseline_path; current_path ] when Sys.is_directory baseline_path ->
      if compare_dirs baseline_path current_path > 0 then exit 1
  | [ _; baseline_path; current_path ] ->
      if compare_pair baseline_path current_path > 0 then exit 1
  | _ ->
      prerr_endline
        "usage: compare.exe BASELINE CURRENT\n\
        \       compare.exe BASELINE_DIR [CURRENT_DIR]";
      exit 2
