(* Fuzzer tests: generator determinism, fuzzcase serialization
   round-trips, shrinking, oracle verdicts on known-clean seeds, and a
   replay of the committed corpus under bench/corpus/. *)

module Fz = Workloads.Fuzz
module Fuzzer = Omos.Fuzzer

let gen ?(max_modules = 12) ?(max_libs = 6) seed =
  Fz.generate ~max_modules ~max_libs ~seed ()

let test_generate_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (Fz.to_string (gen seed))
        (Fz.to_string (gen seed)))
    [ 1; 7; 42; 834212133; 99991 ]

let test_derive_seed_schedule () =
  (* the per-iteration schedule must stay in the generator's seed range
     and not collide over a realistic run length *)
  List.iter
    (fun master ->
      let seen = Hashtbl.create 256 in
      for i = 0 to 499 do
        let s = Fz.derive_seed ~master i in
        Alcotest.(check bool) "in range" true (s >= 0 && s <= 0x3FFFFFFF);
        Alcotest.(check bool)
          (Printf.sprintf "master=%d i=%d fresh" master i)
          false (Hashtbl.mem seen s);
        Hashtbl.replace seen s ()
      done)
    [ 1; 2; 17 ]

let test_roundtrip () =
  List.iter
    (fun seed ->
      let c = gen seed in
      let text = Fz.to_string c in
      let c' = Fz.of_string text in
      Alcotest.(check string)
        (Printf.sprintf "seed %d roundtrip" seed)
        text (Fz.to_string c'))
    [ 1; 3; 42; 252753870; 853197758 ]

let test_of_string_rejects_garbage () =
  let expect text =
    try
      ignore (Fz.of_string text);
      Alcotest.failf "accepted: %s" text
    with Fz.Case_error _ -> ()
  in
  expect "nonsense 1\n";
  expect "seed x\n";
  expect "mod /fuzz/m0v0.o\n";
  expect "lib /fuzz/lib0 (merge\n"

let test_shrink_candidates () =
  let c = gen 42 in
  let orig = Fz.to_string c in
  let cands = Fz.shrink c in
  Alcotest.(check bool) "nontrivial case shrinks" true (cands <> []);
  List.iter
    (fun c' ->
      let t = Fz.to_string c' in
      Alcotest.(check bool) "candidate differs from original" true (t <> orig);
      (* every candidate is itself a valid, serializable case *)
      Alcotest.(check string) "candidate roundtrips" t
        (Fz.to_string (Fz.of_string t)))
    cands

let test_run_case_clean_seed () =
  (* seed 1's schedule ran clean for 500 iterations when this fuzzer
     landed; the first iteration is cheap enough to pin in runtest *)
  match Fuzzer.run_case (gen (Fz.derive_seed ~master:1 0)) with
  | Fuzzer.Pass _ -> ()
  | Fuzzer.Fail f -> Alcotest.failf "oracle %s: %s" f.Fuzzer.fz_oracle f.Fuzzer.fz_detail

let test_fuzz_smoke () =
  match Fuzzer.fuzz ~seed:1 ~iterations:25 () with
  | None -> ()
  | Some (i, f) ->
      Alcotest.failf "iteration %d failed oracle %s: %s" i f.Fuzzer.fz_oracle
        f.Fuzzer.fz_detail

let test_reduce_keeps_failure_oracle () =
  (* reducing a "failure" whose case actually passes must hand the case
     back unchanged: the reducer only accepts candidates that reproduce
     the same oracle *)
  let c = gen 7 in
  let f = { Fuzzer.fz_oracle = "crash"; fz_detail = "synthetic"; fz_case = c } in
  let minimized, runs = Fuzzer.reduce ~budget:50 f in
  Alcotest.(check string) "unchanged" (Fz.to_string c) (Fz.to_string minimized);
  Alcotest.(check bool) "reducer did probe candidates" true (runs > 0)

(* `dune runtest` runs the binary from test/, `dune exec` from the
   project root — accept either anchor *)
let corpus_dir =
  let candidates =
    [ Filename.concat ".." (Filename.concat "bench" "corpus");
      Filename.concat "bench" "corpus" ]
  in
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      candidates
  with
  | Some d -> d
  | None -> List.hd candidates

let test_corpus_replays () =
  Alcotest.(check bool)
    (corpus_dir ^ " exists") true
    (Sys.file_exists corpus_dir && Sys.is_directory corpus_dir);
  let cases =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fuzzcase")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (List.length cases >= 7);
  List.iter
    (fun name ->
      let path = Filename.concat corpus_dir name in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let c = Fz.of_string text in
      (* the committed corpus must stay byte-reproducible *)
      Alcotest.(check string)
        (name ^ " re-serializes")
        (Fz.to_string c)
        (Fz.to_string (Fz.of_string (Fz.to_string c)));
      match Fuzzer.run_case c with
      | Fuzzer.Pass _ -> ()
      | Fuzzer.Fail f ->
          Alcotest.failf "%s regressed: oracle %s: %s" name f.Fuzzer.fz_oracle
            f.Fuzzer.fz_detail)
    cases

(* A fully hidden library reached twice in one graph must build: its two
   occurrences mint distinct aliases, so every library stays clean. *)
let test_diamond_hidden_dep () =
  let ic = open_in_bin (Filename.concat corpus_dir "diamond_hidden_dep.fuzzcase") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Fuzzer.run_case (Fz.of_string text) with
  | Fuzzer.Pass { clean_libs; _ } ->
      Alcotest.(check int) "every library clean" 4 clean_libs
  | Fuzzer.Fail f ->
      Alcotest.failf "oracle %s: %s" f.Fuzzer.fz_oracle f.Fuzzer.fz_detail

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "seed schedule" `Quick test_derive_seed_schedule;
        ] );
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_of_string_rejects_garbage;
        ] );
      ( "shrink",
        [ Alcotest.test_case "candidates" `Quick test_shrink_candidates ] );
      ( "oracles",
        [
          Alcotest.test_case "clean seed passes" `Quick test_run_case_clean_seed;
          Alcotest.test_case "fuzz smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "reduce keeps oracle" `Quick
            test_reduce_keeps_failure_oracle;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replays" `Quick test_corpus_replays;
          Alcotest.test_case "diamond hidden dep" `Quick test_diamond_hidden_dep;
        ] );
    ]
