(* Tests of the placement constraint system and the DeltaBlue solver. *)

open Constraints

(* -- placement --------------------------------------------------------- *)

let test_reserve_and_conflict () =
  let a = Placement.create () in
  (match Placement.reserve a ~lo:0x10000 ~size:0x2000 "libc" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first reserve should succeed");
  match Placement.reserve a ~lo:0x11000 ~size:0x1000 "libm" with
  | Error owner -> Alcotest.(check string) "conflict owner" "libc" owner
  | Ok () -> Alcotest.fail "overlap not detected"

let test_release () =
  let a = Placement.create () in
  ignore (Placement.reserve a ~lo:0x10000 ~size:0x1000 "x");
  Placement.release a ~lo:0x10000;
  Alcotest.(check bool) "free again" true (Placement.free a ~lo:0x10000 ~hi:0x11000)

let test_place_default_first_fit () =
  let a = Placement.create ~region_lo:0x1000 () in
  let d1 = Placement.place a ~size:0x800 ~owner:"a" () in
  let d2 = Placement.place a ~size:0x800 ~owner:"b" () in
  Alcotest.(check int) "first at region start" 0x1000 d1.Placement.base;
  Alcotest.(check bool) "no overlap" true (d2.Placement.base >= d1.Placement.base + 0x1000)

let test_place_at_pref () =
  let a = Placement.create () in
  let d = Placement.place a ~size:0x1000 ~owner:"libc"
      ~prefs:[ (10, Placement.At 0x100000) ] ()
  in
  Alcotest.(check int) "exact" 0x100000 d.Placement.base;
  Alcotest.(check bool) "pref honoured" true (d.Placement.satisfied = Some (Placement.At 0x100000))

let test_place_at_conflicting_falls_through () =
  let a = Placement.create () in
  ignore (Placement.reserve a ~lo:0x100000 ~size:0x1000 "other");
  let d = Placement.place a ~size:0x1000 ~owner:"libc"
      ~prefs:[ (10, Placement.At 0x100000); (5, Placement.Near 0x100000) ] ()
  in
  Alcotest.(check bool) "not the occupied base" true (d.Placement.base <> 0x100000);
  Alcotest.(check bool) "fell through to Near" true
    (d.Placement.satisfied = Some (Placement.Near 0x100000))

let test_place_near_picks_closest () =
  let a = Placement.create () in
  ignore (Placement.reserve a ~lo:0x200000 ~size:0x3000 "wall");
  let d = Placement.place a ~size:0x1000 ~owner:"x"
      ~prefs:[ (1, Placement.Near 0x200000) ] ()
  in
  (* closest free page-aligned base to 0x200000 is 0x1FF000 (below) or
     0x203000 (above); below is closer *)
  Alcotest.(check int) "closest" 0x1FF000 d.Placement.base

let test_place_within () =
  let a = Placement.create () in
  let d = Placement.place a ~size:0x1000 ~owner:"x"
      ~prefs:[ (1, Placement.Within (0x300000, 0x310000)) ] ()
  in
  Alcotest.(check bool) "inside" true
    (d.Placement.base >= 0x300000 && d.Placement.base + 0x1000 <= 0x310000)

let test_place_avoid () =
  let a = Placement.create ~region_lo:0x1000 ~region_hi:0x10000 () in
  let d = Placement.place a ~size:0x1000 ~owner:"x"
      ~prefs:[ (1, Placement.Avoid (0x1000, 0x8000)) ] ()
  in
  Alcotest.(check bool) "avoided" true
    (d.Placement.base + 0x1000 <= 0x1000 || d.Placement.base >= 0x8000)

let test_no_space () =
  let a = Placement.create ~region_lo:0x1000 ~region_hi:0x3000 () in
  ignore (Placement.place a ~size:0x2000 ~owner:"big" ());
  try
    ignore (Placement.place a ~size:0x1000 ~owner:"more" ());
    Alcotest.fail "expected No_space"
  with Placement.No_space _ -> ()

let test_alignment () =
  let a = Placement.create () in
  let d = Placement.place a ~size:10 ~owner:"tiny" ~prefs:[ (1, Placement.Near 0x12345) ] () in
  Alcotest.(check int) "page aligned" 0 (d.Placement.base mod 0x1000)

let prop_no_overlaps =
  QCheck.Test.make ~count:100 ~name:"placements never overlap"
    QCheck.(list_of_size (Gen.int_range 1 20) (QCheck.int_range 1 0x4000))
    (fun sizes ->
      let a = Placement.create () in
      List.iteri (fun i size ->
          ignore (Placement.place a ~size ~owner:(string_of_int i) ()))
        sizes;
      let ivs = List.sort compare (Placement.intervals a) in
      let rec ok = function
        | (_, hi1, _) :: ((lo2, _, _) as b) :: rest -> hi1 <= lo2 && ok (b :: rest)
        | _ -> true
      in
      ok ivs)

(* -- deltablue --------------------------------------------------------- *)

let test_chain () =
  (* value edited at head must propagate to tail through required chain *)
  Alcotest.(check int) "chain propagates" 100 (Deltablue.chain_test 50)

let test_projection () =
  Alcotest.(check bool) "projection consistent" true (Deltablue.projection_test 30)

let test_stay_holds () =
  let p = Deltablue.create () in
  let v = Deltablue.variable "v" 3 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.strong_default (Deltablue.Stay v));
  Alcotest.(check int) "stays" 3 v.Deltablue.value

let test_equal_propagates_on_add () =
  let p = Deltablue.create () in
  let a = Deltablue.variable "a" 10 in
  let b = Deltablue.variable "b" 0 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.normal (Deltablue.Stay a));
  ignore (Deltablue.add_constraint p ~strength:Deltablue.required (Deltablue.Equal (a, b)));
  Alcotest.(check int) "b := a" 10 b.Deltablue.value

let test_edit_beats_weak_stay () =
  let p = Deltablue.create () in
  let a = Deltablue.variable "a" 1 in
  let b = Deltablue.variable "b" 2 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.weak_default (Deltablue.Stay b));
  ignore (Deltablue.add_constraint p ~strength:Deltablue.required (Deltablue.Equal (a, b)));
  let e = Deltablue.add_constraint p ~strength:Deltablue.preferred (Deltablue.Edit a) in
  let plan = Deltablue.extract_plan_from_edits p in
  a.Deltablue.value <- 42;
  Deltablue.execute_plan plan;
  Alcotest.(check int) "b follows edit" 42 b.Deltablue.value;
  Deltablue.remove_constraint p e

let test_scale_backward () =
  let p = Deltablue.create () in
  let src = Deltablue.variable "src" 0 in
  let dst = Deltablue.variable "dst" 0 in
  let scale = Deltablue.variable "scale" 10 in
  let offset = Deltablue.variable "offset" 1000 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.normal (Deltablue.Stay src));
  ignore
    (Deltablue.add_constraint p ~strength:Deltablue.required
       (Deltablue.Scale (src, scale, offset, dst)));
  (* editing dst forces the backward method: src := (dst-offset)/scale *)
  let e = Deltablue.add_constraint p ~strength:Deltablue.preferred (Deltablue.Edit dst) in
  let plan = Deltablue.extract_plan_from_edits p in
  dst.Deltablue.value <- 1100;
  Deltablue.execute_plan plan;
  Alcotest.(check int) "src derived" 10 src.Deltablue.value;
  Deltablue.remove_constraint p e

let test_remove_restores () =
  let p = Deltablue.create () in
  let a = Deltablue.variable "a" 1 in
  let b = Deltablue.variable "b" 2 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.weak_default (Deltablue.Stay b));
  let eq = Deltablue.add_constraint p ~strength:Deltablue.required (Deltablue.Equal (a, b)) in
  Deltablue.remove_constraint p eq;
  (* after removal b is free again: the weak stay re-satisfies *)
  Alcotest.(check bool) "b determined by stay again" true
    (match b.Deltablue.determined_by with
    | Some c -> (match c.Deltablue.kind with Deltablue.Stay _ -> true | _ -> false)
    | None -> false)

let test_required_conflict_raises () =
  let p = Deltablue.create () in
  let a = Deltablue.variable "a" 1 in
  ignore (Deltablue.add_constraint p ~strength:Deltablue.required (Deltablue.Edit a));
  try
    (* a second required edit of the same variable cannot be satisfied *)
    ignore (Deltablue.add_constraint p ~strength:Deltablue.required (Deltablue.Edit a));
    Alcotest.fail "expected Unsatisfiable_required"
  with Deltablue.Unsatisfiable_required -> ()

(* -- db_layout: DeltaBlue-backed incremental layout ------------------- *)

let mk_layout () =
  Constraints.Db_layout.create ~base:0x100000
    [ ("libc", 0x40000); ("libm", 0x8000); ("libal1", 0x10000); ("libal2", 0x10000) ]

let test_db_layout_initial () =
  let l = mk_layout () in
  Alcotest.(check int) "libc" 0x100000 (Constraints.Db_layout.base_of l "libc");
  Alcotest.(check int) "libm" 0x140000 (Constraints.Db_layout.base_of l "libm");
  Alcotest.(check int) "libal1" 0x148000 (Constraints.Db_layout.base_of l "libal1");
  Alcotest.(check int) "libal2" 0x158000 (Constraints.Db_layout.base_of l "libal2");
  Alcotest.(check bool) "packed" true (Constraints.Db_layout.packed l)

let test_db_layout_move () =
  let l = mk_layout () in
  Constraints.Db_layout.move l 0x200000;
  Alcotest.(check int) "libc moved" 0x200000 (Constraints.Db_layout.base_of l "libc");
  Alcotest.(check int) "libal2 follows" 0x258000 (Constraints.Db_layout.base_of l "libal2");
  Alcotest.(check bool) "still packed" true (Constraints.Db_layout.packed l)

let test_db_layout_resize () =
  let l = mk_layout () in
  (* libc grows by one page: everything after shifts, libc stays *)
  Constraints.Db_layout.resize l "libc" 0x41000;
  Alcotest.(check int) "libc unmoved" 0x100000 (Constraints.Db_layout.base_of l "libc");
  Alcotest.(check int) "libm shifted" 0x141000 (Constraints.Db_layout.base_of l "libm");
  Alcotest.(check int) "libal2 shifted" 0x159000 (Constraints.Db_layout.base_of l "libal2");
  Alcotest.(check bool) "packed after resize" true (Constraints.Db_layout.packed l);
  (* middle member resize leaves predecessors alone *)
  Constraints.Db_layout.resize l "libal1" 0x20000;
  Alcotest.(check int) "libm untouched" 0x141000 (Constraints.Db_layout.base_of l "libm");
  Alcotest.(check int) "libal2 reshifted" 0x169000 (Constraints.Db_layout.base_of l "libal2")

let test_db_layout_unknown () =
  let l = mk_layout () in
  try
    ignore (Constraints.Db_layout.base_of l "nope");
    Alcotest.fail "expected Unknown_member"
  with Constraints.Db_layout.Unknown_member _ -> ()

let prop_db_layout_always_packed =
  QCheck.Test.make ~count:50 ~name:"db layout stays packed under random edits"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (QCheck.int_range 0 3))
    (fun ops ->
      let l = mk_layout () in
      List.iteri
        (fun i op ->
          match op with
          | 0 -> Constraints.Db_layout.move l (0x100000 + (i * 0x1000))
          | 1 -> Constraints.Db_layout.resize l "libc" (0x40000 + (i * 0x100))
          | 2 -> Constraints.Db_layout.resize l "libm" (0x8000 + (i * 0x200))
          | _ -> Constraints.Db_layout.resize l "libal1" (0x10000 + (i * 0x80)))
        ops;
      Constraints.Db_layout.packed l)

let prop_chain_any_length =
  QCheck.Test.make ~count:30 ~name:"chain test for arbitrary lengths"
    (QCheck.int_range 1 200)
    (fun n -> Deltablue.chain_test n = 100)

let () =
  Alcotest.run "constraints"
    [
      ( "placement",
        [
          Alcotest.test_case "reserve/conflict" `Quick test_reserve_and_conflict;
          Alcotest.test_case "release" `Quick test_release;
          Alcotest.test_case "first fit" `Quick test_place_default_first_fit;
          Alcotest.test_case "At pref" `Quick test_place_at_pref;
          Alcotest.test_case "At conflict falls through" `Quick test_place_at_conflicting_falls_through;
          Alcotest.test_case "Near closest" `Quick test_place_near_picks_closest;
          Alcotest.test_case "Within" `Quick test_place_within;
          Alcotest.test_case "Avoid" `Quick test_place_avoid;
          Alcotest.test_case "no space" `Quick test_no_space;
          Alcotest.test_case "alignment" `Quick test_alignment;
        ] );
      ( "deltablue",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "stay" `Quick test_stay_holds;
          Alcotest.test_case "equal propagates" `Quick test_equal_propagates_on_add;
          Alcotest.test_case "edit beats weak stay" `Quick test_edit_beats_weak_stay;
          Alcotest.test_case "scale backward" `Quick test_scale_backward;
          Alcotest.test_case "remove restores" `Quick test_remove_restores;
          Alcotest.test_case "required conflict" `Quick test_required_conflict_raises;
        ] );
      ( "db_layout",
        [
          Alcotest.test_case "initial packing" `Quick test_db_layout_initial;
          Alcotest.test_case "move" `Quick test_db_layout_move;
          Alcotest.test_case "resize" `Quick test_db_layout_resize;
          Alcotest.test_case "unknown member" `Quick test_db_layout_unknown;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_no_overlaps; prop_chain_any_length; prop_db_layout_always_packed ] );
    ]
