(* Tests of the residency layer: cache <-> arena coherence, the
   invariant checker, deterministic fault injection, and regressions
   for the historical divergence bugs (each of which failed against the
   pre-residency server):

   - a stale cached candidate caused the server to link an *empty*
     module instead of re-evaluating the real graph;
   - the hit-path acceptability check looked at one byte of the text
     arena and ignored the data arena entirely;
   - the hit-path re-reservation swallowed [Error _] from
     [Placement.reserve], silently mapping over another owner's range;
   - evicting a [static:] entry released lib-arena intervals it never
     owned, and the eviction tie-break ignored its documented
     alternates-before-primaries order. *)

module Placement = Constraints.Placement

let build_libc s = Omos.Server.build s @@ Omos.Server.library "/lib/libc"

let text_size (b : Omos.Server.built) : int =
  match Linker.Image.text_segment b.Omos.Server.entry.Omos.Cache.image with
  | Some seg -> Bytes.length seg.Linker.Image.bytes
  | None -> 0

let has_symbol (b : Omos.Server.built) (name : string) : bool =
  Linker.Image.find_symbol b.Omos.Server.entry.Omos.Cache.image name <> None

let check_clean s =
  Alcotest.(check (list string))
    "invariants hold" []
    (List.map Omos.Residency.violation_message
       (Omos.Residency.check_invariants (Omos.Server.residency s)))

let owner_intervals arena owner =
  List.filter (fun (_, _, o) -> o = owner) (Placement.intervals arena)

(* -- evict-then-reinstantiate round trip -------------------------------- *)

let test_round_trip () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  Alcotest.(check string)
    "placed" "placed"
    (Omos.Cache.residency_to_string b1.Omos.Server.entry.Omos.Cache.residency);
  check_clean s;
  let n = Omos.Server.evict_to_budget s ~bytes:0 in
  Alcotest.(check bool) "something evicted" true (n >= 1);
  Alcotest.(check bool) "built is stale" true (Omos.Server.built_evicted b1);
  Alcotest.(check (list string))
    "text reservation released" []
    (List.map (fun _ -> "iv") (owner_intervals (Omos.Server.text_arena s) "/lib/libc"));
  Alcotest.(check (list string))
    "data reservation released" []
    (List.map (fun _ -> "iv") (owner_intervals (Omos.Server.data_arena s) "/lib/libc"));
  (* a stale built must be refused, not silently mapped *)
  let p =
    Simos.Kernel.create_process (Omos.Server.kernel s) ~args:[ "stale" ]
  in
  Alcotest.(check bool) "stale map refused" true
    (try
       Omos.Server.map_into s p b1;
       false
     with Omos.Server.Server_error _ -> true);
  (* re-instantiation rebuilds, back at the preferred addresses *)
  let b2 = build_libc s in
  Alcotest.(check int)
    "same text base after round trip" b1.Omos.Server.entry.Omos.Cache.text_base
    b2.Omos.Server.entry.Omos.Cache.text_base;
  Alcotest.(check bool) "image non-empty" true (text_size b2 > 0);
  check_clean s

(* -- regression: stale candidate must not shadow the real graph --------- *)

let test_stale_candidate_rebuilds_real_graph () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  Alcotest.(check bool) "cold build has strlen" true (has_symbol b1 "strlen");
  (* steal libc's text range: release it and squat its base *)
  let base = b1.Omos.Server.entry.Omos.Cache.text_base in
  Placement.release (Omos.Server.text_arena s) ~lo:base;
  (match Placement.reserve (Omos.Server.text_arena s) ~lo:base ~size:0x1000 "squatter" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the unacceptable candidate sent the server down a path
     that linked Jigsaw.Module_ops.v [] — an empty image *)
  let b2 = build_libc s in
  Alcotest.(check bool) "rebuild is not empty" true (text_size b2 > 0);
  Alcotest.(check bool) "rebuild has strlen" true (has_symbol b2 "strlen");
  Alcotest.(check bool)
    "rebuilt at an alternate base" true
    (b2.Omos.Server.entry.Omos.Cache.text_base <> base);
  check_clean s

(* -- regression: acceptability must cover the full text extent ---------- *)

let test_full_extent_acceptable_text () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let base = b1.Omos.Server.entry.Omos.Cache.text_base in
  Alcotest.(check bool)
    "libc text spans multiple pages" true (text_size b1 > 0x1000);
  (* free libc's range but squat a page in its *tail*: the first byte
     of the old placement stays free, the full extent does not *)
  Placement.release (Omos.Server.text_arena s) ~lo:base;
  (match
     Placement.reserve (Omos.Server.text_arena s) ~lo:(base + 0x1000) ~size:0x1000
       "squatter"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the 1-byte check revived the entry and the swallowed
     reserve error left it mapped over the squatter *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "not revived over the squatter" true
    (b2.Omos.Server.entry.Omos.Cache.text_base <> base);
  let squatter_alive =
    owner_intervals (Omos.Server.text_arena s) "squatter" <> []
  in
  Alcotest.(check bool) "squatter interval intact" true squatter_alive;
  check_clean s

(* -- regression: acceptability must also cover the data arena ----------- *)

let test_full_extent_acceptable_data () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let dbase = b1.Omos.Server.entry.Omos.Cache.data_base in
  (* steal the data placement outright; text left untouched *)
  Placement.release (Omos.Server.data_arena s) ~lo:dbase;
  (match
     Placement.reserve (Omos.Server.data_arena s) ~lo:dbase ~size:0x1000 "squatter"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "squat failed");
  (* pre-fix: the data arena was never consulted — the entry was
     revived at a data base now owned by someone else *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "not revived over the data squatter" true
    (b2.Omos.Server.entry.Omos.Cache.data_base <> dbase);
  check_clean s

(* -- regression: static eviction must not release foreign intervals ----- *)

let test_static_eviction_preserves_foreign_intervals () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (* an unrelated interval that happens to start at the static bases
     (pre-fix, evicting a static: entry blindly released these) *)
  (match
     Placement.reserve (Omos.Server.text_arena s) ~lo:Omos.Server.client_text_base
       ~size:0x1000 "external"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "external text reserve failed");
  (match
     Placement.reserve (Omos.Server.data_arena s) ~lo:Omos.Server.client_data_base
       ~size:0x1000 "external"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "external data reserve failed");
  let obj = Minic.Driver.compile ~name:"app" "int main() { return 7; }" in
  let b =
    Omos.Server.build s @@ Omos.Server.static ~name:"app" (Blueprint.Mgraph.Leaf obj)
  in
  Alcotest.(check string)
    "static entry" "static"
    (Omos.Cache.residency_to_string b.Omos.Server.entry.Omos.Cache.residency);
  let n = Omos.Server.evict_to_budget s ~bytes:0 in
  Alcotest.(check bool) "static entry evicted" true (n >= 1);
  Alcotest.(check int)
    "external text interval survives" 1
    (List.length (owner_intervals (Omos.Server.text_arena s) "external"));
  Alcotest.(check int)
    "external data interval survives" 1
    (List.length (owner_intervals (Omos.Server.data_arena s) "external"));
  check_clean s

(* -- regression: eviction tie-break (alternates before primaries) ------- *)

let dummy_image name =
  let a = Sof.Asm.create name in
  Sof.Asm.label a "e";
  Sof.Asm.instr a Svm.Isa.Halt;
  fst
    (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x2000 }
       [ Sof.Asm.finish a ])

let test_evict_tiebreak_alternates_first () =
  let c = Omos.Cache.create () in
  let primary =
    Omos.Cache.insert c ~key:"k" ~text_base:0x1000 ~data_base:0x2000
      (dummy_image "primary")
  in
  let alternate =
    Omos.Cache.insert c ~key:"k" ~text_base:0x9000 ~data_base:0xA000
      (dummy_image "alternate")
  in
  Alcotest.(check int) "equal hit counts" primary.Omos.Cache.hits
    alternate.Omos.Cache.hits;
  let total = (Omos.Cache.stats c).Omos.Cache.disk_bytes_total in
  (* force exactly one eviction: with equal hits, the documented order
     evicts the alternate placement, not the primary *)
  let victims = Omos.Cache.evict_to_budget c ~bytes:(total - 1) in
  Alcotest.(check (list int))
    "alternate evicted first" [ 0x9000 ]
    (List.map (fun (e : Omos.Cache.entry) -> e.Omos.Cache.text_base) victims);
  Alcotest.(check (list int))
    "primary survives" [ 0x1000 ]
    (List.map
       (fun (e : Omos.Cache.entry) -> e.Omos.Cache.text_base)
       (Omos.Cache.candidates c "k"))

(* Among equal hits, alternates go first, then the oldest. The keys
   were chosen so that the cache table lists them in another order than
   they were inserted in. *)
let test_evict_tiebreak_oldest_first () =
  let c = Omos.Cache.create () in
  let insert key base =
    Omos.Cache.insert c ~key ~text_base:base ~data_base:0x2000 (dummy_image "img")
  in
  let oldest = insert "/t/a" 0x1000 in
  ignore (insert "/t/b" 0x3000);
  ignore (insert "/t/c" 0x5000);
  let alternate = insert "/t/b" 0x7000 in
  let total = (Omos.Cache.stats c).Omos.Cache.disk_bytes_total in
  let victims =
    Omos.Cache.evict_to_budget c
      ~bytes:(total - alternate.Omos.Cache.disk_bytes - oldest.Omos.Cache.disk_bytes)
  in
  let bases es =
    List.sort compare (List.map (fun (e : Omos.Cache.entry) -> e.Omos.Cache.text_base) es)
  in
  Alcotest.(check (list int)) "the alternate and the oldest primary" [ 0x1000; 0x7000 ]
    (bases victims);
  Alcotest.(check (list int)) "the younger primaries stay" [ 0x3000; 0x5000 ]
    (bases (Omos.Cache.to_list c))

(* -- fault injection: reserve failure on the hit path ------------------- *)

let faults_only ?(seed = 42) ?(place_conflict = 0.0) ?(evict_storm = 0.0)
    ?(reserve_fail = 0.0) () : Omos.Residency.faults =
  { Omos.Residency.seed; place_conflict; evict_storm; reserve_fail }

let test_fault_reserve_fail () =
  let w = Omos.World.create ~faults:(faults_only ~reserve_fail:1.0 ()) () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  let conflicts0 = List.length (Omos.Server.conflicts s) in
  let fails0 = Telemetry.Counter.get "residency.faults.reserve_fail" in
  (* warm request: the hit revives a candidate, the injected reserve
     failure turns it into a recorded conflict + alternate rebuild *)
  let b2 = build_libc s in
  Alcotest.(check bool)
    "alternate placement" true
    (b2.Omos.Server.entry.Omos.Cache.text_base
    <> b1.Omos.Server.entry.Omos.Cache.text_base);
  Alcotest.(check bool) "rebuild is real" true (has_symbol b2 "strlen");
  Alcotest.(check bool)
    "conflict recorded" true
    (List.length (Omos.Server.conflicts s) > conflicts0);
  Alcotest.(check bool)
    "fault counted" true
    (Telemetry.Counter.get "residency.faults.reserve_fail" > fails0);
  check_clean s

(* -- fault injection: eviction storms ----------------------------------- *)

let test_fault_evict_storm () =
  let w = Omos.World.create ~faults:(faults_only ~seed:7 ~evict_storm:1.0 ()) () in
  let s = w.Omos.World.server in
  let storms0 = Telemetry.Counter.get "residency.faults.evict_storm" in
  let r1 = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  Alcotest.(check bool) "cold build" false r1.Omos.Server.cache_hit;
  (* the storm fires before the second request, so it can never be a
     cache hit: the whole cache was just evicted *)
  let r2 = Omos.Server.instantiate s (Omos.Server.library "/lib/libc") in
  Alcotest.(check bool) "storm forces rebuild" false r2.Omos.Server.cache_hit;
  Alcotest.(check bool)
    "storms counted" true
    (Telemetry.Counter.get "residency.faults.evict_storm" >= storms0 + 2);
  check_clean s

(* -- fault injection: placement conflicts ------------------------------- *)

let test_fault_place_conflict () =
  let w = Omos.World.create ~faults:(faults_only ~seed:3 ~place_conflict:1.0 ()) () in
  let s = w.Omos.World.server in
  let b1 = build_libc s in
  (* libc's constraint list wants T at 0x100000; the injected blocker
     forces an alternate and a recorded conflict *)
  Alcotest.(check bool)
    "preferred base denied" true
    (b1.Omos.Server.entry.Omos.Cache.text_base <> 0x100000);
  Alcotest.(check bool)
    "conflict recorded" true
    (Omos.Server.conflicts s <> []);
  Alcotest.(check bool)
    "fault counted" true
    (Telemetry.Counter.get "residency.faults.place_conflict" > 0);
  (* blockers never outlive the placement they perturb *)
  Alcotest.(check (list int))
    "no blocker left in text arena" []
    (List.map
       (fun (lo, _, _) -> lo)
       (owner_intervals (Omos.Server.text_arena s) "fault:conflict"));
  check_clean s

(* -- fault determinism --------------------------------------------------- *)

let test_fault_determinism () =
  let run () =
    let w =
      Omos.World.create ~faults:(faults_only ~seed:42 ~reserve_fail:0.6 ()) ()
    in
    let s = w.Omos.World.server in
    for _ = 1 to 5 do
      ignore (build_libc s)
    done;
    (List.length (Omos.Server.conflicts s), (Omos.Server.stats s).Omos.Server.links)
  in
  let c1, l1 = run () in
  let c2, l2 = run () in
  Alcotest.(check int) "same conflicts" c1 c2;
  Alcotest.(check int) "same links" l1 l2

(* -- the checker detects each seeded violation class --------------------- *)

let codes vs =
  List.sort_uniq compare (List.map (fun v -> v.Omos.Residency.v_code) vs)

let with_corrupted kind =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  ignore (build_libc s);
  check_clean s;
  Omos.Residency.inject (Omos.Server.residency s) kind;
  Omos.Residency.check_invariants (Omos.Server.residency s)

let test_detects_lost_reservation () =
  let vs = with_corrupted Omos.Residency.Lost_reservation in
  Alcotest.(check (list string)) "unreserved detected" [ "unreserved" ] (codes vs)

let test_detects_orphaned_interval () =
  let vs = with_corrupted Omos.Residency.Orphaned_interval in
  Alcotest.(check (list string)) "orphans detected" [ "orphan" ] (codes vs)

let test_detects_overlap () =
  let vs = with_corrupted Omos.Residency.Overlapping_entries in
  Alcotest.(check (list string)) "overlap detected" [ "overlap" ] (codes vs);
  (* and the exception variant raises *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  ignore (build_libc s);
  Omos.Residency.inject (Omos.Server.residency s) Omos.Residency.Overlapping_entries;
  Alcotest.(check bool) "check_exn raises" true
    (try
       Omos.Residency.check_exn (Omos.Server.residency s);
       false
     with Omos.Residency.Violation _ -> true)

(* -- the self-check runs on the request and eviction paths --------------- *)

let test_self_check_coverage () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let checks0 = Telemetry.Counter.get "residency.invariant_checks" in
  ignore (build_libc s);
  let checks1 = Telemetry.Counter.get "residency.invariant_checks" in
  Alcotest.(check bool) "instantiate self-checks" true (checks1 > checks0);
  ignore (Omos.Server.evict_to_budget s ~bytes:0);
  let checks2 = Telemetry.Counter.get "residency.invariant_checks" in
  Alcotest.(check bool) "evict self-checks" true (checks2 > checks1)

(* -- schemes survive eviction between invocations ------------------------ *)

(* Each scheme's program runs the same after everything it was built
   from is evicted, and after a library built in between takes the
   lowest free addresses, so that every library the program re-requests
   is placed elsewhere. *)
let test_scheme_survives_eviction () =
  let squat s =
    Omos.Server.register_meta_source s "/lib/squat" "(merge /lib/libl.o)";
    ignore (Omos.Server.build s (Omos.Server.library "/lib/squat"))
  in
  List.iter
    (fun (input, name, client, libs, args, between) ->
      let w = Omos.World.create () in
      let rt = w.Omos.World.rt and s = w.Omos.World.server in
      let client = client w in
      let progs =
        [
          Omos.Schemes.static_program rt ~name ~client ~libs;
          Omos.Schemes.dynamic_program rt ~name ~client ~libs;
          Omos.Schemes.self_contained_program rt ~name ~client ~libs ();
          Omos.Schemes.partial_image_program rt ~name ~client ~libs;
        ]
      in
      let before = List.map (fun prog -> Omos.Schemes.invoke rt prog ~args) progs in
      ignore (Omos.Server.evict_to_budget s ~bytes:0);
      between s;
      List.iter2
        (fun prog (code1, out1) ->
          let label what = Printf.sprintf "%s, %s: %s" input prog.Omos.Schemes.scheme what in
          let code2, out2 = Omos.Schemes.invoke rt prog ~args in
          Alcotest.(check int) (label "exit code unchanged") code1 code2;
          Alcotest.(check string) (label "output unchanged") out1 out2)
        progs before;
      check_clean s)
    [
      ("ls, evicted", "ls", Omos.World.ls_client, Omos.World.ls_libs,
       Omos.World.ls_single_args, ignore);
      ("codegen, evicted and squatted", "codegen", Omos.World.codegen_client,
       Omos.World.codegen_libs, Omos.World.codegen_args, squat);
    ]

(* An entry that was mapped releases the image it cached, and the
   frames with it, when it leaves the cache, evicted or demoted because
   its reservation was lost. A self-contained ls runs; then, each
   round, libc moves and ls runs again, mapping libc and the client
   relinked against it somewhere new. The old libc entry holds nothing
   for mapping any more. Two ways to move libc: evict everything and
   let squatter libraries (one more each round) take the lowest free
   addresses, after which the resident frames stay those of one run;
   or release libc's text reservation, squat its base and rebuild it,
   which leaves the client relinked against the old libc cached, and
   mapped. *)
let test_eviction_drops_page_cache () =
  let evict_and_squat s round =
    ignore (Omos.Server.evict_to_budget s ~bytes:0);
    List.iteri
      (fun i l -> if i <= round then ignore (Omos.Server.build s (Omos.Server.library l)))
      [ "/lib/libl"; "/lib/libm"; "/lib/libC" ]
  in
  let steal_reservation s round =
    let base = (build_libc s).Omos.Server.entry.Omos.Cache.text_base in
    Placement.release (Omos.Server.text_arena s) ~lo:base;
    (match
       Placement.reserve (Omos.Server.text_arena s) ~lo:base ~size:0x1000
         (Printf.sprintf "squatter%d" round)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "squat failed");
    ignore (build_libc s)
  in
  List.iter
    (fun (how, move, whole_cache) ->
      let w = Omos.World.create () in
      let rt = w.Omos.World.rt and s = w.Omos.World.server in
      let k = Omos.Server.kernel s in
      let ls =
        Omos.Schemes.self_contained_program rt ~name:"ls"
          ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs ()
      in
      let run () =
        ignore (Omos.Schemes.invoke rt ls ~args:Omos.World.ls_single_args);
        ((build_libc s).Omos.Server.entry, Simos.Phys.resident_pages k.Simos.Kernel.phys)
      in
      let libc0, pages = run () in
      let last = ref libc0 in
      for round = 0 to 2 do
        move s round;
        let libc, pages' = run () in
        let label what = Printf.sprintf "%s, round %d: %s" how (round + 1) what in
        Alcotest.(check bool) (label "libc moved") true
          (libc.Omos.Cache.text_base <> !last.Omos.Cache.text_base);
        Alcotest.(check bool) (label "the old libc released its image") true
          (Option.is_none !last.Omos.Cache.mapped);
        Alcotest.(check bool) (label "the new libc mapped") true
          (Option.is_some libc.Omos.Cache.mapped);
        last := libc;
        if whole_cache then Alcotest.(check int) (label "resident pages") pages pages';
        check_clean s
      done)
    [
      ("evicted", evict_and_squat, true);
      ("reservation lost", steal_reservation, false);
    ]

(* -- the fast check against the pairwise report -------------------------- *)

(* A random residency state: stray intervals of managed and unmanaged
   owners, then entries of a few owners at the same few bases, most
   placed, most of whose extents are reserved (a reservation that
   collides with an earlier interval fails, and one the owner already
   holds there may be too short). Bases collide often, so more than
   half the states hold an overlap, an orphan or an unreserved
   extent. *)
type entry_spec = {
  owner : int;
  text_base : int;
  text_size : int;
  data_base : int;
  data_size : int;
  bss : int;
  state : Omos.Cache.residency;
  reserve_text : bool;
  reserve_data : bool;
}

type state_spec = { entries : entry_spec list; strays : (bool * int * int * int) list }

let owners = [| "/lib/a"; "/lib/b"; "/lib/c"; "/lib/d" |]
let text_at k = 0x10000 + (k * 0x1000)
let data_at k = 0x40000000 + (k * 0x1000)

let gen_state : state_spec QCheck.Gen.t =
  let open QCheck.Gen in
  let entry =
    int_bound 3 >>= fun owner ->
    int_bound 5 >>= fun tb ->
    oneofl [ 0; 1; 0x800; 0x1000; 0x1800 ] >>= fun text_size ->
    int_bound 5 >>= fun db ->
    oneofl [ 0; 4; 0x1000 ] >>= fun data_size ->
    oneofl [ 0; 0x10; 0x1000 ] >>= fun bss ->
    frequency
      [
        (6, return Omos.Cache.Placed);
        (1, return Omos.Cache.Evicted);
        (1, return Omos.Cache.Static);
      ]
    >>= fun state ->
    frequency [ (9, return true); (1, return false) ] >>= fun reserve_text ->
    frequency [ (9, return true); (1, return false) ] >|= fun reserve_data ->
    {
      owner;
      text_base = text_at tb;
      text_size;
      data_base = data_at db;
      data_size;
      bss;
      state;
      reserve_text;
      reserve_data;
    }
  in
  (* stray sizes often fall one byte short of, or reach exactly, an
     extent's end *)
  let size =
    frequency
      [
        (3, oneofl [ 3; 0xF; 0x7FF; 0x800; 0xFFF; 0x1000; 0x1003; 0x17FF; 0x1800; 0x1FFF ]);
        (1, int_range 1 0x2000);
      ]
  in
  let stray = quad bool (int_bound 3) (int_bound 5) size in
  pair (list_size (int_range 0 6) entry) (list_size (int_range 0 3) stray)
  >|= fun (entries, strays) -> { entries; strays }

let print_state (s : state_spec) =
  String.concat "\n"
    (List.map
       (fun e ->
         Printf.sprintf "%s %s text 0x%x+0x%x%s data 0x%x+0x%x+0x%x%s" owners.(e.owner)
           (Omos.Cache.residency_to_string e.state) e.text_base e.text_size
           (if e.reserve_text then "" else " (unreserved)")
           e.data_base e.data_size e.bss
           (if e.reserve_data then "" else " (unreserved)"))
       s.entries
    @ List.map
        (fun (text, o, k, size) ->
          Printf.sprintf "stray %s interval of %s at %d, 0x%x bytes"
            (if text then "text" else "data") owners.(o) k size)
        s.strays)

let image_of (e : entry_spec) : Linker.Image.t =
  let seg name vaddr size writable =
    { Linker.Image.seg_name = name; vaddr; bytes = Bytes.create size; writable }
  in
  {
    Linker.Image.name = owners.(e.owner);
    segments =
      (if e.text_size > 0 then [ seg "text" e.text_base e.text_size false ] else [])
      @ if e.data_size > 0 then [ seg "data" e.data_base e.data_size true ] else [];
    bss_vaddr = e.data_base + e.data_size;
    bss_size = e.bss;
    entry = -1;
    symtab = [];
    reloc_work = 0;
  }

(* Builds the state; a stray's unmanaged owner is "/dyn". *)
let residency_of (s : state_spec) : Omos.Residency.t * Omos.Cache.t =
  let cache = Omos.Cache.create () in
  let text_arena = Placement.create () and data_arena = Placement.create () in
  let r = Omos.Residency.create ~cache ~text_arena ~data_arena () in
  List.iter
    (fun (text, o, k, size) ->
      let arena, lo = if text then (text_arena, text_at k) else (data_arena, data_at k) in
      let owner = if o = 3 then "/dyn" else owners.(o) in
      ignore (Placement.reserve arena ~lo ~size owner))
    s.strays;
  List.iteri
    (fun i e ->
      let entry =
        Omos.Cache.insert cache ~key:(string_of_int i) ~text_base:e.text_base
          ~data_base:e.data_base (image_of e)
      in
      let reserve arena (lo, size) =
        ignore (Placement.reserve arena ~lo ~size owners.(e.owner))
      in
      if e.state = Omos.Cache.Placed then begin
        Omos.Residency.note_placed r entry;
        if e.reserve_text then reserve text_arena (Omos.Residency.text_extent entry);
        if e.reserve_data then reserve data_arena (Omos.Residency.data_extent entry)
      end
      else entry.Omos.Cache.residency <- e.state)
    s.entries;
  (r, cache)

(* The boundaries the property seldom draws: an owner's interval at the
   base that ends one byte short of the extent, and one that ends
   exactly at it. *)
let test_clean_boundaries () =
  let entry =
    {
      owner = 0;
      text_base = text_at 0;
      text_size = 0x800;
      data_base = data_at 0;
      data_size = 4;
      bss = 0;
      state = Omos.Cache.Placed;
      reserve_text = false;
      reserve_data = true;
    }
  in
  List.iter
    (fun (size, want) ->
      let r, cache = residency_of { entries = [ entry ]; strays = [ (true, 0, 0, size) ] } in
      let live = Omos.Cache.to_list cache in
      Alcotest.(check (list string))
        (Printf.sprintf "interval of 0x%x" size) want
        (List.map (fun v -> v.Omos.Residency.v_code) (Omos.Residency.violations r live));
      Alcotest.(check bool) "clean" (want = []) (Omos.Residency.clean r live))
    [ (0x7FF, [ "unreserved" ]); (0x800, []) ]

let prop_clean_matches_pairwise =
  QCheck.Test.make ~count:5000 ~long_factor:20 ~name:"clean = no pairwise violation"
    (QCheck.make ~print:print_state gen_state) (fun s ->
      let r, cache = residency_of s in
      let live = Omos.Cache.to_list cache in
      Omos.Residency.clean r live = (Omos.Residency.violations r live = []))

let () =
  Alcotest.run "residency"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "evict-then-reinstantiate round trip" `Quick
            test_round_trip;
          Alcotest.test_case "self-check on request and evict paths" `Quick
            test_self_check_coverage;
          Alcotest.test_case "eviction drops the page cache" `Quick
            test_eviction_drops_page_cache;
          Alcotest.test_case "schemes survive eviction" `Quick
            test_scheme_survives_eviction;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "stale candidate rebuilds real graph" `Quick
            test_stale_candidate_rebuilds_real_graph;
          Alcotest.test_case "full text extent checked" `Quick
            test_full_extent_acceptable_text;
          Alcotest.test_case "data arena checked" `Quick
            test_full_extent_acceptable_data;
          Alcotest.test_case "static eviction leaves foreign intervals" `Quick
            test_static_eviction_preserves_foreign_intervals;
          Alcotest.test_case "tie-break evicts alternates first" `Quick
            test_evict_tiebreak_alternates_first;
          Alcotest.test_case "tie-break then evicts the oldest" `Quick
            test_evict_tiebreak_oldest_first;
        ] );
      ( "faults",
        [
          Alcotest.test_case "reserve failure -> conflict + rebuild" `Quick
            test_fault_reserve_fail;
          Alcotest.test_case "eviction storm" `Quick test_fault_evict_storm;
          Alcotest.test_case "placement conflict" `Quick test_fault_place_conflict;
          Alcotest.test_case "deterministic under a seed" `Quick
            test_fault_determinism;
        ] );
      ( "detection",
        [
          Alcotest.test_case "lost reservation" `Quick test_detects_lost_reservation;
          Alcotest.test_case "orphaned interval" `Quick
            test_detects_orphaned_interval;
          Alcotest.test_case "overlapping entries" `Quick test_detects_overlap;
        ] );
      ( "fast check",
        [
          Alcotest.test_case "reservation boundaries" `Quick test_clean_boundaries;
          QCheck_alcotest.to_alcotest prop_clean_matches_pairwise;
        ] );
    ]
