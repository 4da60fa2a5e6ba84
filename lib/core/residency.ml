(** The residency layer: joint ownership of the image cache and the
    address-space arenas. See residency.mli for the contract; the short
    version is that every {!Cache.entry} carries a residency state,
    arena reservations are acquired and released only through this
    module, {!check_invariants} asserts both sides agree, and a
    deterministic fault-injection hook (seeded by the simulated clock)
    reproduces the historical cache/arena divergence bugs on demand. *)

module P = Constraints.Placement

type faults = {
  seed : int;
  place_conflict : float;
  evict_storm : float;
  reserve_fail : float;
}

let no_faults =
  { seed = 0; place_conflict = 0.0; evict_storm = 0.0; reserve_fail = 0.0 }

type t = {
  cache : Cache.t;
  text_arena : P.t;
  data_arena : P.t;
  clock : unit -> float;
  faults : faults option;
  mutable rng : int;
  managed : (string, unit) Hashtbl.t; (* owners whose intervals we police *)
}

exception Violation of string

let tm_placed = Telemetry.Counter.make "residency.placed"
let tm_static = Telemetry.Counter.make "residency.static"
let tm_reacquired = Telemetry.Counter.make "residency.reacquired"
let tm_evicted = Telemetry.Counter.make "residency.evicted"
let tm_lost = Telemetry.Counter.make "residency.lost_reservations"
let tm_checks = Telemetry.Counter.make "residency.invariant_checks"
let tm_violations = Telemetry.Counter.make "residency.invariant_violations"
let tm_fault_conflict = Telemetry.Counter.make "residency.faults.place_conflict"
let tm_fault_storm = Telemetry.Counter.make "residency.faults.evict_storm"
let tm_fault_reserve = Telemetry.Counter.make "residency.faults.reserve_fail"
let tm_fault_injected = Telemetry.Counter.make "residency.faults.injected_violation"

let create ~cache ~text_arena ~data_arena ?(clock = Telemetry.now_us) ?faults ()
    : t =
  let seed = match faults with Some f -> f.seed | None -> 0 in
  {
    cache;
    text_arena;
    data_arena;
    clock;
    faults;
    rng = (seed lxor 0x9E3779B9) lor 1;
    managed = Hashtbl.create 16;
  }

(* -- deterministic fault stream ----------------------------------- *)

(* xorshift mixed with the simulated clock: the same seed and the same
   simulated schedule yield the same fault decisions. *)
let draw (t : t) : float =
  let x = t.rng lxor (int_of_float (t.clock ()) * 0x2545F491) in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- (x land max_int) lor 1;
  float_of_int (t.rng land 0xFFFFFF) /. float_of_int 0x1000000

type fault = Place_conflict | Evict_storm | Reserve_fail

let fires (t : t) (f : fault) : bool =
  match t.faults with
  | None -> false
  | Some cfg ->
      let rate =
        match f with
        | Place_conflict -> cfg.place_conflict
        | Evict_storm -> cfg.evict_storm
        | Reserve_fail -> cfg.reserve_fail
      in
      rate > 0.0 && draw t < rate

(* -- extents ------------------------------------------------------- *)

let text_extent (e : Cache.entry) : int * int =
  match Linker.Image.text_segment e.Cache.image with
  | Some s -> (e.Cache.text_base, max 1 (Bytes.length s.Linker.Image.bytes))
  | None -> (e.Cache.text_base, 1)

let data_extent (e : Cache.entry) : int * int =
  let img = e.Cache.image in
  match Linker.Image.data_segment img with
  | Some s ->
      ( e.Cache.data_base,
        max 1 (Bytes.length s.Linker.Image.bytes + img.Linker.Image.bss_size) )
  | None -> (e.Cache.data_base, max 1 img.Linker.Image.bss_size)

let owner_of (e : Cache.entry) : string = e.Cache.image.Linker.Image.name

(* Is there an interval under [owner] starting exactly at [lo] and
   covering [lo, lo+size)? *)
let owned_at arena ~owner ~lo ~size =
  List.exists
    (fun (ilo, ihi, o) -> o = owner && ilo = lo && ihi >= lo + size)
    (P.intervals arena)

let range_available arena ~owner ~lo ~size =
  owned_at arena ~owner ~lo ~size || P.free arena ~lo ~hi:(lo + size)

let acceptable (t : t) ~(owner : string) (e : Cache.entry) : bool =
  let tlo, tsz = text_extent e and dlo, dsz = data_extent e in
  range_available t.text_arena ~owner ~lo:tlo ~size:tsz
  && range_available t.data_arena ~owner ~lo:dlo ~size:dsz

let backed (t : t) (e : Cache.entry) : bool =
  let owner = owner_of e in
  let tlo, tsz = text_extent e and dlo, dsz = data_extent e in
  owned_at t.text_arena ~owner ~lo:tlo ~size:tsz
  && owned_at t.data_arena ~owner ~lo:dlo ~size:dsz

(* -- state transitions --------------------------------------------- *)

(* Residency is part of an image's story: every transition is appended
   to the entry's provenance record (when one is attached), stamped
   with the simulated clock — [ofe explain] shows the sequence. *)
let note_transition (t : t) (e : Cache.entry) (state : string) : unit =
  Telemetry.Flight.emit Telemetry.Flight.Transition (owner_of e) state 0.0;
  match e.Cache.provenance with
  | Some p -> Telemetry.Provenance.transition p ~at:(t.clock ()) state
  | None -> ()

let register (t : t) (owner : string) : unit = Hashtbl.replace t.managed owner ()

let align_up v a = (v + a - 1) / a * a

(* Ensure [lo, lo+size) is reserved under [owner]; [Ok true] means a
   fresh reservation was taken. Sizes are aligned the same way
   [Placement.place] aligns them, so re-reservations match the extents
   of the original placement. *)
let ensure arena ~owner ~lo ~size : (bool, string) result =
  if owned_at arena ~owner ~lo ~size then Ok false
  else
    let size = align_up size (P.align arena) in
    match P.reserve arena ~lo ~size owner with
    | Ok () -> Ok true
    | Error o -> Error o

let reacquire (t : t) ~(owner : string) (e : Cache.entry) :
    (unit, string) result =
  if fires t Reserve_fail then begin
    Telemetry.Counter.incr tm_fault_reserve;
    Telemetry.Flight.record_fault "residency.reserve_fail";
    Error "fault:reserve"
  end
  else begin
    let tlo, tsz = text_extent e and dlo, dsz = data_extent e in
    match ensure t.text_arena ~owner ~lo:tlo ~size:tsz with
    | Error o -> Error o
    | Ok fresh_text -> (
        match ensure t.data_arena ~owner ~lo:dlo ~size:dsz with
        | Error o ->
            (* never leave a half-established reservation behind *)
            if fresh_text then P.release t.text_arena ~lo:tlo;
            Error o
        | Ok _ ->
            e.Cache.residency <- Cache.Placed;
            register t owner;
            note_transition t e "reacquired";
            Telemetry.Counter.incr tm_reacquired;
            Ok ())
  end

let note_placed (t : t) (e : Cache.entry) : unit =
  e.Cache.residency <- Cache.Placed;
  register t (owner_of e);
  note_transition t e "placed";
  Telemetry.Counter.incr tm_placed

let note_static (t : t) (e : Cache.entry) : unit =
  e.Cache.residency <- Cache.Static;
  note_transition t e "static";
  Telemetry.Counter.incr tm_static

(* Release whichever of the entry's extents are still reserved under
   its owner. *)
let release_extents (t : t) (e : Cache.entry) : unit =
  let owner = owner_of e in
  let tlo, _ = text_extent e and dlo, _ = data_extent e in
  if owned_at t.text_arena ~owner ~lo:tlo ~size:1 then
    P.release t.text_arena ~lo:tlo;
  if owned_at t.data_arena ~owner ~lo:dlo ~size:1 then
    P.release t.data_arena ~lo:dlo

let demote_if_lost (t : t) (e : Cache.entry) : bool =
  if e.Cache.residency = Cache.Placed && not (backed t e) then begin
    release_extents t e;
    e.Cache.residency <- Cache.Evicted;
    note_transition t e "lost-reservation";
    Telemetry.Counter.incr tm_lost;
    true
  end
  else false

(* -- invariant checking -------------------------------------------- *)

type violation = { v_code : string; v_msg : string }

let violation_message (v : violation) : string =
  Printf.sprintf "[%s] %s" v.v_code v.v_msg

let ranges_overlap (lo1, sz1) (lo2, sz2) = lo1 < lo2 + sz2 && lo2 < lo1 + sz1

(* The violations over [live], in its order. *)
let violations (t : t) (live : Cache.entry list) : violation list =
  let out = ref [] in
  let add code fmt =
    Format.kasprintf (fun m -> out := { v_code = code; v_msg = m } :: !out) fmt
  in
  let placed =
    List.filter (fun (e : Cache.entry) -> e.Cache.residency = Cache.Placed) live
  in
  (* 1: every placed entry's full extents reserved under its owner *)
  List.iter
    (fun (e : Cache.entry) ->
      let owner = owner_of e in
      let chk arena what (lo, sz) =
        if not (owned_at arena ~owner ~lo ~size:sz) then
          add "unreserved"
            "placed entry %s: %s extent [0x%x,0x%x) not reserved under its owner"
            owner what lo (lo + sz)
      in
      chk t.text_arena "text" (text_extent e);
      chk t.data_arena "data" (data_extent e))
    placed;
  (* 2: no two live placed entries overlap *)
  let rec pairwise = function
    | [] -> ()
    | (e : Cache.entry) :: rest ->
        List.iter
          (fun (e' : Cache.entry) ->
            if
              ranges_overlap (text_extent e) (text_extent e')
              || ranges_overlap (data_extent e) (data_extent e')
            then
              add "overlap" "placed entries %s@0x%x and %s@0x%x overlap"
                (owner_of e) e.Cache.text_base (owner_of e') e'.Cache.text_base)
          rest;
        pairwise rest
  in
  pairwise placed;
  (* 3: no managed arena interval orphaned by an evicted entry *)
  let orphans arena what base_of =
    List.iter
      (fun (ilo, ihi, o) ->
        if
          Hashtbl.mem t.managed o
          && not
               (List.exists
                  (fun (e : Cache.entry) ->
                    owner_of e = o && fst (base_of e) = ilo)
                  placed)
        then
          add "orphan" "%s interval [0x%x,0x%x) of %s has no live placed entry"
            what ilo ihi o)
      (P.intervals arena)
  in
  orphans t.text_arena "text" text_extent;
  orphans t.data_arena "data" data_extent;
  List.rev !out

(* Whether [violations t live] is empty, without comparing pairs. In
   each arena the placed extents are sorted by base once: an overlap
   shows between neighbours. Then, with distinct bases, they are walked
   beside the arena's intervals, which are in order of base too: each
   extent needs an interval of its owner at its base that reaches its
   end, and each managed interval an extent of its owner at its base.
   [met] says whether the first extent has found its interval. *)
let clean (t : t) (live : Cache.entry list) : bool =
  let placed =
    List.filter (fun (e : Cache.entry) -> e.Cache.residency = Cache.Placed) live
  in
  let managed o = Hashtbl.mem t.managed o in
  let arena_clean arena extent =
    let exts =
      List.sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (List.map
           (fun e ->
             let lo, sz = extent e in
             (lo, lo + sz, owner_of e))
           placed)
    in
    let rec disjoint reach = function
      | [] -> true
      | (lo, hi, _) :: rest -> lo >= reach && disjoint (max reach hi) rest
    in
    let rec matched met exts ivs =
      match (exts, ivs) with
      | [], [] -> true
      | [], (_, _, o) :: ivs -> (not (managed o)) && matched false [] ivs
      | _ :: exts, [] -> met && exts = []
      | ((lo, hi, owner) :: rest as exts), (ilo, ihi, o) :: ivs' ->
          if lo < ilo then met && matched false rest ivs
          else if lo > ilo || owner <> o then (not (managed o)) && matched met exts ivs'
          else matched (met || ihi >= hi) exts ivs'
    in
    disjoint min_int exts && matched false exts (P.intervals arena)
  in
  arena_clean t.text_arena text_extent && arena_clean t.data_arena data_extent

let check_invariants (t : t) : violation list =
  Telemetry.Counter.incr tm_checks;
  (* every request checks: only a report compares pairs and sorts the
     entries *)
  let vs = if clean t (Cache.to_list t.cache) then [] else violations t (Cache.by_age t.cache) in
  if vs <> [] then begin
    Telemetry.Counter.incr tm_violations ~by:(List.length vs);
    List.iter
      (fun v ->
        Telemetry.Flight.record_violation ~name:v.v_code ~detail:v.v_msg)
      vs;
    ignore (Telemetry.Flight.trip ~reason:"residency invariant violation" ())
  end;
  vs

let check_exn (t : t) : unit =
  match check_invariants t with
  | [] -> ()
  | vs -> raise (Violation (String.concat "; " (List.map violation_message vs)))

let self_check (t : t) : unit = check_exn t

(* -- eviction ------------------------------------------------------ *)

let evict_to_budget (t : t) ~(bytes : int) : Cache.entry list =
  let victims = Cache.evict_to_budget t.cache ~bytes in
  List.iter
    (fun (e : Cache.entry) ->
      (match e.Cache.residency with
      | Cache.Placed -> release_extents t e
      | Cache.Static | Cache.Evicted ->
          (* static entries never claimed lib-arena ranges; evicted
             ones already lost theirs *)
          ());
      e.Cache.residency <- Cache.Evicted;
      note_transition t e "evicted";
      Telemetry.Counter.incr tm_evicted)
    victims;
  self_check t;
  victims

(* -- fault hooks --------------------------------------------------- *)

let maybe_evict_storm (t : t) : Cache.entry list =
  if fires t Evict_storm then begin
    Telemetry.Counter.incr tm_fault_storm;
    Telemetry.Flight.record_fault "residency.evict_storm";
    evict_to_budget t ~bytes:0
  end
  else []

let with_place_conflict (t : t) ~(arena : P.t)
    ~(prefs : (int * P.pref) list) (f : unit -> 'a) : 'a =
  let blocker =
    if prefs = [] || not (fires t Place_conflict) then None
    else
      let _, top =
        List.hd (List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs)
      in
      let target =
        match top with
        | P.At a | P.Near a -> Some a
        | P.Within (lo, _) -> Some lo
        | P.Avoid _ -> None
      in
      match target with
      | None -> None
      | Some a -> (
          match P.reserve arena ~lo:a ~size:(P.align arena) "fault:conflict" with
          | Ok () ->
              Telemetry.Counter.incr tm_fault_conflict;
              Telemetry.Flight.record_fault "residency.place_conflict";
              Some a
          | Error _ -> None)
  in
  Fun.protect
    ~finally:(fun () ->
      match blocker with Some a -> P.release arena ~lo:a | None -> ())
    f

type seeded_violation =
  | Lost_reservation
  | Orphaned_interval
  | Overlapping_entries

let inject (t : t) (kind : seeded_violation) : unit =
  match
    List.find_opt
      (fun (e : Cache.entry) -> e.Cache.residency = Cache.Placed)
      (Cache.by_age t.cache)
  with
  | None -> invalid_arg "Residency.inject: no placed entry to corrupt"
  | Some e -> (
      Telemetry.Counter.incr tm_fault_injected;
      match kind with
      | Lost_reservation -> P.release t.text_arena ~lo:(fst (text_extent e))
      | Orphaned_interval -> Cache.invalidate t.cache e.Cache.key
      | Overlapping_entries ->
          let dup =
            Cache.insert t.cache
              ~key:(e.Cache.key ^ ":injected")
              ~text_base:e.Cache.text_base ~data_base:e.Cache.data_base
              e.Cache.image
          in
          dup.Cache.residency <- Cache.Placed)
