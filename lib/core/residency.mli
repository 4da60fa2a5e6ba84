(** The residency layer: joint ownership of the image cache and the
    address-space arenas.

    Historically the cache and the arenas were reconciled ad hoc inside
    the server's build and eviction paths and could
    silently diverge: a cache hit could map an image over another
    library's range, evicting a [static:] entry released lib-arena
    intervals it never owned, and a stale candidate could shadow the
    real construction with an empty one. This module makes the
    lifecycle explicit: every {!Cache.entry} carries a residency state,
    reservations are acquired and released only through here, and
    {!check_invariants} asserts the cache and the arenas agree.

    A deterministic fault-injection hook — seeded by the simulated
    clock, configured through [Server.create] — can force placement
    conflicts, eviction storms and reserve failures, so the historical
    bug cluster stays reproducible under test. Everything is observable
    through [residency.*] telemetry counters. *)

(** Per-fault firing rates in [0,1]; a rate of 1.0 fires on every
    opportunity, 0.0 never. The decision stream is a pure function of
    [seed] and the simulated clock, so runs are reproducible. *)
type faults = {
  seed : int;
  place_conflict : float;  (** block the preferred base of a placement *)
  evict_storm : float;  (** evict the whole cache before a request *)
  reserve_fail : float;  (** fail re-reservation on a cache hit *)
}

(** All rates zero: no injection. *)
val no_faults : faults

type t

(** Raised by {!check_exn} with the formatted violation list. *)
exception Violation of string

(** [create ~cache ~text_arena ~data_arena ()] wraps the given cache
    and arenas. [clock] (default {!Telemetry.now_us}) seeds the fault
    stream; [faults] enables injection. *)
val create :
  cache:Cache.t ->
  text_arena:Constraints.Placement.t ->
  data_arena:Constraints.Placement.t ->
  ?clock:(unit -> float) ->
  ?faults:faults ->
  unit ->
  t

(** The full text extent [base, size) of a cached image (at least one
    byte, so degenerate images still occupy their base). *)
val text_extent : Cache.entry -> int * int

(** The full data extent, including bss. *)
val data_extent : Cache.entry -> int * int

(** The arena owner name of an entry (its image name). *)
val owner_of : Cache.entry -> string

(** Can this cached placement be revived for [owner]? True when both
    the full text and data extents are either already reserved under
    [owner] at the entry's bases or completely free. *)
val acceptable : t -> owner:string -> Cache.entry -> bool

(** Re-establish the reservations of a cached entry and mark it
    [Placed]. Never leaves a half-established reservation: if the data
    extent fails, a freshly taken text extent is rolled back.
    [Error owner'] names the conflicting occupant (or ["fault:reserve"]
    under injection). *)
val reacquire : t -> owner:string -> Cache.entry -> (unit, string) result

(** Mark a freshly placed-and-linked entry [Placed] (its reservations
    were just taken by [Placement.place]) and register its owner as
    residency-managed. *)
val note_placed : t -> Cache.entry -> unit

(** Mark an entry [Static]: fixed client bases, no arena claims. *)
val note_static : t -> Cache.entry -> unit

(** If the entry is marked [Placed] but its reservations are gone
    (stolen or released externally), release any surviving half, mark
    it [Evicted], and return [true]. *)
val demote_if_lost : t -> Cache.entry -> bool

(** Trim the cache via {!Cache.evict_to_budget}, releasing arena
    reservations only for [Placed] victims, marking every victim
    [Evicted], and self-checking the invariants. Returns the
    victims. *)
val evict_to_budget : t -> bytes:int -> Cache.entry list

(** {1 Invariant checking} *)

type violation = {
  v_code : string;  (** ["unreserved"] | ["overlap"] | ["orphan"] *)
  v_msg : string;
}

val violation_message : violation -> string

(** The violations among [live] (its [Placed] entries, in its order),
    found by comparing every pair and scanning every entry for each
    arena interval: the report {!check_invariants} gives. *)
val violations : t -> Cache.entry list -> violation list

(** Whether {!violations} would find nothing among [live], found in
    [O(n log n)]: extents sorted once and compared with their
    neighbours, intervals and bases looked up in tables. *)
val clean : t -> Cache.entry list -> bool

(** Verify that the cache and the arenas agree:
    {ol
    {- every [Placed] entry's full text+data extents are reserved under
       its owner at the entry's bases;}
    {- no two live [Placed] entries overlap in either arena;}
    {- no arena interval belonging to a residency-managed owner is
       orphaned — left behind with no live [Placed] entry.}}
    Intervals of unmanaged owners (e.g. [Dynload]'s per-process ranges)
    are ignored. It runs on every request, so it first asks {!clean};
    only when that finds something does it compare pairs
    ({!violations}), taking entries oldest first ({!Cache.by_age}). *)
val check_invariants : t -> violation list

(** @raise Violation if {!check_invariants} reports anything. *)
val check_exn : t -> unit

(** Run {!check_exn}: the automatic check after every instantiate and
    eviction. *)
val self_check : t -> unit

(** {1 Fault injection} *)

(** If the eviction-storm fault fires, evict the entire cache; returns
    the evicted entries ([[]] when it does not fire). *)
val maybe_evict_storm : t -> Cache.entry list

(** Run [f] with the strongest base-address preference temporarily
    blocked when the placement-conflict fault fires, forcing [f]'s
    placement to an alternate base. The blocker is always released. *)
val with_place_conflict :
  t ->
  arena:Constraints.Placement.t ->
  prefs:(int * Constraints.Placement.pref) list ->
  (unit -> 'a) ->
  'a

(** A seeded coherence violation, for exercising {!check_invariants}:
    corrupt the state so exactly that class of violation exists. *)
type seeded_violation =
  | Lost_reservation  (** release a placed entry's text interval *)
  | Orphaned_interval  (** drop a placed entry, keeping its intervals *)
  | Overlapping_entries  (** duplicate a placed entry under a new key *)

(** Corrupt the state at the oldest [Placed] entry.
    @raise Invalid_argument when nothing is placed. *)
val inject : t -> seeded_violation -> unit
