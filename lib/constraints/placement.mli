(** The OMOS address-space constraint system (paper §3.5).

    An {!t} (arena) records which intervals of a shared virtual address
    space are occupied by which named object. {!place} honours, in
    priority order: the required no-overlap constraint, reuse of an
    existing placement, the caller's weak preferences, and finally
    first-fit within the default region. *)

(** Raised when a placement cannot fit anywhere in the arena. *)
exception No_space of string

(** A weak placement preference. *)
type pref =
  | At of int  (** exactly this base address *)
  | Near of int  (** as close as possible to this address *)
  | Within of int * int  (** inside [lo, hi) *)
  | Avoid of int * int  (** outside [lo, hi) if possible *)

val pp_pref : Format.formatter -> pref -> unit

type t

(** [create ()] makes an empty arena covering
    [region_lo, region_hi) with [align]-aligned placements (defaults:
    4 KB pages over most of a 31-bit space). *)
val create : ?region_lo:int -> ?region_hi:int -> ?align:int -> unit -> t

(** Occupied intervals, as (lo, hi, owner). *)
val intervals : t -> (int * int * string) list

(** Base alignment of every placement in this arena. *)
val align : t -> int

(** Is [lo, hi) completely unoccupied? *)
val free : t -> lo:int -> hi:int -> bool

(** [reserve t ~lo ~size owner] claims an exact interval;
    [Error owner'] names the conflicting occupant. *)
val reserve : t -> lo:int -> size:int -> string -> (unit, string) result

(** [release t ~lo] frees the interval starting at [lo]. *)
val release : t -> lo:int -> unit

(** Outcome of a placement decision. *)
type decision = {
  base : int;
  reused : bool;  (** an existing placement was kept *)
  satisfied : pref option;  (** which preference was honoured, if any *)
}

(** [place t ~size ~owner ?existing ?prefs ()] chooses a base address.

    [existing] is a previously cached placement of the same object: if
    still available it is reused — the paper's "highly desired"
    constraint that yields physical sharing. [prefs] are
    (priority, preference) pairs, higher priority first; unsatisfiable
    preferences are dropped in order.

    @raise No_space if the arena cannot fit [size] at all. *)
val place :
  t ->
  size:int ->
  owner:string ->
  ?existing:int ->
  ?prefs:(int * pref) list ->
  unit ->
  decision

(** One member of a batched placement request (the [place] arguments,
    reified). *)
type batch_item = {
  bi_size : int;
  bi_owner : string;
  bi_existing : int option;
  bi_prefs : (int * pref) list;
}

(** [place_batch t items] solves a whole queue of placement requests in
    one constraint pass (one ["constraints.place_batch"] span, one
    [constraints.batch_solves] count): each item is placed by {!place},
    in submission order, so every decision is the one serial requests
    would get. Decisions come back in item order.

    [wrap i item solve] brackets the solve of [item] (index [i]) —
    callers hang request attribution and fault-injection hooks there.

    @raise No_space if any item cannot fit. *)
val place_batch :
  t ->
  ?wrap:(int -> batch_item -> (unit -> decision) -> decision) ->
  batch_item list ->
  decision list
