(** The OMOS address-space constraint system (paper §3.5).

    An {!t} (arena) records which intervals of a shared virtual address
    space are occupied by which named object. {!place} honours, in
    priority order: the required no-overlap constraint, the caller's
    weak preferences, and finally first-fit within the default region.
    Reuse of a cached placement (the paper's "highly desired"
    constraint that yields physical sharing) is the residency layer's
    job: it re-reserves a cached image's exact extents with {!reserve}. *)

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
    [region_lo, region_hi) with page-aligned (4 KB) placements (default
    region: most of a 31-bit space). *)
val create : ?region_lo:int -> ?region_hi:int -> unit -> t

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
  satisfied : pref option;  (** which preference was honoured, if any *)
}

(** [place t ~size ~owner ?prefs ()] chooses a base address and
    reserves it. [prefs] are (priority, preference) pairs, higher
    priority first; unsatisfiable preferences are dropped in order.

    @raise No_space if the arena cannot fit [size] at all. *)
val place :
  t -> size:int -> owner:string -> ?prefs:(int * pref) list -> unit -> decision
