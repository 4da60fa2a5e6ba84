(** The simulated clock: accumulates user, system, and I/O time in
    microseconds, mirroring how the paper's tables split measurements
    (User / System / Elapsed). *)

type t = { mutable user : float; mutable system : float; mutable io : float }

type snapshot

val create : unit -> t
val charge_user : t -> float -> unit
val charge_system : t -> float -> unit
val charge_io : t -> float -> unit

(** Elapsed time: user + system + I/O waits. *)
val elapsed : t -> float

val snapshot : t -> snapshot

(** Time accumulated since a snapshot, as (user, system, elapsed). *)
val since : t -> snapshot -> float * float * float

val pp : Format.formatter -> t -> unit
