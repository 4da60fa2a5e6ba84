(** The flight recorder: a bounded ring buffer of the last ~4k
    structured telemetry events (spans, counter increments, gauge sets,
    histogram observations, request begin/end, residency transitions,
    faults, invariant violations), each stamped with the telemetry
    clock and the live [(client, request)] context. That clock lives
    here and is the only one: span timestamps read it too, and the
    server points it at the simulated clock.

    Appends are O(1) and allocation-free beyond the slot write: the
    ring is a set of parallel pre-allocated arrays indexed by a single
    cursor. The recorder is always on — it is the thing you read {e
    after} something went wrong, so it cannot be something you had to
    remember to enable.

    A dump ({!dump}) writes the ring twice: as line-oriented JSON
    events and as a human transcript. {!trip} performs the dump
    automatically when an auto-dump prefix was configured
    ({!set_auto_dump}) — the residency layer trips it on invariant
    violations and injected faults, and [ofe] trips it when exiting
    non-zero. *)

(** What kind of event a slot holds. *)
type kind =
  | Request_begin
  | Request_end
  | Span_enter
  | Span_exit
  | Count
  | Gauge_set
  | Observe
  | Transition
  | Fault
  | Violation
  | Note

val kind_label : kind -> string

(** Ring capacity (number of retained events). *)
val capacity : int

(** {1 Context}

    The live [(client, request)] attribution, stamped onto every
    recorded event. This pair is the process's only request context:
    [Telemetry.Request.within] sets it for the length of a call and
    reinstalls the previous pair afterwards, and [Telemetry.Request]
    reads it back. [-1] means "outside any request". *)

val set_context : client:int -> request:int -> unit
val clear_context : unit -> unit
val current_client : unit -> int
val current_request : unit -> int

(** The time source (microseconds) of every telemetry timestamp: ring
    events here, and spans through [Telemetry.now_us], which is
    {!now_us}. [Telemetry.set_clock] is {!set_clock}. The default
    returns 0. *)
val set_clock : (unit -> float) -> unit

val now_us : unit -> float

(** {1 Recording} *)

(** [emit kind name detail value] appends one event (hot path: one
    ring-slot write, no allocation). *)
val emit : kind -> string -> string -> float -> unit

(** Convenience wrapper over {!emit}. *)
val record : ?detail:string -> ?value:float -> kind -> string -> unit

(** Record a fault event and {!trip} the auto-dump. *)
val record_fault : string -> unit

(** Record a violation event ([name] is the violation code). *)
val record_violation : name:string -> detail:string -> unit

(** {1 Reading} *)

type event = {
  seq : int;  (** global sequence number (monotonic since {!clear}) *)
  at_us : float;
  kind : kind;
  name : string;
  detail : string;
  value : float;
  client : int;
  request : int;
}

(** Retained events, oldest first (at most {!capacity}). *)
val events : unit -> event list

(** Events recorded since the last {!clear} (including overwritten
    ones). *)
val total_recorded : unit -> int

(** Events currently retained in the ring. *)
val size : unit -> int

val clear : unit -> unit

(** {1 Dumping} *)

(** One JSON object per line: a dump header, then every retained
    event. *)
val to_json_events : reason:string -> string

(** The human transcript of the ring, oldest first. *)
val to_transcript : reason:string -> string

(** Write [<prefix>.json] and [<prefix>.txt]. *)
val dump : reason:string -> prefix:string -> unit

(** Hook invoked with the dump reason after every {!dump} (explicit or
    auto-dump {!trip}). The metrics layer lives above this module, so it
    registers here to count dumps ([flight.dumps],
    [flight.dumps.<cause>] keyed by the reason's first word). *)
val set_on_dump : (string -> unit) -> unit

(** Configure (or disable, with [None]) the auto-dump prefix used by
    {!trip}. Survives [Telemetry.reset]. *)
val set_auto_dump : string option -> unit

val auto_dump_prefix : unit -> string option

(** If an auto-dump prefix is configured and the ring is non-empty,
    record a note naming [reason], dump, and return [true]. *)
val trip : reason:string -> unit -> bool
