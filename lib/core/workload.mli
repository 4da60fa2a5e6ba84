(** Deterministic multi-client workload driver: N simulated clients
    interleaving instantiates, cache-hitting re-requests,
    dynloads/unloads, and evictions, scheduled off the simulated clock
    and a seeded PRNG — byte-reproducible across runs. Feeds the
    request-scoped telemetry ({!Telemetry.Request}, {!Telemetry.Health},
    the flight recorder) and backs [ofe workload] / [ofe top] /
    [ofe health]. *)

exception Spec_error of string

(** A scenario: [clients] simulated clients issue [requests] operations
    drawn from [mix] (op name → weight) over the library [metas],
    seeded by [seed]. [concurrency] is the pipeline depth: up to that
    many consecutive instantiates are submitted to the server's staged
    pipeline before awaiting any (1 = fully serial; dynload/evict act
    as barriers). [faults] optionally arms the residency layer's fault
    injection for the run. *)
type spec = {
  clients : int;
  requests : int;
  seed : int;
  concurrency : int;
  metas : string list;
  mix : (string * int) list;
  evict_bytes : int;  (** disk budget handed to eviction requests *)
  faults : Residency.faults option;
}

(** 3 clients, 30 requests, seed 7, concurrency 1, three library metas,
    mix [instantiate=6 dynload=2 evict=1], no faults. *)
val default : spec

(** Parse the line-oriented spec format ([#] comments; directives
    [clients N], [requests N], [seed N], [concurrency N],
    [meta PATH] (repeatable), [mix op=w ...], [evict_bytes N],
    [fault_seed N],
    [fault place_conflict|evict_storm|reserve_fail RATE]); omitted
    directives keep {!default}'s values.
    @raise Spec_error on unknown directives or bad values. *)
val parse : string -> spec

val parse_file : string -> spec

(** One completed workload operation. [w_req] is the request id
    {!Telemetry.Request} assigned to the operation's outermost request;
    [w_hit]/[w_cost_us] carry the server's response for instantiates
    (clock-delta cost for the other ops). *)
type event = {
  w_req : int;
  w_client : int;
  w_op : string;  (** instantiate | dynload | unload | evict *)
  w_target : string;
  w_hit : bool option;
  w_cost_us : float;
  w_wait_us : float;
      (** of [w_cost_us], time spent waiting on other requests
          ([queue_us + batch_us + coalesce_us] of the response); [0]
          for the barrier ops *)
}

(** Build a fresh {!World}, reset telemetry, and run the scenario.
    [setup] runs against the fresh world before the host processes are
    built and before the telemetry reset — use it to register extra
    fragments/metas or configure the server (anything it builds stays
    out of the request stream). [on_event] fires after each operation
    completes (for streaming output); with [concurrency > 1],
    instantiate events are delivered at the next pipeline barrier,
    still in submission order. The full event list is returned.
    Identical specs produce identical event lists and identical
    telemetry, at any concurrency.

    The server's admission-control queue limit is only ever {e raised}
    (when [concurrency] exceeds the configured limit) and is restored
    when the run returns, so fault scenarios still observe
    {!Server.Overload} under a limit [setup] configured. Span recording
    is on for the run and set back to what it was before it when the
    run returns or raises. *)
val run :
  ?setup:(World.t -> unit) -> ?on_event:(event -> unit) -> spec -> event list
