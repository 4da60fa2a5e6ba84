(** Latency blame over the request timelines ([Telemetry.Causal]).

    The simulated clock makes latency attribution an accounting
    identity rather than a sampling estimate: every stage segment and
    typed wait of a request is stamped with exact clock reads, so the
    request's critical path — its segments and waits plus the gap-fill
    between them ({!Queue} and {!Sched}, which no timeline records) —
    tiles the interval from submission to the instant [sim_us] was
    sealed, and the slice durations sum to [sim_us] (up to float
    addition error). On top of the paths this module aggregates a
    workload-wide blame profile, folds flamegraph stacks, and replays
    the recorded graph deterministically under counterfactual knobs
    (batching off, coalescing off, unbounded queue) to predict what a
    config change would have bought. *)

(** Where one slice of a request's latency went. *)
type category =
  | Self of string  (** computing inside the named stage *)
  | Queue
      (** admission: submitted, parse not yet dispatched (the gap
          before the first segment) *)
  | Batch  (** parked at the place barrier until the flush *)
  | Coalesce  (** follower waiting on its leader's in-flight build *)
  | Sched
      (** runnable, waiting for the scheduler to dispatch (every later
          gap) *)

(** ["self.<stage>"], ["queue"], ["batch"], ["coalesce"], ["sched"]. *)
val category_label : category -> string

(** The stable category order of the [omos.blame/1] schema. *)
val category_order : string list

type slice = {
  s_cat : category;
  s_from : float;
  s_until : float;
  s_self : float;
      (** charged self-cost of a segment slice; [0] for a batched
          place, whose interval is the shared solve, and for waits *)
  s_on : int;  (** request id waited on; [-1] when not a typed wait *)
}

(** One dispatched unit of the recorded pipeline — the skeleton
    {!what_if} replays. Unlike {!type-slice}s, the chain keeps
    zero-duration stage hops: a stage that charges nothing is still one
    FIFO queue rotation, and the counterfactual schedules depend on
    those rotations. *)
type hop =
  | Run of { stage : string; dur : float }
      (** a dispatched stage task (re-enqueues at the tail when done) *)
  | Park
      (** parked at the place barrier; the flush that releases it
          charges the shared solve, [p_solver_us] *)
  | Wait of { on : int }  (** coalesced onto in-flight request [on] *)
  | Seal  (** the map dispatch where [sim_us] was sealed *)

type path = {
  p_id : int;
  p_client : int;
  p_target : string;
  p_submit : float;
  p_done : float;  (** when [sim_us] was sealed (map-stage start) *)
  p_sim_us : float;
  p_hit : bool;
  p_solver_us : float;  (** shared batched-solver share (replay input) *)
  p_slices : slice list;  (** chronological; tiles [p_submit, p_done) *)
  p_chain : hop list;  (** pipeline order; ends with {!Seal} *)
}

val slice_us : slice -> float

(** Extract one completed request's critical path; [None] while it is
    still in flight. The slice durations sum to [p_sim_us]. *)
val critical_path : Telemetry.Causal.req -> path option

(** All completed requests' paths, id order. *)
val paths : Telemetry.Causal.req list -> path list

(** Per-category stats over a set of paths. Percentiles are
    nearest-rank over the per-request category sums. *)
type stat = {
  bs_total_us : float;
  bs_frac : float;  (** of the total recorded sim_us *)
  bs_p50_us : float;
  bs_p95_us : float;
}

type profile = {
  bp_requests : int;
  bp_total_sim_us : float;
  bp_wait_us : float;  (** total non-self time across all requests *)
  bp_categories : (string * stat) list;  (** {!category_order}, complete *)
}

val profile : path list -> profile

(** Flamegraph folded stacks: [<target>;self;<stage>] and
    [<target>;wait;<category>] lines with summed microseconds, sorted
    by key. *)
val folded : path list -> (string * float) list

(** A counterfactual replay knob. *)
type knob = Batch_off | Queue_inf | Coalesce_off

(** Parses ["batch=off"], ["queue=inf"], ["coalesce=off"]. *)
val knob_of_string : string -> knob option

val knob_to_string : knob -> string

type whatif = {
  wi_knob : string;  (** ["baseline"] when replaying as recorded *)
  wi_recorded_us : float;  (** total recorded sim_us *)
  wi_predicted_us : float;  (** total predicted sim_us under the knob *)
  wi_per_request : (int * float * float) list;
      (** (id, recorded, predicted), id order *)
}

(** Deterministic FIFO discrete-event replay of the recorded graph,
    optionally under a knob. Without a knob the replay reproduces the
    recorded run — the baseline sanity check for the counterfactuals.
    The replay assumes the FIFO (seed 0) scheduler order and treats
    each group of equal submit stamps as one closed-loop round (the
    drivers drain between rounds), so a round's predicted latencies
    count from when it enters the replayed server, not from the
    recorded stamp — a knob that slows an earlier round down does not
    leak queueing delay into later ones. [Queue_inf] is the identity on
    runs that never overloaded, because overloaded submissions never
    enter the recorded graph. *)
val what_if : ?knob:knob -> path list -> whatif
