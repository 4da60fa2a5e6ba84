(** Structured tracing and metrics for the OMOS request path.

    One global collector: hierarchical spans (recorded only while
    enabled), a simulated-cost profiler that charges the open span
    stack, always-on counters/gauges/histograms, and exporters for the
    Chrome [trace_event] format and the stable-schema [omos.metrics/1]
    and [omos.hotspots/1] objects. {!with_span} is the only way to
    record a span and {!add_attr} the only way to annotate one after it
    opened. Timestamps come from the flight recorder's pluggable clock;
    the server points it at the simulated clock so traces are in
    simulated microseconds. *)

(** Attribute values attached to spans. *)
type value = S of string | I of int | F of float | B of bool

type attr = string * value

(** A completed (or open) span. [end_us] is [nan] while open; [parent]
    is [-1] for roots. *)
type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_us : float;
  mutable end_us : float;
  mutable attrs : attr list;
}

(** Span recording (and with it profiling) is off by default; metrics
    are always on. *)
val set_enabled : bool -> unit

val is_enabled : unit -> bool

(** Install the time source (microseconds): {!Flight.set_clock}, the
    one clock spans and flight events share. The default returns 0. *)
val set_clock : (unit -> float) -> unit

val now_us : unit -> float

(** [with_span ?attrs name f] runs [f] inside a span, closing it on
    exceptions too. Its attributes are [attrs], then the live request's
    [client] and [request], then whatever {!add_attr} adds. While
    recording is off it is [f ()]. *)
val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(** Append an attribute to the innermost open span; nothing while
    recording is off or no span is open. *)
val add_attr : string -> value -> unit

(** Completed spans, in completion order (children before parents). *)
val spans : unit -> span list

(** Simulated-cost profiler: attributes [Simos.Cost] charges to the
    live span stack. While spans are recorded, every clock charge is
    credited to the innermost open span's root-to-leaf path (names
    joined with [";"] — the folded-stack key flamegraph tools consume,
    built once when the span opens); charges arriving outside any span
    land under ["(unattributed)"], so {!Profile.folded} always sums to
    exactly what the cost model charged. Charges while recording is off
    are dropped. *)
module Profile : sig
  type kind = User | System | Io

  (** Credit [us] microseconds of [kind] to the current span path
      (called from the simulated clock; no-op while recording is
      off). *)
  val charge : kind -> float -> unit

  (** (path, user, system, io) rows, sorted by path. *)
  val rows : unit -> (string * float * float * float) list

  (** Folded-stack lines: (path, total us), sorted by path. *)
  val folded : unit -> (string * float) list

  (** Total cost attributed (all kinds, all paths). *)
  val total : unit -> float

  (** Per-operator totals keyed by innermost span name, sorted by
      descending cost. *)
  val by_leaf : unit -> (string * float) list

  (** Drop all attributions (also part of {!reset}). *)
  val clear : unit -> unit
end

module Counter : sig
  type t

  (** Interned by name: the same name always yields the same counter. *)
  val make : string -> t

  val incr : ?by:int -> t -> unit
  val value : t -> int

  (** Current value by name (0 if never incremented). *)
  val get : string -> int
end

module Gauge : sig
  val set : string -> float -> unit
end

(** Nearest-rank percentile of an ascending-sorted sample ([q] in
    [0,100]); [0] when the sample is empty. *)
val nearest_rank : float array -> float -> float

module Histogram : sig
  type t

  (** Interned by name. Bounded memory: count/sum/min/max plus a
      fixed-size deterministic sample reservoir for percentiles. *)
  val make : string -> t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  (** Nearest-rank percentile over the reservoir ([q] in [0,100]);
      exact until the reservoir overflows (512 samples). *)
  val percentile : t -> float -> float
end

(** The continuous-profiling store: every [Monitor] trace event flowing
    through the server's monitor specializer is aggregated here across
    requests, keyed by the monitored meta path (or blueprint digest).
    Events live in a deterministic rolling window of the
    {!Hotness.window_cap} most recent calls; windowed statistics —
    per-key call counts, first-call order, caller→callee transition
    pairs — are derived by replaying the window, so equal event
    sequences serialize byte-identically. A cumulative table tracks the
    identity of each key's hottest function; changes of identity
    ("churn", counter [hotness.top_changes]) feed {!Health}, and a
    bounded hot-set note is written to the flight ring every 256 events
    so anomaly dumps carry the hot set. *)
module Hotness : sig
  (** Rolling-window size (call events retained). *)
  val window_cap : int

  (** Record one monitored function entry under [key] (the monitored
      meta path, or ["digest:<d>"] for anonymous blueprints). *)
  val record_call : key:string -> string -> unit

  (** Call events recorded since the last reset (including ones that
      have rolled out of the window). *)
  val total_events : unit -> int

  (** Keys present in the current window, sorted. *)
  val keys : unit -> string list

  (** Windowed statistics for one key. *)
  type stat = {
    hs_key : string;
    hs_calls : int;  (** call events for this key in the window *)
    hs_functions : (string * int) list;
        (** per-function call counts, hottest first (name breaks ties) *)
    hs_first_call : string list;  (** first-call order within the window *)
    hs_transitions : ((string * string) * int) list;
        (** consecutive-call (caller → callee) pairs, hottest first *)
  }

  (** Statistics for every windowed key, sorted by key. *)
  val stats : unit -> stat list

  val stat_for : string -> stat option

  (** The hottest (key, function, windowed calls) across all keys, if
      any events were recorded. *)
  val hottest : unit -> (string * string * int) option

  (** Record the latest layout-locality audit for [key]: distinct text
      pages the traced working set touches under the actual fragment
      order, under the optimal packed layout, and after reordering.
      Sets the [hotness.headroom_pages.<key>] gauge and notes the
      result in the flight ring. *)
  val note_audit :
    key:string ->
    pages_actual:int ->
    pages_optimal:int ->
    pages_reordered:int ->
    unit

  (** The recorded [(pages_actual, pages_optimal, pages_reordered)] for
      [key], if it was audited since the last reset. *)
  val audit_pages : string -> (int * int * int) option

  (** The largest audited headroom (actual - optimal pages) across all
      keys; 0 when nothing was audited. *)
  val max_headroom : unit -> int
end

(** Reproducibility metadata carried as the ["meta"] object of every
    [omos.metrics/1] snapshot: the server records its scheduler seed,
    batch-placement knob, and queue limit here (at creation and on
    every knob change), so an exported run can be re-created from the
    snapshot alone. Survives {!reset} — configuration, not
    measurement. *)
module Runinfo : sig
  val set : string -> value -> unit

  (** All entries, sorted by key. *)
  val sorted : unit -> (string * value) list
end

(** Request-scoped attribution. Every server entry point (instantiate,
    exec, dynload, evict) opens a request, which assigns a monotonic
    request id and inherits or sets the client id. The live
    [(client, request)] pair is the flight recorder's context — the one
    spans, counters, residency transitions, and faults recorded
    underneath are stamped with — and {!within} sets it for the length
    of a call. Requests nest (a partial-image client's first call to a
    stubbed routine binds it with an instantiate inside the [exec]
    request); ids stay monotonic. *)
module Request : sig
  (** Ambient client id inherited by requests opened outside any
      enclosing request (default 0); workload drivers set it before
      each simulated client's operation. *)
  val set_client : int -> unit

  (** Client id of the live context, [-1] outside any request. *)
  val current_client : unit -> int

  (** The client id a request opened right now would inherit: the live
      context's, else the ambient one. *)
  val effective_client : unit -> int

  (** Id of the live context's request, [-1] outside any. *)
  val current_request : unit -> int

  (** The most recently assigned request id, [-1] if none yet. *)
  val last_id : unit -> int

  (** [within ~client ~id f] runs [f] with [(client, id)] as the live
      context, then reinstalls the previous context — on return and on
      exception alike. No id is assigned and no event emitted. *)
  val within : client:int -> id:int -> (unit -> 'a) -> 'a

  (** Run [f] inside a fresh request of [kind] (e.g. ["exec"]), ended
      on exceptions too. [client] overrides the inherited/ambient
      client id. *)
  val with_request : ?client:int -> string -> (unit -> 'a) -> 'a

  (** {2 Detached requests}

      The staged pipeline opens a request once at submission, runs
      every stage execution {!within} it (so interleaved requests each
      stamp their own [(client, id)] on what they record), and closes
      it at completion. *)

  (** Assign a request id and emit the begin event under it, leaving
      the live context as it was. *)
  val begin_detached : ?client:int -> string -> int

  (** Emit the end event of a detached request. *)
  val end_detached : client:int -> id:int -> string -> unit
end

(** Rolling-window health over the instantiate stream: hit ratio, cost
    percentiles, conflict/violation rates — what [ofe top] tabulates
    and [ofe health --slo] gates on. *)
module Health : sig
  (** Window size (most recent requests considered). *)
  val window_cap : int

  (** Record one served request (the server calls this once per
      instantiate). Conflict/violation counters are sampled here;
      [queue_depth] is the pipeline backlog observed at completion;
      [wait_frac] is the share of the request's latency spent waiting
      (queue admission, batch park, coalescing) rather than working. *)
  val record :
    ?hit:bool -> ?queue_depth:int -> ?wait_frac:float -> cost_us:float ->
    unit -> unit

  type snapshot = {
    requests : int;  (** requests recorded since the last reset *)
    window : int;  (** samples in the rolling window *)
    hit_ratio : float;  (** over window samples with hit/miss info *)
    p50_us : float;
    p95_us : float;
    p99_us : float;
    mean_us : float;
    max_us : float;
    conflict_rate : float;  (** arena conflicts per windowed request *)
    violation_rate : float;  (** invariant violations per windowed request *)
    max_queue_depth : float;  (** deepest pipeline backlog in the window *)
    headroom_pages : float;
        (** largest audited locality headroom (actual - optimal pages)
            across resident images, from {!Hotness} *)
    hot_churn : float;  (** hot-function identity changes per windowed request *)
    hot_fn : string;  (** hottest monitored function ("-" when none) *)
    wait_frac : float;
        (** mean share of request latency spent waiting (queue, batch
            park, coalesce) rather than working, over the window *)
    wait_frac_p95 : float;  (** p95 of the per-request wait share *)
  }

  val snapshot : unit -> snapshot

  (** An SLO spec: a bound on any of the keys {!parse_slo} accepts,
      each optional. *)
  type slo

  exception Slo_error of string

  (** Parse the line-oriented SLO format ([key value] pairs, [#]
      comments). The keys: [hit_ratio_min] (a lower bound) and the
      upper bounds [p95_us_max] [p99_us_max] [conflict_rate_max]
      [violation_rate_max] [queue_depth_max] [headroom_pages_max]
      [hot_churn_max] [wait_frac_max] [wait_frac_p95_max]; a key given
      twice keeps its last value. @raise Slo_error on unknown keys or
      bad values. *)
  val parse_slo : string -> slo

  (** One [(name, bound, actual, ok)] row per configured bound, in the
      key order listed at {!parse_slo}. *)
  val check : slo -> snapshot -> (string * float * float * bool) list

  val ok : (string * float * float * bool) list -> bool
end

(** Every pipeline request's timeline, and the per-run store of them
    behind [ofe blame]. The server opens one {!Causal.req} per request
    at submission and owns it: each stage appends the segment it
    executed, and each park at the place barrier or on a coalesce
    leader becomes a typed wait, all stamped with exact simulated-clock
    reads. The response's latency split is a fold over the record
    ({!Causal.work_us}, {!Causal.waited_us}). Because the clock is
    deterministic and only advances when work is charged, a completed
    request's segments and waits, with the gaps between them, tile its
    lifetime exactly — blame is an accounting identity, not a sampling
    estimate ({!Omos.Blame} names the gaps, builds critical paths and
    replays what-ifs on top).

    Every request records its timeline; {!Causal.set_enabled} (off by
    default) only decides whether requests submitted while it is on are
    retained for {!Causal.requests}. Recording charges nothing to the
    simulated clock. *)
module Causal : sig
  (** Why a request was parked rather than computing. *)
  type wait_kind =
    | Batch  (** parked at the place boundary until [flush_place] *)
    | Coalesce  (** follower waiting on its leader's link/map *)

  (** One executed stage interval. [g_self] is the request's own
      charged cost: [g_t1 -. g_t0], except [0] for a batched place,
      whose whole interval is the one shared solve. *)
  type segment = { g_stage : string; g_t0 : float; g_t1 : float; g_self : float }

  (** One resolved blocking interval. [w_on] is the request id being
      waited on ([-1] when the edge has no single counterpart). *)
  type wait = { w_kind : wait_kind; w_from : float; w_until : float; w_on : int }

  type req = {
    g_id : int;
    g_client : int;
    g_target : string;  (** the request's target label *)
    g_submit : float;
    mutable g_segments : segment list;
    mutable g_waits : wait list;
    mutable g_parked : (wait_kind * float * int) option;
        (** an unresolved park, closed by {!unpark} *)
    mutable g_done : float option;
    mutable g_sim_us : float;
    mutable g_hit : bool;
    mutable g_solver_us : float;
        (** the interval of the flush that placed this request — its
            batched place segment, all of it the shared solve; [0] when
            placed singly. The flush writes it. *)
  }

  (** Retain the requests submitted from now on for {!requests} (off by
      default). Survives {!reset}. *)
  val set_enabled : bool -> unit

  (** Open the timeline of request [id], submitted at [at]; retained
      when {!set_enabled} is on. *)
  val begin_request : id:int -> client:int -> target:string -> at:float -> req

  (** Recording: append an executed stage, park, resolve the pending
      park, seal at completion. *)

  val segment : req -> stage:string -> t0:float -> t1:float -> ?self:float -> unit -> unit
  val park : req -> wait_kind -> ?on:int -> at:float -> unit -> unit
  val unpark : req -> at:float -> unit -> unit
  val complete : req -> at:float -> sim_us:float -> hit:bool -> unit -> unit

  (** Simulated time spent inside the request's recorded segments
      (whole intervals, the shared batched place included). *)
  val work_us : req -> float

  (** Simulated time the request spent in resolved waits of [kind]. *)
  val waited_us : req -> wait_kind -> float

  (** A retained request by id. *)
  val find : int -> req option

  (** Retained requests, completed and in flight, sorted by id;
      segments and waits are returned in chronological order. *)
  val requests : unit -> req list

  (** Drop all retained requests (the retention switch is untouched);
      {!reset} calls this. *)
  val reset_state : unit -> unit
end

(** Zero every metric in place (interned handles stay valid), drop all
    recorded spans, clear profiler attributions, provenance journal
    state, request attribution, health windows, the hotness store, and
    the flight-recorder ring. Clock, enabled flags, the flight
    auto-dump configuration, and {!Runinfo} are untouched. *)
val reset : unit -> unit

(** The JSON reader/writer (see json.mli) the exporters, the flight
    recorder's dumps and the tests share. *)
module Json = Json

(** The binding journal: per-symbol link/operator decisions recorded
    during a build and attached, as a compact {!Provenance.t}, to the
    cache entry the build produced — so cached images can explain
    themselves ([ofe explain]) without relinking.

    Every fresh build owns one journal frame ({!Provenance.open_frame});
    each of its pipeline stages installs the frame with
    {!Provenance.with_frame} while it runs, and the link stage
    {!Provenance.capture}s it. Stages never nest, so at most one frame
    is installed at a time. Event recording is off by default: when
    disabled, captures still produce a provenance skeleton (key,
    placement, generation) with an empty event stream. *)
module Provenance : sig
  type event =
    | Op of { op : string; detail : string }
    | Sym of {
        op : string;
        symbol : string;
        prior : string option;  (** previous name, for renames *)
        action : string;
      }
    | Bind of { symbol : string; addr : int; frag : string; via : string }
    | Interpose of { symbol : string; winner : string; loser : string; how : string }
    | Reloc of { section : string; count : int }
    | Lint of { code : string; severity : string; path : string; message : string }
        (** a pre-link diagnostic the analyzer attached at registration *)
    | Coalesced of { leader_request : int }
        (** a duplicate in-flight request was folded into this build:
            the follower was served by [leader_request]'s link/map
            rather than by its own *)
    | Reused of { digest : string }
        (** a subtree was answered from the per-node memo table: its
            interface digest proved it link-equivalent to an earlier
            materialization, so no operator ran for it *)

  type t = {
    p_key : string;  (** construction digest (the cache key) *)
    p_ops : string list;  (** operator chain, application order *)
    p_events : event list;  (** journal, chronological *)
    p_text_base : int;
    p_data_base : int;
    p_placement : string;  (** human-readable placement decision *)
    p_generation : int;  (** cache generation at insertion *)
    mutable p_transitions : (float * string) list;
        (** residency transitions (sim us, state), chronological *)
  }

  (** Event recording is off by default. *)
  val set_enabled : bool -> unit

  val is_enabled : unit -> bool

  (** One build's journal. A build owns its frame across its stages,
      so interleaved requests never record into each other's
      journals. *)
  type frame

  (** A fresh, empty frame for a build about to start. *)
  val open_frame : unit -> frame

  (** [with_frame f body] runs [body] with [f] installed as the frame
      the recording hooks write to, then reinstalls whatever was
      installed before — on return and on exception alike. *)
  val with_frame : frame -> (unit -> 'a) -> 'a

  (** Close a build's frame into a provenance record. *)
  val capture :
    frame ->
    key:string ->
    text_base:int ->
    data_base:int ->
    placement:string ->
    generation:int ->
    t

  (** Recording hooks, writing to the installed frame (no-ops while
      disabled, or while no frame is installed). *)

  val record_op : op:string -> detail:string -> unit
  val record_sym : op:string -> symbol:string -> ?prior:string -> string -> unit
  val record_bind : symbol:string -> addr:int -> frag:string -> via:string -> unit

  val record_interpose :
    symbol:string -> winner:string -> loser:string -> how:string -> unit

  val record_reloc : section:string -> count:int -> unit

  (** Attach a pre-link lint finding to the installed frame. Joins
      the event stream only — the operator chain is untouched. *)
  val record_lint :
    code:string -> severity:string -> path:string -> string -> unit

  (** Note on a build's frame that a coalesced follower is being
      served by that build (the pipeline coalesces followers between
      the leader's stages, while its frame is not installed). *)
  val record_coalesced_into : frame -> leader_request:int -> unit

  (** Note on the installed frame that a memoized subtree (by
      interface digest) satisfied part of this build. *)
  val record_reused : digest:string -> unit

  (** Append a residency transition to a captured record. *)
  val transition : t -> at:float -> string -> unit

  (** Journal events involving a symbol, following rename links
      backwards (querying the final name surfaces decisions recorded
      under the names it came from). Chronological. *)
  val events_for : t -> string -> event list

  val event_to_string : event -> string

  (** Content digest of the construction provenance (transitions
      excluded — they evolve over the entry's lifetime). *)
  val digest : t -> string

  (** Record the digest of a finished build under its owner's name
      (what the bench driver folds into BENCH_*.json). *)
  val note_built : name:string -> t -> unit

  (** (name, digest) pairs recorded since the last {!reset}, sorted. *)
  val built_digests : unit -> (string * string) list

  val to_json : t -> Json.t
end

(** The flight recorder (see flight.mli): a bounded ring of the last
    ~4k structured events, dumped on invariant violations, faults, and
    non-zero [ofe] exits. *)
module Flight = Flight

module Export : sig
  (** Chrome [trace_event] JSON for about://tracing / Perfetto. *)
  val chrome : unit -> string

  (** The metrics registry as one stable-schema JSON object
      ([omos.metrics/1]) — the BENCH_*.json payload. Carries the
      {!Runinfo} entries as its ["meta"] object and a windowed
      {!Hotness} summary as its ["hotness"] object. *)
  val metrics_json : unit -> string

  (** The continuous-profiling store as one stable-schema JSON object
      ([omos.hotspots/1]): windowed per-key call counts, per-function
      histograms, first-call order, caller→callee transitions, and —
      for audited keys — the layout-locality audit. *)
  val hotspots_json : unit -> string
end
