(** The OMOS server.

    A persistent process (here: a persistent OCaml value living across
    simulated program invocations) that owns the namespace, the image
    cache, the address-space constraint arenas, and the blueprint
    evaluation environment. Program linking and loading are the special
    case of generic object instantiation.

    Every instantiation flows through one staged pipeline — parse →
    lint → eval → place → link → map — driven by a cooperative
    scheduler ({!Simos.Sched}) on the simulated clock; there is no
    other build path. Clients either go asynchronous ({!submit} a
    {!request}, later {!await}/{!poll} the {!ticket}) or call the
    classic synchronous {!instantiate}, which is a thin
    submit-and-await wrapper. When several requests are in flight,
    their stages interleave deterministically and the [place] stage
    solves all queued placements as {e one} batched constraint pass. *)

exception Server_error of string

(** Raised by {!submit} when admission control rejects a request
    (too many in flight — see {!set_queue_limit}). *)
exception Overload of string

(** Address-space conventions (cf. Figure 1's "T" 0x100000
    "D" 0x40200000): libraries live in the shared arenas; client
    programs at fixed bases outside them. *)

val lib_text_lo : int
val lib_text_hi : int
val lib_data_lo : int
val lib_data_hi : int
val client_text_base : int
val client_data_base : int

(** A recorded placement conflict: an object wanted an address it could
    not have (paper §4.1: "OMOS could easily record the conflicts
    found"). *)
type conflict = {
  c_owner : string;
  c_seg : Blueprint.Mgraph.seg;
  c_wanted : Constraints.Placement.pref;
  c_got : int;
}

type t

(** [create ~kernel ()] starts a server. [faults] configures the
    residency layer's deterministic fault injection (placement
    conflicts, eviction storms, reserve failures); omit it for none. *)
val create : kernel:Simos.Kernel.t -> ?faults:Residency.faults -> unit -> t

(** {1 Read-only views}

    The server's internals are not exposed; read state through these. *)

(** Snapshot of the work the server has performed (for the caching
    experiments). [source_compiles] counts blueprint [source] nodes
    compiled anywhere in this process. *)
type stats = {
  links : int;
  relocs : int;
  source_compiles : int;
  instantiations : int;
  nodes_walked : int;
      (** m-graph nodes the registration analysis walked, at every
          registration and every rebind *)
  subtrees_replayed : int;
      (** subtrees it replayed from a meta's previous walk instead *)
}

val stats : t -> stats
val namespace : t -> Namespace.t
val cache_stats : t -> Cache.stats
val kernel : t -> Simos.Kernel.t
val text_arena : t -> Constraints.Placement.t
val data_arena : t -> Constraints.Placement.t

(** The residency layer that keeps the cache and the arenas coherent
    (see {!Residency}); use it to run {!Residency.check_invariants}. *)
val residency : t -> Residency.t

(** {1 Namespace population} *)

(** Bind an object file into the server's namespace. Binding over a
    bound path (a fragment, a meta or a directory) refreshes the
    analysis as {!register_meta} does, so trees, reports, memo keys
    and image keys follow the new binding. So does binding a fresh
    path that some bound tree's report names in an E005 (unknown
    server object) finding, so that the report, and the journal of a
    build that replays it, lose the E005 at once. Any other fresh path
    changes no name that a tree resolved, and is not refreshed. *)
val add_fragment : t -> string -> Sof.Object_file.t -> unit

(** [register_meta t path m] binds a meta-object and lints it: the
    symbol-flow analyzer ({!Analysis.Lint}) runs at registration — no
    view materialized, no simulated cost charged — its finding counts
    feed the [lint.errors]/[lint.warnings] counters, and the findings
    replay into the provenance journal of every build of the meta.
    Registration never fails on findings. This is the one canonical
    registration entry point; {!register_meta_source} and
    {!load_meta_file} both route through it. *)
val register_meta : t -> string -> Blueprint.Meta.t -> unit

(** The registration-time lint report of a bound meta-object, read off
    its {!impact_tree}: refreshed for every bound meta whenever any meta
    is registered or a bound path rebound (a [Name] it reaches may have
    been bound since). [None] for a path not bound to a meta. *)
val lint_report : t -> string -> Analysis.Lint.report option

(** The registration-time analysis of a bound meta-object: one kept
    {!Analysis.Lint} walk per meta, which is its lint report, its
    {!Analysis.Impact} tree and, at its root's interface digest, its
    image key (refreshed as {!lint_report} is; every bound meta has
    one). Evaluation answers the memo table through these trees. *)
val impact_tree : t -> string -> Analysis.Impact.tree option

(** The reuse/respin verdicts of the last time the path was
    re-registered over an existing binding — which subtrees of the
    edited blueprint survive, and why the rest must respin. Computed
    from the path's trees before and after that registration on first
    query; registration itself does not diff. *)
val impact_diff : t -> string -> Analysis.Impact.diff option

(** The memo keys the bound metas' trees name: each interface digest
    with the number of reusable nodes (fully modeled, not a leaf) of
    those trees that carry it, sorted. Registration keeps the counts
    in place and then drops from the memo table every digest no longer
    named. *)
val named_digests : t -> (string * int) list

(** The interface digests the per-node memo table holds, sorted. *)
val memo_digests : t -> string list

(** Toggle incremental relinking (default on): when off, evaluation
    never consults or fills the per-node memo table, and registration
    (or a rebind) walks every meta from scratch
    instead of replaying unchanged subtrees from its previous walk. The
    knob the incremental-vs-from-scratch differential oracle flips. *)
val set_subtree_reuse : t -> bool -> unit

(** The evaluation environment's name resolution, as a result: the
    environment raises [Eval_error] with the [Error] message. For the
    symbol-flow analyzer, which must never raise. *)
val resolve_graph :
  t -> string -> (Blueprint.Mgraph.node, string) result

(** Register a meta-object from blueprint source text (parse, then
    {!register_meta}). *)
val register_meta_source : t -> string -> string -> unit

(** Load a meta-object source file from the simulated filesystem and
    bind it at [ns_path] — meta-objects are ordinary files. *)
val load_meta_file : t -> fs_path:string -> ns_path:string -> unit

(** Load an object file (either backend format) from the simulated
    filesystem and bind it at [ns_path]. *)
val load_fragment_file : t -> fs_path:string -> ns_path:string -> unit

(** @raise Server_error if the path is absent or not a meta-object. *)
val find_meta : t -> string -> Blueprint.Meta.t

(** {1 Instantiation} *)

(** Evaluate an m-graph in the server's environment. A graph that is
    physically a bound meta's registered graph
    ([Blueprint.Meta.effective_graph m ~spec:None]) is evaluated through
    the memo table, answered through that meta's {!impact_tree} (with
    subtree reuse on); any other graph (a fresh parse, a graph a caller
    built) is evaluated without the memo. *)
val eval : t -> Blueprint.Mgraph.node -> Blueprint.Mgraph.result

(** Text and data+bss sizes a module will occupy (for placement). *)
val module_sizes : Jigsaw.Module_ops.t -> int * int

(** A built, positioned, cached image: the cache entry a request was
    served from, whether its request built the image or hit it. *)
type built = { entry : Cache.entry }

(** Has this built's cache entry been evicted since it was handed out?
    Stale builts must be re-requested before mapping. *)
val built_evicted : built -> bool

(** What a client asks the server to instantiate:

    - [Library]: a library meta-object by namespace path — its
      registered graph evaluated through the memo table, fully bound,
      placed by the constraint system in the shared arenas, cached,
      shared. Undefined symbols are allowed (libraries may reference
      client symbols).
    - [Static]: an arbitrary m-graph linked at the client base
      addresses — generic instantiation (also the static scheme and the
      interposition examples) — against the exported symbols of
      [externals], already-built images that satisfy its remaining
      references. *)
type request =
  | Library of { path : string }
  | Static of {
      name : string;
      graph : Blueprint.Mgraph.node;
      externals : Linker.Image.t list;
    }

type response = {
  built : built;
  cache_hit : bool; (* served from the image cache, no link performed *)
  sim_us : float; (* simulated submit-to-completion time, queueing included *)
  queue_us : float;
      (* of sim_us, admission + scheduler wait — together with the two
         typed waits below this is all the time spent waiting on other
         requests; [queue_us +. batch_us +. coalesce_us] equals what a
         single [queue_us] field reported before the split *)
  batch_us : float; (* of sim_us, parked at the place barrier *)
  coalesce_us : float; (* of sim_us, waiting on a leader's in-flight build *)
}

(** [library path] — a [Library] request, keyed by the root interface
    digest of the meta's {!impact_tree}, which fixes what every name it
    reaches resolves to; the same tree, looked up once, gives its
    findings and memo keys. *)
val library : string -> request

(** [static ?externals ~name graph] — a [Static] request, keyed by the
    graph's construction digest and the digests of [externals]. *)
val static :
  ?externals:Linker.Image.t list -> name:string -> Blueprint.Mgraph.node -> request

(** {2 The asynchronous pipeline}

    [submit] admits a request into the staged pipeline and returns a
    ticket immediately; the request advances through
    parse → lint → eval → place → link → map as the scheduler runs.
    Stage transitions are recorded in the flight recorder
    ([pipeline.parse] …), per-stage latencies and queue depths feed the
    metrics registry, and concurrent requests meeting at the place
    boundary are solved in one batched constraint pass
    ([place.batch_size] histogram). *)

(** Handle to an in-flight request. *)
type ticket

(** The ticket's underlying telemetry request id — the key the causal
    event graph ({!Telemetry.Causal}, [Omos.Blame]) records under. *)
val ticket_id : ticket -> int

(** Admit a request. Scheduling is lazy: stages only run inside
    {!await}, {!poll}, {!drain} or a synchronous {!instantiate}.
    @raise Overload when {!in_flight} ≥ the queue limit. *)
val submit : t -> request -> ticket

(** Run the pipeline until this ticket completes; return its response.
    Re-raises the request's own failure exception, if any. *)
val await : t -> ticket -> response

(** [poll t k] — [Some response] if [k] has completed (consuming the
    ticket), [None] if still in flight; does not advance the pipeline.
    @raise Server_error on an unknown or already-consumed ticket. *)
val poll : t -> ticket -> response option

(** Run the pipeline until no request is in flight. *)
val drain : t -> unit

(** Number of submitted-but-undelivered requests. *)
val in_flight : t -> int

(** Admission-control bound on {!in_flight} (default 64); beyond it
    {!submit} raises {!Overload}. *)
val set_queue_limit : t -> int -> unit

(** The current admission-control bound. *)
val queue_limit : t -> int

(** Solve queued placements as one batched constraint pass (default
    [true]); [false] reverts to one solver pass per request. *)
val set_batch_placement : t -> bool -> unit

(** Seed for the cooperative scheduler's task interleaving. 0 (the
    default) is strict FIFO; any other seed is a deterministic
    pseudo-random interleaving — byte-reproducible run to run. *)
val set_sched_seed : t -> int -> unit

(** {2 Synchronous wrappers} *)

(** Serve one instantiation request to completion —
    [submit] + [await] under the root ["omos.instantiate"] telemetry
    span; evaluation, placement, linking and caching all nest under
    it.
    @raise Server_error, naming the target, when called from inside a
    running pipeline stage (a specializer, say): nested instantiation
    is not supported, and the enclosing request fails with it. *)
val instantiate : t -> request -> response

(** [build t req] = [(instantiate t req).built]. *)
val build : t -> request -> built

(** Register a specialization style (the schemes install theirs here). *)
val register_specializer : t -> string -> Blueprint.Mgraph.specializer -> unit

(** Trim the image cache to a disk budget, releasing evicted libraries'
    arena reservations (and only those — [static:] entries never held
    lib-arena ranges). Every evicted entry that was mapped releases
    its cached image ([Cache.entry.mapped], {!Simos.Kernel.release}),
    as an entry whose reservation was lost does. Returns the number of
    entries evicted. *)
val evict_to_budget : t -> bytes:int -> int

(** Recorded placement conflicts, most recent first. *)
val conflicts : t -> conflict list

(** Suggested constraint-list revisions derived from the conflict log:
    feeding each conflicted object the base it actually received makes
    future placements conflict-free. *)
val suggest_placements : t -> (string * Blueprint.Mgraph.seg * int) list

(** Map a built image into a process (cf. Mach [vm_map] into the target
    task): segments come from the server's memory — no file opening, no
    header parsing, no disk reads. The entry's first mapping caches its
    image ({!Simos.Kernel.cache_image}, labelled with the entry's cache
    key) and keeps it in [Cache.entry.mapped], so the client whose
    request built the image and every later client share the same
    frames and translations.
    [touch_user_cost] charges extra user time per first page touch
    (deferred-relocation modelling).
    @raise Server_error if the entry has been evicted. *)
val map_into : t -> ?touch_user_cost:float -> Simos.Proc.t -> built -> unit

(** Everything needed to start a program built by a scheme. *)
type loadable = { parts : built list (* map order *); entry : int }

(** Package parts, taking the entry point from the last part that has
    one. @raise Server_error if none do. *)
val loadable_entry : built list -> loadable
