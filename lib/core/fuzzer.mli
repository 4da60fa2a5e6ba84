(** The {e oracle} half of the fuzz harness (the generator half is
    {!Workloads.Fuzz}).

    [run_case] installs a generated case into fresh worlds and checks
    four differential oracles, all of them checks the system already
    ships:

    + {b lint-differential} — for every generated library,
      {!Analysis.Lint.verify_against} must agree with the real
      evaluator: predicted export/undefined sets equal the evaluated
      ones exactly, and whenever the analyzer claims evaluation fails
      ([eval_fails]) the evaluator must actually refuse the graph.
    + {b residency} — every library the linter proves instantiable is
      instantiated (with eviction churn in between) and
      {!Residency.check_invariants} must stay empty after every
      operation; the server's own self-check stays armed, so a
      violation raised anywhere in the pipeline also lands here.
    + {b pipeline-equivalence} — the case's workload scenario runs
      through {!Workload.run} twice. Without fault injection: once
      batched (concurrency ≥ 2), once serial (concurrency 1); the event
      streams (request, client, op, target, hit) and the final text and
      data arena interval maps must be identical. With fault injection
      armed: the same spec twice at the same concurrency; the event
      lists must be byte-identical (costs included) — the
      DiOS-style replay guarantee.
    + {b incremental-relink} — {!Workloads.Fuzz.mutate} derives a
      single-edit variant of the case; the edited world is built
      twice, once with subtree reuse on
      (register the original, build, re-register the edited metas,
      rebuild) and once with reuse off. The link-level facts — image
      digests, segment bases, Bind/Reloc provenance events, and the
      final arena interval maps — must be identical: memoized subtree
      reuse may never change what gets linked.

    Any other exception escaping a case is classified as the ["crash"]
    oracle. All of it is deterministic: same case, same verdict. *)

type failure = {
  fz_oracle : string;
      (** ["lint-differential" | "residency" | "pipeline-equivalence"
          | "incremental-relink" | "crash"] *)
  fz_detail : string;
  fz_case : Workloads.Fuzz.case;  (** the case that tripped the oracle *)
}

type verdict =
  | Pass of { clean_libs : int; events : int }
      (** [clean_libs] libraries proved instantiable and exercised;
          [events] workload events replayed *)
  | Fail of failure

(** Compile and register a case's modules and libraries into a world
    (modules first, then libraries in id order). Used as the
    {!Workload.run} [setup] hook and for replaying committed corpus
    cases. @raise Minic.Driver.Compile_error on a module that does not
    compile (a generator bug, surfaced as a ["crash"]). *)
val install : Workloads.Fuzz.case -> World.t -> unit

(** Run every oracle against one case. Never raises. *)
val run_case : Workloads.Fuzz.case -> verdict

(** Greedy shrink: walk {!Workloads.Fuzz.shrink} candidates, keeping
    any candidate that still fails the {e same} oracle, until a fixed
    point or the run [budget] (default 300 case executions) is spent.
    Returns the minimized case and the number of runs used. *)
val reduce : ?budget:int -> failure -> Workloads.Fuzz.case * int

(** [fuzz ~seed ~iterations ()] generates and runs cases
    [derive_seed ~master:seed 0 .. iterations-1], stopping at the first
    failure. [on_iteration] fires after each case with its index and
    verdict. Returns the failing iteration and (unreduced) failure, or
    [None] if every case passed. *)
val fuzz :
  ?max_modules:int ->
  ?max_libs:int ->
  ?on_iteration:(int -> verdict -> unit) ->
  seed:int ->
  iterations:int ->
  unit ->
  (int * failure) option
