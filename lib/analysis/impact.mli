(** Subtree dependence analysis: interface digests over m-graphs, and
    the reuse/respin verdicts that make incremental relinking sound.

    The tree is a kept {!Lint.rewalk} over {!Symflow}: per node it holds
    the symbol flow and preferences, from which {!summary} renders a
    canonical {e interface summary} — exports with binding and
    multiplicity, undefined references, reloc shape (referenced names),
    frozen/hidden sets and accumulated constraint preferences — and an
    {e interface digest}: the hex of the node's content key (its own
    part, {!Blueprint.Mgraph.own_part}: operator, length-prefixed
    parameters, leaf and source content by digest; a [Name]'s path; the
    operands' keys, a name's operand being what it resolves to).
    Evaluation is deterministic, so two subtrees with equal digests are
    link-equivalent: the same construction evaluates to the same module,
    hence the same interface and the same placement preferences. The
    summary is not hashed: the construction fixes it.

    A live freeze/hide/show names its aliases after its occurrence, so
    its subtree, and every ancestor's, is {e keyed}: its digest is the
    hex of an MD5 over the content key and the node's occurrence path,
    and holds only where the node sits. Digests without a key hold
    anywhere.

    {!diff} compares an old/new analysis: each node of the new tree is
    either [Reused] (fully modeled, and its digest present among the
    old tree's fully modeled nodes — the proof obligations) or [Respin]
    with the first differing interface fact as a human-readable reason.
    Verdicts are pre-order and pruned: below a reused node nothing
    needs a verdict.

    Like {!Lint}, the analyzer materializes no view and charges nothing
    to the simulated clock. *)

module Mg := Blueprint.Mgraph

(** Canonical interface summary of one subtree. All lists are in
    canonical (sorted) order except [s_exports], which keeps
    multiplicity. *)
type summary = {
  s_op : string;  (** operator key, parameters included *)
  s_exports : (string * string) list;
      (** exported (name, binding), sorted, multiplicity preserved *)
  s_undefined : string list;
  s_relocs : string list;  (** names referenced by relocations *)
  s_frozen : string list;
  s_hidden : string list;
  s_prefs : string list;  (** rendered constraint preferences *)
}

(** One analyzed node: a node of the kept walk ({!Lint.info}; its
    fields are {!Lint}'s). [i_digest] is the server's memo key for the
    node; only a fully modeled ([i_modeled]) subtree can be reused. *)
type info = Lint.info

(** A node's interface summary, rendered from its flow on demand:
    {!diff} names the first differing fact of a respun node from it. *)
val summary : info -> summary

type tree = {
  t_graph : Mg.node;
      (** the graph the walk was given: [t_root]'s node may be a
          content-equal node of an earlier walk that a kept walk
          replayed *)
  t_root : info;
  t_report : Lint.report;  (** the walk's lint report *)
}

(** Analyze a graph: a kept walk from scratch. Never raises;
    unmodelable nodes are marked unmodeled rather than failing, and an
    analyzer failure leaves an unmodeled root with no operands. *)
val analyze :
  resolve:(string -> (Mg.node, string) result) -> Mg.node -> tree

(** {!analyze}, replaying from [prev]'s walk every subtree whose path
    and content key are unchanged ({!Lint.rewalk}). The tree is exactly
    {!analyze}'s; the kept walk also counts the nodes walked and the
    subtrees replayed. *)
val reanalyze :
  resolve:(string -> (Mg.node, string) result) ->
  prev:tree option ->
  Mg.node ->
  tree * Lint.kept_walk

(** Pre-order walk over an info tree. *)
val iter_infos : (info -> unit) -> tree -> unit

(** [iter_unshared f ~other t] is {!iter_infos} over the infos of [t]
    that [other] does not share: where [t] holds, at some operand
    position, physically the info [other] holds there (a subtree
    {!reanalyze} replayed), the whole subtree is skipped. Positions
    pair by operand index; with [other] [None], every info. *)
val iter_unshared : (info -> unit) -> other:tree option -> tree -> unit

(** [info_at ~resolve t occ n] is the info of [t] that describes the
    node [n] evaluated at [occ], or [None] where [t] cannot vouch for
    [n]. It follows [occ] down from the root, a merge's children in
    flattened order and a [Name]'s info holding its resolution's info.
    It answers only when [occ]'s root is physically [t_graph], each
    step's node is physically the operand evaluation descends into from
    the step above or, past a name, from what [resolve] (evaluation's
    resolution, as a result) returns for it now, and [n] is physically
    the node at the top of [occ] or, at a name's occurrence, a node of
    the name's resolution chain (a specializer may evaluate nodes of
    its own there). At each position the walk either stepped through
    that operand or replayed a subtree with its content key, so the
    info has [n]'s construction and [occ]'s path. *)
val info_at :
  resolve:(string -> (Mg.node, string) result) ->
  tree ->
  Mg.occurrence ->
  Mg.node ->
  info option

(** Verdict for one node of the {e new} tree. *)
type verdict =
  | Reused of { digest : string }
      (** an equal-digest, fully modeled subtree exists in the old
          tree; its materialization can be reused byte-for-byte *)
  | Respin of { reason : string }
      (** must be rebuilt; [reason] names the first differing
          interface fact *)

type node_verdict = {
  v_path : string;
  v_op : string;
  v_digest : string;
  v_verdict : verdict;
}

type diff = {
  d_old_digest : string;  (** old root digest *)
  d_new_digest : string;  (** new root digest *)
  d_nodes : node_verdict list;
      (** new-tree pre-order, pruned below reused nodes *)
  d_reused : int;
  d_respun : int;
  d_spine : string list;  (** paths of the respun nodes *)
}

(** Compare two analyses: old on the left, new on the right. *)
val diff : old_tree:tree -> new_tree:tree -> diff

(** Outcome of discharging the byte-identity obligation of every
    [Reused] verdict: each distinct reused digest's old and new
    subtrees are evaluated from scratch and their flattened objects
    compared byte-for-byte. *)
type verify_outcome = {
  vo_checked : int;  (** distinct reused digests compared *)
  vo_failures : (string * string) list;  (** (path, what differed) *)
}

(** [verify ~eval ~old_tree ~new_tree d] — [eval] evaluates a node in
    the caller's environment (e.g. the server's), as a root: equal
    digests imply equal occurrence keys, so both sides mint the same
    aliases there too. Subtrees whose evaluation raises identically on
    both sides are vacuously ok (they can never have been
    materialized). *)
val verify :
  eval:(Mg.node -> Jigsaw.Module_ops.t) ->
  old_tree:tree ->
  new_tree:tree ->
  diff ->
  verify_outcome
