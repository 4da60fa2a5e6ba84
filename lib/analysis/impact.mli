(** Subtree dependence analysis: content-addressed interface summaries
    over m-graphs, and the reuse/respin verdicts that make incremental
    relinking sound.

    Built on {!Lint.walk} over {!Symflow}: per operator node the
    analyzer computes a canonical {e interface summary} — exports with
    binding and multiplicity, undefined references, reloc shape
    (referenced names), frozen/hidden sets and accumulated constraint
    preferences — plus a structural digest that chains leaf content
    digests, operator parameters, the occurrence key of a live
    freeze/hide/show, child digests and the summary. Two subtrees with
    equal digests are provably link-equivalent: same construction
    content, same minted aliases, same interface, same placement
    preferences.

    A live freeze/hide/show names its aliases after its occurrence, so
    its digest, and every ancestor's, is {e keyed}: it holds only where
    the node sits. Digests without a key hold anywhere.

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

(** Annotated analysis of one node. *)
type info = {
  i_path : string;  (** m-graph path, {!Lint}'s addressing vocabulary *)
  i_node : Mg.node;
  i_summary : summary;
  i_digest : string;
      (** content digest: leaf content + params + occurrence key of a
          live freeze/hide/show + child digests + summary, chained
          bottom-up *)
  i_modeled : bool;
      (** the whole subtree is fully modeled: every name resolves
          acyclically, every selector/template compiles, every source
          compiles, every specializer has a modeled semantics. Only
          such subtrees can be reused. *)
  i_keyed : bool;
      (** a live freeze/hide/show in the subtree mints aliases named
          after its occurrence: the digest holds only at [i_path] *)
  i_children : info list;
}

type tree = {
  t_root : info;
  t_approximate : bool;
      (** some node could not be modeled precisely; it and its
          ancestors can never be reused *)
}

(** Analyze a graph. Never raises; unmodelable nodes are marked
    unmodeled rather than failing. *)
val analyze :
  resolve:(string -> (Mg.node, string) result) -> Mg.node -> tree

(** {!analyze} and {!Lint.analyze} from one walk of the graph. *)
val analyze_and_lint :
  resolve:(string -> (Mg.node, string) result) -> Mg.node -> tree * Lint.report

(** Pre-order walk over an info tree. *)
val iter_infos : (info -> unit) -> tree -> unit

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
