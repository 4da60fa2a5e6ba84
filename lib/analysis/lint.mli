(** Blueprint lint: the diagnostics pass over the {!Symflow} lattice.

    [analyze] walks an m-graph exactly as {!Blueprint.Mgraph.eval}
    would (same operand order, same occurrence paths, hence the same
    freeze/hide/show aliases) but on abstract name sets — no view is
    materialized and no simulated cost is charged — and reports
    findings with stable codes:

    {v
    E001 unresolved-at-root      E005 unknown-server-object
    E002 duplicate-global-in-merge  E006 invalid-selector
    E003 rename-collision        E007 source-compile-error
    E004 conflicting-address-constraints  E008 malformed-graph
    W101 dead-restrict/hide/show/project
    W102 override-overrides-nothing
    W103 freeze-of-already-frozen
    W104 shadowed-weak-definition
    E999 analyzer-internal-error
    v} *)

type severity = Error | Warning

val severity_to_string : severity -> string

type finding = {
  code : string;  (** stable code, e.g. ["E002"] *)
  title : string;  (** stable slug, e.g. ["duplicate-global-in-merge"] *)
  severity : severity;
  path : string;  (** m-graph path, e.g. ["constrain.rename.override[1]"] *)
  symbols : string list;  (** offending symbols, sorted *)
  message : string;
}

type report = {
  findings : finding list;  (** traversal order *)
  exports : string list;  (** predicted {!Jigsaw.Module_ops.exports} *)
  undefined : string list;  (** predicted {!Jigsaw.Module_ops.undefined} *)
  frozen : string list;
  hidden : string list;
  prefs : Blueprint.Mgraph.constraint_pref list;
  approximate : bool;
      (** an unmodeled specializer ("lib-dynamic", "monitor") rewrites
          the module; predicted sets describe its operand only *)
  eval_fails : bool;  (** some finding implies evaluation raises *)
}

val errors : report -> int
val warnings : report -> int

(** ["E002 duplicate-global-in-merge at merge: ... [sym, sym]"] *)
val finding_to_string : finding -> string

(** [analyze ~resolve root] runs the abstract interpretation, keeping
    nothing. [resolve] maps server-object paths to sub-graphs ([Error
    msg] yields an E005 finding). Never raises: an internal failure is
    reported as an E999 finding, with [approximate] set. *)
val analyze :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  Blueprint.Mgraph.node ->
  report

(** [analyze_meta ~resolve meta] analyzes the meta-object's effective
    graph (default specialization and constraint-list included). *)
val analyze_meta :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  Blueprint.Meta.t ->
  report

(** {1 Kept walks}

    A walk can be kept as a tree for the next walk of the same graph to
    replay from; the tree is also {!Impact}'s analysis of the graph.
    Before a kept walk, one bottom-up pass gives every node a {e content
    key}: its own part ({!Blueprint.Mgraph.own_part}: its operator,
    length-prefixed parameters and content, and how a merge groups its
    operands into lists) hashed with its operands' keys, each behind its
    length ({!Blueprint.Mgraph.add_part}). Each [Name] keys on its path
    and resolves as the walk resolves it: an unresolved name keys on its
    error, a cyclic one on the cycle, a resolved one on what it reaches.
    A node's occurrence path and content key together fix everything a
    walk of its subtree produces, so where both are unchanged from the
    previous walk, at the same operand position, the subtree is replayed
    instead of walked: the previous walk's node is kept as it is, and
    its findings, flags and defined names are added to the walk's.
    Everything else is walked again. The report is exactly that of
    {!analyze}; a subtree moved to another operand is walked again,
    since its path moved. Keys are hashed only where something changed:
    a node whose own part and operand keys are those the previous walk
    keyed at its position keeps that walk's key (whether the part is the
    previous one is decided on the two nodes,
    {!Blueprint.Mgraph.same_own}, and a part is rendered only to be
    hashed; a name that did not resolve, a [source] and a [list] are
    always hashed), and so does a leaf that is physically the object the
    previous walk keyed there (object files are never mutated once
    built). A replayed root keeps the previous report. {!analyze}
    computes no keys and keeps nothing. *)

(** One node of a kept walk, with its subtree's. Private: only a walk
    makes one. *)
type info = private {
  i_path : string;  (** m-graph path, the findings' addressing vocabulary *)
  i_node : Blueprint.Mgraph.node;
  i_key : string;  (** content key (raw MD5) *)
  i_digest : string;
      (** interface digest: the hex of [i_key], or where [i_keyed] the
          hex of an MD5 over [i_key] and [i_path] *)
  i_flow : Symflow.t;  (** the node's symbol flow *)
  i_prefs : Blueprint.Mgraph.constraint_pref list;
      (** accumulated, evaluation order *)
  i_modeled : bool;
      (** the whole subtree is fully modeled: every name resolves
          acyclically, every selector and template applies, every
          source compiles, every specializer has a modeled semantics *)
  i_keyed : bool;
      (** a live freeze/hide/show in the subtree names its aliases after
          its occurrence, so the subtree's module depends on [i_path] *)
  i_findings : finding list;  (** the subtree's, traversal order *)
  i_approximate : bool;  (** the subtree's [approximate] *)
  i_eval_fails : bool;  (** the subtree's [eval_fails] *)
  i_defined : Symflow.S.t;  (** names any node of the subtree defined *)
  i_children : info list;  (** operands, walk order; a name's resolution *)
}

type kept_walk = {
  report : report;
  root : info;
      (** when the analyzer failed internally, an unmodeled root with no
          operands whose digest, ["(analysis-error)"] and the root's
          {!Blueprint.Mgraph.digest}, still tells graphs' image keys apart *)
  walked : int;  (** nodes walked *)
  replayed : int;  (** subtrees replayed from [prev] *)
}

(** [rewalk ~resolve ~prev root] is {!analyze} kept as a tree,
    replaying from [prev] (the root and report of a kept walk of an
    earlier graph, usually the same meta's) every subtree whose path and
    content key are unchanged. Never raises. *)
val rewalk :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  prev:(info * report) option ->
  Blueprint.Mgraph.node ->
  kept_walk

(** Differential self-check: analysis first, then real evaluation, then
    set comparison. *)
type verify_outcome =
  | Verified of { exports : int; undefined : int }
  | Skipped of string
      (** analysis predicts failure, or the graph uses an unmodeled
          specialization *)
  | Mismatch of {
      field : string;  (** "exports" or "undefined" *)
      predicted : string list;
      actual : string list;
    }
  | Eval_raised of string
      (** evaluation raised although the analyzer predicted success *)

val verify_against :
  eval:(Blueprint.Mgraph.node -> Blueprint.Mgraph.result) ->
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  Blueprint.Mgraph.node ->
  report * verify_outcome
