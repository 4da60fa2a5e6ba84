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

(** [analyze ~resolve root] runs the abstract interpretation. [resolve]
    maps server-object paths to sub-graphs ([Error msg] yields an E005
    finding). Never raises. *)
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

(** The walk behind {!analyze}, open to a second consumer. [annotate]
    runs once per node, operands first, with the node's m-graph path,
    its occurrence key when it minted freeze/hide/show aliases, whether
    its own semantics are modeled exactly (its name resolves
    acyclically, its selector and template apply, its source compiles,
    its specializer is modeled), its symbol flow and preferences, and
    its operands' annotations. Returns the report and the root's
    annotation, [None] when the analyzer failed internally (the report
    then carries an E999 finding). Never raises. {!Impact} builds its
    infos this way, so one walk yields both. *)
val walk :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  annotate:
    (path:string ->
    key:string option ->
    modeled:bool ->
    Blueprint.Mgraph.node ->
    Symflow.t ->
    Blueprint.Mgraph.constraint_pref list ->
    'a list ->
    'a) ->
  Blueprint.Mgraph.node ->
  report * 'a option

(** {1 Kept walks}

    A walk can be kept as a tree for the next walk of the same graph to
    replay from. Before a kept walk, one bottom-up pass gives every node
    a {e content key}: its own part ({!Blueprint.Mgraph.own_part}: its
    operator, length-prefixed parameters and content, and how a merge
    groups its operands into lists) hashed with its operands' keys.
    Each [Name] keys on its path and resolves as the walk resolves it:
    an unresolved name keys on its error, a cyclic one on the cycle, a
    resolved one on what it reaches. A node's occurrence path and
    content key together fix everything a walk of its subtree
    produces, so where both are unchanged from the
    previous walk, at the same operand position, the subtree is
    replayed instead of walked: its flow, preferences and annotation,
    its findings in order, its [approximate] and [eval_fails] flags,
    and the names it defined (which E001 reads). Everything else is
    walked again, and [annotate] runs only for the nodes walked. The
    report and the annotations are exactly those of {!walk}; a subtree
    moved to another operand is walked again, since its path moved.
    Keys are hashed only where something changed: a node whose own part
    and operand keys are those the previous walk keyed at its position
    keeps that walk's key (whether the part is the previous one is
    decided on the two nodes, {!Blueprint.Mgraph.same_own}, and a part
    is rendered only to be hashed; a name that did not resolve, a
    [source] and a [list] are always hashed), and so does a leaf that
    is physically the object the previous walk keyed there (object
    files are never mutated once built). A replayed root keeps the
    previous report.
    {!walk} computes no keys and keeps nothing. *)

(** A kept walk: its tree and its report. *)
type 'a kept

type 'a kept_walk = {
  report : report;
  root : 'a option;  (** the root's annotation, as from {!walk} *)
  kept : 'a kept option;  (** [None] when the analyzer failed *)
  walked : int;  (** nodes walked *)
  replayed : int;  (** subtrees replayed from [prev] *)
}

(** [rewalk ~resolve ~annotate ~prev root] is {!walk}, replaying from
    [prev] (a kept walk of an earlier graph, usually the same meta's)
    every subtree whose path and content key are unchanged, and keeping
    this walk. Never raises. *)
val rewalk :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  annotate:
    (path:string ->
    key:string option ->
    modeled:bool ->
    Blueprint.Mgraph.node ->
    Symflow.t ->
    Blueprint.Mgraph.constraint_pref list ->
    'a list ->
    'a) ->
  prev:'a kept option ->
  Blueprint.Mgraph.node ->
  'a kept_walk

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
