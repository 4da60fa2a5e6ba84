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
  ?spec:(string * Blueprint.Mgraph.value list) option ->
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
    interface summaries this way, so one walk yields both. *)
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
