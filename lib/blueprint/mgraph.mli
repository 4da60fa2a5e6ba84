(** M-graphs: the executable graphs blueprints compile to (paper §3.2).

    A node evaluates to a Jigsaw module plus accumulated address-space
    preferences. [Specialize] nodes dispatch through a registry of
    {!specializer}s: the base styles live here; the server registers
    the shared-library styles ("lib-dynamic", "monitor", …). *)

exception Eval_error of string

(** Which segment an address constraint applies to ("T"/"D" in the
    paper's constraint lists). *)
type seg = Seg_text | Seg_data

(** @raise Eval_error on anything but "T"/"D" (case-insensitive). *)
val seg_of_string : string -> seg

(** ["T"] or ["D"]. *)
val seg_to_string : seg -> string

type constraint_pref = {
  seg : seg;
  priority : int;
  pref : Constraints.Placement.pref;
}

type node =
  | Leaf of Sof.Object_file.t
  | Name of string  (** server-object path, resolved by the env *)
  | Merge of node list
  | Override of node * node
  | Freeze of string * node
  | Restrict of string * node
  | Project of string * node
  | Copy_as of string * string * node
  | Hide of string * node
  | Show of string * node
  | Rename of Jigsaw.Module_ops.rename_scope * string * string * node
  | Initializers of node
  | Source of string * string  (** language, source text *)
  | Specialize of string * value list * node
  | Constrain of seg * int * node  (** preferred base address for seg *)
  | Lst of node list

and value = Vstr of string | Vnum of int | Vlist of value list | Vnode of node

(** Result of evaluating a node. *)
type result = { m : Jigsaw.Module_ops.t; constraints : constraint_pref list }

(** Where a node sits in the graph: the operand steps from the root,
    innermost first, each with its operand index under a [merge]
    (after {!flatten_operands}) or an [override]. A [Name] and the
    graph it resolves to share one occurrence. *)
type occurrence = (int option * node) list

(** Subtree reuse for {!eval_memo}: [memo occ n eval] evaluates the
    node [n] at [occ]. It may answer with a previously materialized
    result (short-circuiting the whole subtree), or run [eval], the
    evaluation proper, and keep what it returns. The hook owns the
    soundness argument — evaluation only threads it. *)
type memo = occurrence -> node -> (unit -> result) -> result

type env = {
  resolve : string -> node;
  specializers : (string, specializer) Hashtbl.t;
  mutable visiting : string list; (* cycle detection for Name *)
  mutable occ : occurrence; (* the node under evaluation; [] between evaluations *)
  mutable memo : memo option; (* engaged by eval_memo only *)
}

and specializer = env -> value list -> node -> result

(** Operator-name normalization: lowercase, '-' → '_'. *)
val normalize_op : string -> string

(** Graph construction from s-expressions. *)
val of_sexp : Sexp.t -> node

val value_of_sexp : Sexp.t -> value

(** Parse a single blueprint expression into an m-graph. *)
val parse : string -> node

(** [eval env n] executes the graph: resolves names, applies module
    operators, compiles [source] text, dispatches specializations, and
    collects address-space preferences. Each freeze/hide/show mints its
    aliases under the {!occurrence_key} of its own {!path}, so the
    result does not depend on what was evaluated before. A specializer
    re-entering [eval] for its operand continues the occurrence it was
    called at.
    @raise Eval_error on unknown names/styles, cyclic meta-object
    references, or module errors. *)
val eval : env -> node -> result

(** [eval_memo env memo n] is {!eval} with the subtree-reuse hook
    engaged for the duration of the call (restored afterwards,
    exception-safe). Specializers re-entering {!eval} inherit it. *)
val eval_memo : env -> memo -> node -> result

(** [make_env ~resolve ()] builds an evaluation environment. [resolve]
    maps server-object paths to sub-graphs; the default refuses all
    names. *)
val make_env : ?resolve:(string -> node) -> unit -> env

(** Register an additional specialization style. *)
val register : env -> string -> specializer -> unit

(** Lst operands spliced into the surrounding operand list, as
    [merge] evaluates them: [(merge a (list b c))] merges a, b and c. *)
val flatten_operands : node list -> node list

(** The preference pair an address expands to in [constrain] and
    ["lib-constrained"]: exactly there at priority 6, near it at
    priority 3. *)
val address_prefs : seg -> int -> constraint_pref list

(** The preferences ["lib-constrained"]'s arguments ask for:
    alternating segment/address values, [list]s flattened. [Error]
    names the first malformed argument. *)
val lib_constrained_prefs : value list -> (constraint_pref list, string) Stdlib.result

(** Surface-syntax operator name of a node — the vocabulary of m-graph
    path addressing in lint findings ("merge", "override", "rename",
    "specialize:STYLE", "leaf:NAME", …). *)
val op_name : node -> string

(** {1 Occurrence paths}

    The addressing lint findings, impact verdicts and freeze/hide/show
    aliases share: the root's {!op_name}, then one [child_path] step
    per operand. *)

(** [child_path parent ?idx n]: the path of operand [n] (at index
    [idx] of a [merge] or [override]) under the node at [parent], e.g.
    ["merge[1].hide"]. *)
val child_path : string -> ?idx:int -> node -> string

(** The rendered path of an occurrence. *)
val path : occurrence -> string

(** The alias key of the freeze/hide/show at a path (8 hex digits of
    its MD5). *)
val occurrence_key : string -> string

(** Names referenced anywhere in the graph (dependency extraction). *)
val names : node -> string list

(** The construction digest, the graph part of a static target's
    image-cache key: MD5 of every node's {!own_part} in pre-order, each
    behind its length, a [Name]'s path after its own part. Equal digests
    mean the same construction: names count by path. *)
val digest : node -> string

(** [add_part b s] appends [s] to [b] behind its length (base 128, low
    digits first, one byte below 128), so a run of parts splits one way
    only. {!digest} and the content keys of kept walks hash such runs. *)
val add_part : Buffer.t -> string -> unit

(** A node's own part: its operator, its parameters and its content,
    operands excluded — leaf and source content by digest, a value
    parameter's graph by {!digest}, and how a [merge] or [list] groups
    its operands into lists. Every parameter follows the operator behind
    its length ({!add_part}), so equal own parts mean the same operator
    with the same parameters.
    Path-free for [Name]: what a name resolves to is content, not the
    name. The interface digests and the content keys of kept walks both
    hash it. *)
val own_part : node -> string

(** [same_own a b] is [String.equal (own_part a) (own_part b)], decided
    on the two nodes without rendering either part, except for two
    leaves or two [specialize] nodes. *)
val same_own : node -> node -> bool
