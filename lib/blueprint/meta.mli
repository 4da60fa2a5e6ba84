(** Meta-object descriptions (paper §3.1): "templates describing the
    construction and characteristics of objects".

    A meta-object source file (cf. Figure 1) is a sequence of forms:
    an optional [(default-specialization "style" args…)], an optional
    [(constraint-list "T" addr "D" addr)], and the blueprint
    expression(s) — multiple trailing expressions merge implicitly. *)

exception Meta_error of string

(** Private: only {!parse} makes one, so [graph] is always the
    effective graph of the other fields. *)
type t = private {
  name : string;
  default_spec : (string * Mgraph.value list) option;
  constraints : (Mgraph.seg * int) list;
      (** default address constraints: (segment, preferred base) *)
  root : Mgraph.node;
  graph : Mgraph.node;
      (** the effective graph with no requested specialization, made
          once; read it through {!effective_graph} *)
}

(** Parse a meta-object file. @raise Meta_error. *)
val parse : name:string -> string -> t

(** The graph to evaluate under an optional requested specialization:
    an explicit request wins over the default; the constraint-list
    wraps everything as [Constrain] nodes. With [~spec:None] it is the
    node {!parse} made, physically the same on every call, which is
    what the server's registration analysis walks and what a library
    request evaluates; a requested specialization makes a new graph. *)
val effective_graph : t -> spec:(string * Mgraph.value list) option -> Mgraph.node
