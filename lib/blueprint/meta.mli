(** Meta-object descriptions (paper §3.1): "templates describing the
    construction and characteristics of objects".

    A meta-object source file (cf. Figure 1) is a sequence of forms:
    an optional [(default-specialization "style" args…)], an optional
    [(constraint-list "T" addr "D" addr)], and the blueprint
    expression(s) — multiple trailing expressions merge implicitly. *)

exception Meta_error of string

type t = {
  name : string;
  default_spec : (string * Mgraph.value list) option;
  constraints : (Mgraph.seg * int) list;
      (** default address constraints: (segment, preferred base) *)
  root : Mgraph.node;
}

(** Parse a meta-object file. @raise Meta_error. *)
val parse : name:string -> string -> t

(** The graph to evaluate under an optional requested specialization:
    an explicit request wins over the default; the constraint-list
    wraps everything as [Constrain] nodes. *)
val effective_graph : t -> spec:(string * Mgraph.value list) option -> Mgraph.node

(** Digest identifying the construction (cache key component). *)
val digest : t -> spec:(string * Mgraph.value list) option -> string
