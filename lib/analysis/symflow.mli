(** The symbol-flow lattice: abstract Jigsaw modules over name sets.

    Mirrors {!Jigsaw.Module_ops} at the granularity the namespace
    operators work at — per-fragment sets of defined, referenced and
    constructor names — without section bytes, views, or relocations.
    Every operator replays the exact semantics of its concrete
    counterpart (including the freeze/hide/show aliases), so
    the predicted {!exports}/{!undefined} of a blueprint equal what
    evaluation would produce, with no view materialized and no
    simulated cost charged. *)

module S : Set.S with type elt = string

(** One object-file fragment, reduced to its namespace. [f_defs] keeps
    symbol-table order and multiplicity (duplicate global definitions
    must stay visible for conflict detection). *)
type frag = {
  f_src : string;
  f_defs : (string * Sof.Symbol.binding) list;
  f_undefs : S.t;
  f_relocs : S.t;
  f_ctors : string list;
}

type t = {
  frags : frag list;
  frozen : S.t;  (** public names whose bindings were made permanent *)
  hidden : S.t;  (** public names renamed away by [hide]/[show] *)
}

val empty : t
val of_object : Sof.Object_file.t -> t

(** {1 Queries} *)

(** Abstract {!Jigsaw.Module_ops.exports}: global/weak definition
    names, sorted and deduplicated. *)
val exports : t -> string list

(** Names defined anywhere in the module, at any visibility. Sorted. *)
val defined_any : t -> string list

(** Abstract {!Jigsaw.Module_ops.undefined}: names referenced but
    exported nowhere inside the module. Sorted. *)
val undefined : t -> string list

(** Global definition names of one fragment, with multiplicity. *)
val frag_globals : frag -> string list

(** Definition and constructor names matching the predicate — what a
    [restrict]'s [Undefine] would actually touch. Sorted. *)
val touched : (string -> bool) -> t -> string list

(** {1 Operator mirrors}

    Each function is the abstract counterpart of the same-named
    {!Jigsaw.Module_ops} operator. None of them raises: conflict
    detection is a separate query, and the lattice continues past
    errors. *)

val merge : t -> t -> t
val override : t -> t -> t
val restrict : (string -> bool) -> t -> t
val project : (string -> bool) -> t -> t
val copy_as : (string -> string option) -> t -> t
val rename :
  Jigsaw.Module_ops.rename_scope -> (string -> string option) -> t -> t

(** [key] is the operator's occurrence key: selected exports move to
    their {!Jigsaw.Module_ops.alias} at it, exactly as in
    {!Jigsaw.Module_ops.freeze}. *)
val freeze : key:string -> (string -> bool) -> t -> t

val hide : key:string -> (string -> bool) -> t -> t

(** Hides every export {e not} selected. *)
val show : key:string -> (string -> bool) -> t -> t

val initializers : t -> t
