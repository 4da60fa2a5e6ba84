(** Views: layered, non-destructive symbol-namespace overlays.

    The paper (§3.3): "OMOS provides a facility that allows many
    different name configurations ("views") to be mapped onto a given
    object file, allowing fast, efficient, incremental modification of
    a symbol namespace."

    A view is a base object file plus an ordered list of namespace
    operations. Nothing is copied until the view is {!materialize}d,
    and even then the section bytes are shared with the base — only the
    symbol table and relocation list are rewritten. *)

(** The primitive namespace operations views are built from. *)
type op =
  | Rename_defs of (string -> string option)
      (** rewrite names of {e definitions}; internal references keep
          the old name and so become external. *)
  | Rename_refs of (string -> string option)
      (** rewrite names of {e references} (relocation symbols and
          explicit undefined entries). *)
  | Undefine of (string -> bool)
      (** remove matching definitions; references to them remain and
          become undefined (the paper's "virtualize"). *)
  | Copy_defs of (string -> string option)
      (** duplicate matching definitions under the returned new name. *)

type t = {
  base : Object_file.t;
  ops : op list; (* in application order *)
  mutable cache : Object_file.t option;
}

val of_object : Object_file.t -> t

(** [push v op] layers one more operation on top of [v]. O(1);
    invalidates nothing (views are persistent). *)
val push : t -> op -> t

val base : t -> Object_file.t

(** Number of layered operations. *)
val depth : t -> int

(** [materialize v] flattens the view into a plain object file. Section
    bytes are shared with the base; only the namespace is rewritten.
    The result is cached on the view. *)
val materialize : t -> Object_file.t

(** Process-global count of cache-missing {!materialize} calls — how
    many views have actually been flattened. The lint analyzer's
    "materializes no views" contract is pinned against this. *)
val materializations : unit -> int
