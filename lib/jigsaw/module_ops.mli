(** The Jigsaw module operators (paper §3.3, after Bracha & Lindstrom).

    A module is an ordered collection of object-file fragments forming
    one symbol namespace. Every operator is non-destructive: it returns
    a new module whose fragments are fresh view layers over the same
    section bytes. Binding semantics at link time: a fragment's
    references resolve to its own definitions first, then to exported
    definitions anywhere in the final merge. *)

(** Raised on namespace violations (e.g. duplicate global definitions
    in a [merge]). *)
exception Module_error of string

type t = { label : string; fragments : Sof.View.t list }

(** Build a module from views. *)
val v : ?label:string -> Sof.View.t list -> t

val of_object : Sof.Object_file.t -> t
val of_objects : ?label:string -> Sof.Object_file.t list -> t

(** The module's fragments, materialized. *)
val fragments : t -> Sof.Object_file.t list

val label : t -> string

(** Names exported by the module (sorted, deduplicated). *)
val exports : t -> string list

(** Names referenced by the module but defined nowhere inside it. *)
val undefined : t -> string list

(** Flatten the module into a single relocatable object (partial
    link) — what gets cached as a library implementation. *)
val to_object : ?name:string -> t -> Sof.Object_file.t

(** [merge a b] binds the symbol definitions found in one operand to
    the references found in the other. Multiple {e global} definitions
    of a symbol constitute an error (weak definitions coexist). *)
val merge : t -> t -> t

(** [merge_list ms] left-folds {!merge}; fails on an empty list. *)
val merge_list : t list -> t

(** [restrict sel m] virtualizes the selected bindings: definitions are
    removed, references to them become (or stay) unbound. *)
val restrict : Select.t -> t -> t

(** [project sel m] is the complement of {!restrict}: virtualize all
    {e but} the selected bindings. *)
val project : Select.t -> t -> t

(** [override a b] merges, resolving conflicting definitions in favour
    of [b]: [a]'s conflicting definitions are virtualized first, so
    [a]'s references rebind to [b]'s implementations — the
    inheritance-style rebinding of Jigsaw. *)
val override : t -> t -> t

(** [copy_as sel new_name m] duplicates the value of the selected
    definition(s) under a new name ([new_name] may use [\1]-style group
    references against [sel]). *)
val copy_as : Select.t -> string -> t -> t

(** [alias ~frozen ~key n] is the private alias [n$frzKEY] (freeze) or
    [n$hidKEY] (hide/show) minted for [n] by the operator occurrence
    [key]. Distinct occurrences in one m-graph have distinct keys, so
    their aliases never collide. *)
val alias : frozen:bool -> key:string -> string -> string

(** [freeze ~key sel m] makes the current binding of the selected
    symbols permanent: intra-module references can no longer be
    rebound by a later [override]/[restrict], while the public
    definition remains exported. References move to the
    {!alias}[ ~frozen:true ~key] of each selected name. *)
val freeze : key:string -> Select.t -> t -> t

(** [hide ~key sel m] removes the selected definitions from the
    exported symbol table, freezing internal references to them in the
    process: definitions and references move to their
    {!alias}[ ~frozen:false ~key]. *)
val hide : key:string -> Select.t -> t -> t

(** [show ~key sel m] hides all but the selected definitions. *)
val show : key:string -> Select.t -> t -> t

(** Which side of the namespace {!rename} rewrites — the paper's §10
    "discrimination between symbol references and definitions". *)
type rename_scope = Defs_only | Refs_only | Both

(** [rename ?scope sel template m] systematically changes names in the
    operand symbol table. Names may be references, definitions, or
    both (the default). *)
val rename : ?scope:rename_scope -> Select.t -> string -> t -> t

(** Compatibility no-ops for the host-clock benchmark
    ([perfbench/relink_edit.ml], [perfbench/build_cold.ml]), which
    saves and restores a mangling counter that no longer exists:
    aliases are keyed by occurrence, so evaluation order cannot change
    them. [gensym_current ()] is always [0]. *)
val gensym_current : unit -> int

val gensym_set : int -> unit

(** [initializers m] generates the static-initializer driver for the
    constructors found in the module (the paper's C++ support): a
    global [__init] routine calling each registered constructor in
    order, overriding the weak default provided by crt0. *)
val initializers : t -> t
