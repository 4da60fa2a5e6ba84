(** The link engine: layout, symbol resolution, relocation.

    {!link} performs a {e full} link of an ordered fragment list into a
    positioned, fully relocated {!Image.t}; {!combine} performs a
    {e partial} link, concatenating fragments into one relocatable
    object with all references kept symbolic. *)

type error =
  | Duplicate of string * string * string
      (** symbol, first defining fragment, second fragment *)
  | Undefined of string list
  | Layout_overlap of string

exception Link_error of error

val error_to_string : error -> string

(** Where the linked image goes: base virtual addresses of the text and
    data segments (bss follows data). *)
type layout = { text_base : int; data_base : int }

(** Link statistics — the quantities the paper's cost argument is
    about. *)
type stats = {
  fragments : int;
  relocs_applied : int;
  symbols_resolved : int;
  undefined : string list; (** non-empty only with [~allow_undefined] *)
}

(** [link ~layout frags] fully links [frags].

    The entry point is ["_start"], falling back to ["main"] (-1 when
    neither is defined). [externals] are already-positioned images whose
    exported symbols satisfy remaining references — how a client binds
    to a self-contained shared library's fixed addresses. With
    [allow_undefined], unresolved references are left as zero words and
    reported in [stats] instead of raising.

    Resolution order for each fragment's references: the fragment's own
    definitions (including locals), then exported definitions across
    all fragments, then [externals].

    @raise Link_error on duplicate globals, unresolved references
    (unless allowed), or overlapping segment layout. *)
val link :
  ?externals:Image.t list ->
  ?allow_undefined:bool ->
  layout:layout ->
  Sof.Object_file.t list ->
  Image.t * stats

(** [combine ~name frags] partially links [frags] into one relocatable
    object. Sections are concatenated and symbol values rebased; all
    relocations stay symbolic. Local symbols are mangled per-fragment
    so same-named locals in different members cannot collide. *)
val combine : name:string -> Sof.Object_file.t list -> Sof.Object_file.t
