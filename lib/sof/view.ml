(** Views: layered, non-destructive symbol-namespace overlays.

    The paper (§3.3): "OMOS provides a facility that allows many
    different name configurations ("views") to be mapped onto a given
    object file, allowing fast, efficient, incremental modification of a
    symbol namespace."

    A view is a base object file plus an ordered list of namespace
    operations. Nothing is copied until the view is {!materialize}d, and
    even then the section bytes are shared with the base — only the
    symbol table and relocation list are rewritten. The Jigsaw operators
    in [lib/jigsaw] are built from these primitives. *)

type op =
  | Rename_defs of (string -> string option)
      (** rewrite names of {e definitions}; internal references keep the
          old name and so become external. *)
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

let of_object (o : Object_file.t) : t = { base = o; ops = []; cache = None }

(** [push v op] layers one more operation on top of [v]. O(1). *)
let push (v : t) (op : op) : t = { v with ops = v.ops @ [ op ]; cache = None }

let base (v : t) = v.base
let depth (v : t) = List.length v.ops

(* Apply one op to the working (symbols, relocs, ctors) triple. *)
let apply_op (symbols, relocs, ctors) (op : op) =
  match op with
  | Rename_defs f ->
      let rename_sym (s : Symbol.t) =
        if Symbol.is_defined s then
          match f s.name with Some n -> { s with Symbol.name = n } | None -> s
        else s
      in
      let rename_ctor c = match f c with Some n -> n | None -> c in
      (List.map rename_sym symbols, relocs, List.map rename_ctor ctors)
  | Rename_refs f ->
      let rename_sym (s : Symbol.t) =
        if s.Symbol.kind = Symbol.Undef then
          match f s.name with Some n -> { s with Symbol.name = n } | None -> s
        else s
      in
      let rename_reloc (r : Reloc.t) =
        match f r.symbol with Some n -> { r with Reloc.symbol = n } | None -> r
      in
      (List.map rename_sym symbols, List.map rename_reloc relocs, ctors)
  | Undefine p ->
      let keep (s : Symbol.t) = not (Symbol.is_defined s && p s.name) in
      (List.filter keep symbols, relocs, List.filter (fun c -> not (p c)) ctors)
  | Copy_defs f ->
      let copies =
        List.filter_map
          (fun (s : Symbol.t) ->
            if Symbol.is_defined s then
              Option.map (fun n -> { s with Symbol.name = n }) (f s.name)
            else None)
          symbols
      in
      (symbols @ copies, relocs, ctors)

(* After all ops: every relocation symbol must have a symbol-table
   entry; undefined entries that duplicate a definition or each other
   are dropped. *)
let normalize (symbols, relocs, ctors) =
  let defined = Hashtbl.create 16 in
  List.iter
    (fun (s : Symbol.t) ->
      if Symbol.is_defined s then Hashtbl.replace defined s.Symbol.name ())
    symbols;
  let undef_seen = Hashtbl.create 16 in
  let keep (s : Symbol.t) =
    if Symbol.is_defined s then true
    else if Hashtbl.mem defined s.Symbol.name || Hashtbl.mem undef_seen s.Symbol.name
    then false
    else (
      Hashtbl.replace undef_seen s.Symbol.name ();
      true)
  in
  let symbols = List.filter keep symbols in
  let missing =
    List.filter_map
      (fun (r : Reloc.t) ->
        if Hashtbl.mem defined r.symbol || Hashtbl.mem undef_seen r.symbol then None
        else (
          Hashtbl.replace undef_seen r.symbol ();
          Some (Symbol.undef r.symbol)))
      relocs
  in
  (symbols @ missing, relocs, ctors)

(* How many views have been flattened since process start. The lint
   analyzer's contract is that it materializes nothing; its tests pin
   this counter across an analysis run. *)
let materialization_count = ref 0

let materializations () = !materialization_count

(** [materialize v] flattens the view into a plain object file. Section
    bytes are shared with the base; only the namespace is rewritten.
    The result is cached on the view. *)
let materialize (v : t) : Object_file.t =
  match v.cache with
  | Some o -> o
  | None ->
      incr materialization_count;
      let start = (v.base.Object_file.symbols, v.base.Object_file.relocs,
                   v.base.Object_file.ctors) in
      let symbols, relocs, ctors =
        normalize (List.fold_left apply_op start v.ops)
      in
      let o = { v.base with Object_file.symbols; relocs; ctors } in
      v.cache <- Some o;
      o
