(** The symbol-flow lattice: abstract Jigsaw modules over name sets.

    An abstract module mirrors {!Jigsaw.Module_ops.t} at the granularity
    the namespace operators actually work at — per-fragment sets of
    defined, referenced and constructor names — without holding section
    bytes, views, or relocation details. Every operator below replays
    the exact semantics of its concrete counterpart (including the
    freeze/hide/show aliases, minted from the caller's occurrence key),
    so the predicted {!exports} and
    {!undefined} of a blueprint equal what evaluation would produce —
    with no view materialized and no simulated cost charged. *)

module S = Set.Make (String)

(** One object-file fragment, reduced to its namespace. [f_defs] keeps
    symbol-table order and multiplicity: duplicate global definitions
    must stay visible for conflict detection. *)
type frag = {
  f_src : string;  (** provenance label of the underlying object *)
  f_defs : (string * Sof.Symbol.binding) list;
  f_undefs : S.t;  (** explicit [Undef] symbol-table entries *)
  f_relocs : S.t;  (** names referenced by relocations *)
  f_ctors : string list;
}

(** An abstract module: fragments plus the frozen/hidden bookkeeping
    the diagnostics pass reads. *)
type t = {
  frags : frag list;
  frozen : S.t;  (** public names whose bindings were made permanent *)
  hidden : S.t;  (** public names renamed away by [hide]/[show] *)
}

let empty : t = { frags = []; frozen = S.empty; hidden = S.empty }

let of_object (o : Sof.Object_file.t) : t =
  let f =
    {
      f_src = o.Sof.Object_file.name;
      f_defs =
        List.filter_map
          (fun (s : Sof.Symbol.t) ->
            if Sof.Symbol.is_defined s then Some (s.name, s.binding) else None)
          o.Sof.Object_file.symbols;
      f_undefs =
        S.of_list
          (List.filter_map
             (fun (s : Sof.Symbol.t) ->
               if s.kind = Sof.Symbol.Undef then Some s.name else None)
             o.Sof.Object_file.symbols);
      f_relocs =
        S.of_list
          (List.map (fun (r : Sof.Reloc.t) -> r.symbol) o.Sof.Object_file.relocs);
      f_ctors = o.Sof.Object_file.ctors;
    }
  in
  { empty with frags = [ f ] }

(* -- queries --------------------------------------------------------------- *)

let is_exported_binding = function
  | Sof.Symbol.Global | Sof.Symbol.Weak -> true
  | Sof.Symbol.Local -> false

(** Names exported by the module (sorted, deduplicated) — the abstract
    {!Jigsaw.Module_ops.exports}. *)
let exports (m : t) : string list =
  List.sort_uniq String.compare
    (List.concat_map
       (fun f ->
         List.filter_map
           (fun (n, b) -> if is_exported_binding b then Some n else None)
           f.f_defs)
       m.frags)

(** Names defined anywhere in the module, at any visibility. *)
let defined_any (m : t) : string list =
  List.sort_uniq compare
    (List.concat_map (fun f -> List.map fst f.f_defs) m.frags)

module H = Hashtbl.Make (String)

(** Names referenced by the module but exported nowhere inside it — the
    abstract {!Jigsaw.Module_ops.undefined} (a local definition in a
    sibling fragment does {e not} satisfy a reference). A fragment's
    global and weak definitions are exported, so a reference is
    undefined unless the module exports it or its own fragment defines
    it local: one table of exports, one pass over the references, one
    sort. *)
let undefined (m : t) : string list =
  let n_defs = List.fold_left (fun k f -> k + List.length f.f_defs) 0 m.frags in
  let exported = H.create n_defs and locals = H.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (n, b) -> if is_exported_binding b then H.replace exported n ())
        f.f_defs)
    m.frags;
  let refs =
    List.fold_left
      (fun acc f ->
        List.iter
          (fun (n, b) -> if not (is_exported_binding b) then H.replace locals n ())
          f.f_defs;
        let keep n acc =
          if H.mem exported n || H.mem locals n then acc else n :: acc
        in
        let acc = S.fold keep f.f_relocs (S.fold keep f.f_undefs acc) in
        H.reset locals;
        acc)
      [] m.frags
  in
  List.sort_uniq String.compare refs

(** Global definition names of one fragment, with multiplicity — the
    abstract [global_names_of_frag] that [merge]'s duplicate check
    iterates. *)
let frag_globals (f : frag) : string list =
  List.filter_map
    (fun (n, b) -> if b = Sof.Symbol.Global then Some n else None)
    f.f_defs

(** Definition and constructor names any fragment holds that match —
    what a [restrict]'s [Undefine] would actually touch. Sorted. *)
let touched (p : string -> bool) (m : t) : string list =
  List.sort_uniq compare
    (List.concat_map
       (fun f ->
         List.filter p (List.map fst f.f_defs) @ List.filter p f.f_ctors)
       m.frags)

(* -- the view-op mirrors ---------------------------------------------------- *)

let map_frags (g : frag -> frag) (m : t) : t =
  { m with frags = List.map g m.frags }

(* Sof.View.Undefine: drop matching definitions (any visibility) and
   matching constructors; references survive. *)
let undefine (p : string -> bool) : t -> t =
  map_frags (fun f ->
      {
        f with
        f_defs = List.filter (fun (n, _) -> not (p n)) f.f_defs;
        f_ctors = List.filter (fun c -> not (p c)) f.f_ctors;
      })

(* Sof.View.Rename_defs: rewrite definition and constructor names;
   references keep the old name. *)
let rename_defs (g : string -> string option) : t -> t =
  map_frags (fun f ->
      {
        f with
        f_defs =
          List.map
            (fun (n, b) -> (Option.value (g n) ~default:n, b))
            f.f_defs;
        f_ctors = List.map (fun c -> Option.value (g c) ~default:c) f.f_ctors;
      })

(* Sof.View.Rename_refs: rewrite explicit undef entries and relocation
   symbols. *)
let rename_refs (g : string -> string option) : t -> t =
  map_frags (fun f ->
      let rn s = S.map (fun n -> Option.value (g n) ~default:n) s in
      { f with f_undefs = rn f.f_undefs; f_relocs = rn f.f_relocs })

(* Sof.View.Copy_defs: append copies of matching definitions under the
   returned names (bindings preserved). *)
let copy_defs (g : string -> string option) : t -> t =
  map_frags (fun f ->
      let copies =
        List.filter_map
          (fun (n, b) -> Option.map (fun n' -> (n', b)) (g n))
          f.f_defs
      in
      { f with f_defs = f.f_defs @ copies })

(* -- the jigsaw operator mirrors -------------------------------------------- *)

(** [merge a b] — fragment concatenation. Conflict detection is the
    caller's job; like an abstract interpreter, the lattice continues
    past errors. *)
let merge (a : t) (b : t) : t =
  {
    frags = a.frags @ b.frags;
    frozen = S.union a.frozen b.frozen;
    hidden = S.union a.hidden b.hidden;
  }

(** [override a b] — virtualize [a]'s definitions of names [b] exports,
    then merge. *)
let override (a : t) (b : t) : t =
  let b_exports = S.of_list (exports b) in
  merge (undefine (fun n -> S.mem n b_exports) a) b

let restrict (p : string -> bool) (m : t) : t = undefine p m
let project (p : string -> bool) (m : t) : t = undefine (fun n -> not (p n)) m

let copy_as (g : string -> string option) (m : t) : t = copy_defs g m

let rename (scope : Jigsaw.Module_ops.rename_scope)
    (g : string -> string option) (m : t) : t =
  match scope with
  | Jigsaw.Module_ops.Defs_only -> rename_defs g m
  | Jigsaw.Module_ops.Refs_only -> rename_refs g m
  | Jigsaw.Module_ops.Both -> rename_refs g (rename_defs g m)

(** The shared freeze/hide/show mirror: each selected export moves to
    its {!Jigsaw.Module_ops.alias} at [key], the operator's occurrence
    key. *)
let freeze_like ~(keep_public : bool) ~(key : string) (sel : string -> bool)
    (m : t) : t =
  match List.filter sel (exports m) with
  | [] -> m
  | selected ->
      let aliases = Hashtbl.create 8 in
      List.iter
        (fun n ->
          Hashtbl.replace aliases n
            (Jigsaw.Module_ops.alias ~frozen:keep_public ~key n))
        selected;
      let g n = Hashtbl.find_opt aliases n in
      let m = rename_refs g m in
      if keep_public then
        { (copy_defs g m) with frozen = S.union m.frozen (S.of_list selected) }
      else { (rename_defs g m) with hidden = S.union m.hidden (S.of_list selected) }

let freeze ~key sel m = freeze_like ~keep_public:true ~key sel m
let hide ~key sel m = freeze_like ~keep_public:false ~key sel m
let show ~key sel m = hide ~key (fun n -> not (sel n)) m

(** The static-initializer driver: a synthetic fragment exporting
    [__init] and referencing each constructor, overriding the operand
    (so a weak default [__init] is replaced). *)
let initializers (m : t) : t =
  let ctors = List.concat_map (fun f -> f.f_ctors) m.frags in
  let refs = S.of_list ctors in
  let init_frag =
    {
      f_src = "(initializers)";
      f_defs = [ ("__init", Sof.Symbol.Global) ];
      f_undefs = S.remove "__init" refs;
      f_relocs = refs;
      f_ctors = [];
    }
  in
  override m { empty with frags = [ init_frag ] }
