(** The Jigsaw module operators (paper §3.3, after Bracha & Lindstrom).

    "Conceptually, a module is a self-referential naming scope. Module
    operations operate on and modify the symbol bindings in modules. The
    modified bindings define the inheritance relationships between the
    component objects."

    A module here is an ordered list of SOF {!Sof.View.t}s. Every
    operator is non-destructive: it returns a new module whose fragments
    are new view layers over the same section bytes (the paper's cheap
    "views"). Binding semantics at link time: a fragment's references
    resolve to its own definitions first, then to exported definitions
    anywhere in the final merge — so making a binding {e permanent}
    (freeze/hide) is implemented by renaming both definition and
    references to a fresh private name no later operation can touch. *)

exception Module_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Module_error s)) fmt

(* Every operator runs inside a "jigsaw.<op>" span and bumps the shared
   operator counter. *)
let tm_ops = Telemetry.Counter.make "jigsaw.ops"

let traced (op : string) (f : unit -> 'a) : 'a =
  Telemetry.Counter.incr tm_ops;
  Telemetry.with_span ("jigsaw." ^ op) f

(* Shorthand for the provenance journal: every call site below is
   gated, so disabled provenance costs one flag test per operator. *)
let prov () = Telemetry.Provenance.is_enabled ()

type t = { label : string; fragments : Sof.View.t list }

let v ?(label = "<module>") (fragments : Sof.View.t list) : t = { label; fragments }

let of_object (o : Sof.Object_file.t) : t =
  { label = o.Sof.Object_file.name; fragments = [ Sof.View.of_object o ] }

let of_objects ?(label = "<module>") (os : Sof.Object_file.t list) : t =
  { label; fragments = List.map Sof.View.of_object os }

let fragments (m : t) : Sof.Object_file.t list =
  List.map Sof.View.materialize m.fragments

let label (m : t) = m.label

(** Names exported by the module. *)
let exports (m : t) : string list =
  List.sort_uniq compare
    (List.concat_map
       (fun o -> List.map (fun (s : Sof.Symbol.t) -> s.name) (Sof.Object_file.exported o))
       (fragments m))

(** Names referenced by the module but defined nowhere inside it. *)
let undefined (m : t) : string list =
  let frags = fragments m in
  let defined = Hashtbl.create 64 in
  List.iter
    (fun o ->
      List.iter
        (fun (s : Sof.Symbol.t) -> Hashtbl.replace defined s.Sof.Symbol.name ())
        (Sof.Object_file.exported o))
    frags;
  List.sort_uniq compare
    (List.concat_map
       (fun o -> List.filter (fun n -> not (Hashtbl.mem defined n))
                   (Sof.Object_file.undefined o))
       frags)

(** Flatten the module into a single relocatable object (partial link) —
    what gets cached as a library implementation. *)
let to_object ?name (m : t) : Sof.Object_file.t =
  let name = Option.value name ~default:m.label in
  Linker.Link.combine ~name (fragments m)

(* Map every fragment through a view-op generator. *)
let map_views (m : t) (f : Sof.View.t -> Sof.View.t) : t =
  { m with fragments = List.map f m.fragments }

let push_all (m : t) (op : Sof.View.op) : t =
  map_views m (fun v -> Sof.View.push v op)

(* Exported definition names per fragment, for conflict detection. *)
let exported_names_of_frag (o : Sof.Object_file.t) : string list =
  List.map (fun (s : Sof.Symbol.t) -> s.name) (Sof.Object_file.exported o)

let global_names_of_frag (o : Sof.Object_file.t) : string list =
  List.filter_map
    (fun (s : Sof.Symbol.t) ->
      if Sof.Symbol.is_defined s && s.binding = Sof.Symbol.Global then Some s.name
      else None)
    o.Sof.Object_file.symbols

(* A defs-side rewrite that mints a global definition name already
   defined elsewhere in the module can never link — refuse it up front,
   the way [merge] refuses duplicate definitions. [minted] maps each
   current global definition name to the global names carried after the
   rewrite. *)
let check_minted_collisions ~op (minted : string -> string list) (m : t) : unit =
  let count tbl n =
    Hashtbl.replace tbl n (1 + Option.value (Hashtbl.find_opt tbl n) ~default:0)
  in
  let before = Hashtbl.create 32 and after = Hashtbl.create 32 in
  List.iter
    (fun o ->
      List.iter
        (fun n ->
          count before n;
          List.iter (count after) (minted n))
        (global_names_of_frag o))
    (fragments m);
  let collisions =
    Hashtbl.fold
      (fun n c acc ->
        let was = Option.value (Hashtbl.find_opt before n) ~default:0 in
        if c >= 2 && c > was then n :: acc else acc)
      after []
  in
  match List.sort_uniq compare collisions with
  | [] -> ()
  | n :: _ -> fail "%s: duplicate definition of %s minted by the rewrite" op n

(** [merge a b] binds the symbol definitions found in one operand to the
    references found in the other. Multiple {e global} definitions of a
    symbol constitute an error (weak definitions coexist). *)
let merge (a : t) (b : t) : t =
  traced "merge" @@ fun () ->
  let seen = Hashtbl.create 64 in
  List.iter
    (fun o ->
      List.iter
        (fun n ->
          match Hashtbl.find_opt seen n with
          | Some f1 -> fail "merge: duplicate definition of %s (in %s and %s)" n f1
                         o.Sof.Object_file.name
          | None -> Hashtbl.replace seen n o.Sof.Object_file.name)
        (global_names_of_frag o))
    (fragments a @ fragments b);
  let label = Printf.sprintf "(merge %s %s)" a.label b.label in
  if prov () then Telemetry.Provenance.record_op ~op:"merge" ~detail:label;
  { label; fragments = a.fragments @ b.fragments }

let merge_list (ms : t list) : t =
  match ms with
  | [] -> fail "merge: no operands"
  | [ m ] -> m
  | m :: rest -> List.fold_left merge m rest

(** [restrict sel m] virtualizes the selected bindings: definitions are
    removed, references to them become (or stay) unbound. *)
let restrict (sel : Select.t) (m : t) : t =
  traced "restrict" @@ fun () ->
  let label = Printf.sprintf "(restrict %s %s)" (Select.pattern sel) m.label in
  if prov () then begin
    Telemetry.Provenance.record_op ~op:"restrict" ~detail:label;
    List.iter
      (fun n ->
        if Select.matches sel n then
          Telemetry.Provenance.record_sym ~op:"restrict" ~symbol:n
            "definition virtualized (references left unbound)")
      (exports m)
  end;
  let m' = push_all m (Sof.View.Undefine (Select.matches sel)) in
  { m' with label }

(** [project sel m] is the complement: virtualize all {e but} the
    selected bindings. *)
let project (sel : Select.t) (m : t) : t =
  traced "project" @@ fun () ->
  let label = Printf.sprintf "(project %s %s)" (Select.pattern sel) m.label in
  if prov () then Telemetry.Provenance.record_op ~op:"project" ~detail:label;
  let m' = push_all m (Sof.View.Undefine (fun n -> not (Select.matches sel n))) in
  { m' with label }

(** [override a b] merges, resolving conflicting definitions in favour
    of [b]: [a]'s conflicting definitions are virtualized first, so
    [a]'s references rebind to [b]'s implementations. *)
let override (a : t) (b : t) : t =
  traced "override" @@ fun () ->
  (* name -> defining fragment of [b], for conflict detection and for
     naming the interposition winner in the journal *)
  let b_exports : (string, string) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun o ->
      List.iter
        (fun n -> Hashtbl.replace b_exports n o.Sof.Object_file.name)
        (exported_names_of_frag o))
    (fragments b);
  let label = Printf.sprintf "(override %s %s)" a.label b.label in
  if prov () then begin
    Telemetry.Provenance.record_op ~op:"override" ~detail:label;
    (* [a]'s definitions that [b] shadows: the interposition
       winners/losers the paper's interposition examples are about *)
    List.iter
      (fun o ->
        List.iter
          (fun n ->
            match Hashtbl.find_opt b_exports n with
            | Some winner ->
                Telemetry.Provenance.record_interpose ~symbol:n ~winner
                  ~loser:o.Sof.Object_file.name ~how:"override";
                Telemetry.Provenance.record_sym ~op:"override" ~symbol:n
                  (Printf.sprintf "definition from %s replaces %s" winner
                     o.Sof.Object_file.name)
            | None -> ())
          (exported_names_of_frag o))
      (fragments a)
  end;
  let a' = push_all a (Sof.View.Undefine (Hashtbl.mem b_exports)) in
  let merged = merge a' b in
  { merged with label }

(** [copy_as sel new_name m] duplicates the value of the selected
    definition(s) under a new name ([new_name] may use [\1]-style group
    references against [sel]). *)
let copy_as (sel : Select.t) (new_name : string) (m : t) : t =
  traced "copy_as" @@ fun () ->
  check_minted_collisions ~op:"copy_as"
    (fun n ->
      match Select.rewrite sel new_name n with
      | Some n' -> [ n; n' ]
      | None -> [ n ])
    m;
  let label =
    Printf.sprintf "(copy_as %s %s %s)" (Select.pattern sel) new_name m.label
  in
  if prov () then begin
    Telemetry.Provenance.record_op ~op:"copy_as" ~detail:label;
    let map = Select.rewrite sel new_name in
    List.iter
      (fun n ->
        match map n with
        | Some n' ->
            Telemetry.Provenance.record_sym ~op:"copy_as" ~symbol:n' ~prior:n
              (Printf.sprintf "copied from %s" n)
        | None -> ())
      (exports m)
  end;
  let m' = push_all m (Sof.View.Copy_defs (Select.rewrite sel new_name)) in
  { m' with label }

(** The private alias freeze ([frozen]) or hide/show gives [n] at the
    operator occurrence [key]. The one spelling of a minted name: the
    symbol-flow analyzer predicts aliases through it too. *)
let alias ~frozen ~(key : string) (n : string) : string =
  n ^ (if frozen then "$frz" else "$hid") ^ key

(** Kept only because the host-clock benchmark still calls them:
    aliases no longer come from a counter, so there is nothing to read
    or align. *)
let gensym_current () = 0

let gensym_set (_ : int) : unit = ()

(* Shared machinery of freeze/hide/show: rename all references to the
   selected exported names to their private alias at [key];
   [keep_public] decides whether the public definition survives
   (freeze) or is renamed away (hide). *)
let freeze_like ~keep_public ~key (selects : string -> bool) (m : t) : t =
  match List.filter selects (exports m) with
  | [] -> m
  | selected ->
      let aliases = Hashtbl.create 8 in
      List.iter
        (fun n -> Hashtbl.replace aliases n (alias ~frozen:keep_public ~key n))
        selected;
      let ref_map n = Hashtbl.find_opt aliases n in
      let m = push_all m (Sof.View.Rename_refs ref_map) in
      if keep_public then push_all m (Sof.View.Copy_defs ref_map)
      else push_all m (Sof.View.Rename_defs ref_map)

(* Journal the exported names an operator affected. *)
let record_selected ~op ~action (sel : Select.t) (m : t) : unit =
  if prov () then
    List.iter
      (fun n ->
        if Select.matches sel n then
          Telemetry.Provenance.record_sym ~op ~symbol:n action)
      (exports m)

(** [freeze ~key sel m] makes the current binding of the selected
    symbols permanent: intra-module references can no longer be
    rebound by later [override]/[restrict], while the public definition
    remains exported. *)
let freeze ~key (sel : Select.t) (m : t) : t =
  traced "freeze" @@ fun () ->
  let label = Printf.sprintf "(freeze %s %s)" (Select.pattern sel) m.label in
  if prov () then Telemetry.Provenance.record_op ~op:"freeze" ~detail:label;
  record_selected ~op:"freeze" ~action:"binding made permanent (still exported)"
    sel m;
  let m' = freeze_like ~keep_public:true ~key (Select.matches sel) m in
  { m' with label }

(** [hide ~key sel m] removes the selected definitions from the
    exported symbol table, freezing internal references to them in the
    process. *)
let hide ~key (sel : Select.t) (m : t) : t =
  traced "hide" @@ fun () ->
  let label = Printf.sprintf "(hide %s %s)" (Select.pattern sel) m.label in
  if prov () then Telemetry.Provenance.record_op ~op:"hide" ~detail:label;
  record_selected ~op:"hide"
    ~action:"definition hidden under a private alias" sel m;
  let m' = freeze_like ~keep_public:false ~key (Select.matches sel) m in
  { m' with label }

(** [show ~key sel m] hides all but the selected definitions. *)
let show ~key (sel : Select.t) (m : t) : t =
  traced "show" @@ fun () ->
  let label = Printf.sprintf "(show %s %s)" (Select.pattern sel) m.label in
  if prov () then Telemetry.Provenance.record_op ~op:"show" ~detail:label;
  let victim n = not (Select.matches sel n) in
  if prov () then
    List.iter
      (fun n ->
        if victim n then
          Telemetry.Provenance.record_sym ~op:"show" ~symbol:n
            "definition hidden under a private alias")
      (exports m);
  let m' = freeze_like ~keep_public:false ~key victim m in
  { m' with label }

(** Which side of the namespace [rename] rewrites. *)
type rename_scope = Defs_only | Refs_only | Both

(** [rename sel template m] systematically changes names in the operand
    symbol table. Names may be references, definitions, or both. *)
let rename ?(scope = Both) (sel : Select.t) (template : string) (m : t) : t =
  traced "rename" @@ fun () ->
  let map = Select.rewrite sel template in
  if scope <> Refs_only then
    check_minted_collisions ~op:"rename"
      (fun n -> [ Option.value (map n) ~default:n ])
      m;
  let label =
    Printf.sprintf "(rename %s %s %s)" (Select.pattern sel) template m.label
  in
  if prov () then begin
    Telemetry.Provenance.record_op ~op:"rename" ~detail:label;
    (* journal under the *new* name with [prior] pointing back, so a
       query for the exported name follows the rename chain *)
    if scope <> Refs_only then
      List.iter
        (fun n ->
          match map n with
          | Some n' when n' <> n ->
              Telemetry.Provenance.record_sym ~op:"rename" ~symbol:n' ~prior:n
                (Printf.sprintf "renamed from %s" n)
          | _ -> ())
        (exports m)
  end;
  let m' =
    match scope with
    | Defs_only -> push_all m (Sof.View.Rename_defs map)
    | Refs_only -> push_all m (Sof.View.Rename_refs map)
    | Both ->
        push_all (push_all m (Sof.View.Rename_defs map)) (Sof.View.Rename_refs map)
  in
  { m' with label }

(** [initializers m] generates the static-initializer driver for the
    constructors found in the module (the paper's C++ support): a
    global [__init] routine calling each registered constructor in
    order. The synthesized definition is merged in, overriding the weak
    default provided by crt0. *)
let initializers (m : t) : t =
  traced "initializers" @@ fun () ->
  if prov () then
    Telemetry.Provenance.record_op ~op:"initializers"
      ~detail:(Printf.sprintf "(initializers %s)" m.label);
  let ctors = List.concat_map (fun o -> o.Sof.Object_file.ctors) (fragments m) in
  let a = Sof.Asm.create "(initializers)" in
  Sof.Asm.label a "__init";
  (* save ra across the constructor calls *)
  Sof.Asm.instrs a
    [ Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, -4l);
      Svm.Isa.St (Svm.Isa.reg_sp, Svm.Isa.reg_ra, 0l) ];
  List.iter (fun c -> Sof.Asm.call a c) ctors;
  Sof.Asm.instrs a
    [ Svm.Isa.Ld (Svm.Isa.reg_ra, Svm.Isa.reg_sp, 0l);
      Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, 4l);
      Svm.Isa.Ret ];
  let init_obj = Sof.Asm.finish a in
  let m' = override m (of_object init_obj) in
  { m' with label = Printf.sprintf "(initializers %s)" m.label }
