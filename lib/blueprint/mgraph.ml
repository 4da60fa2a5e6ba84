(** M-graphs: the executable graphs blueprints compile to.

    "These rules map into a graph of operations, the m-graph. The
    m-graph is executable; execution of the m-graph will generate an
    implementation of the class. Before executing the m-graph, OMOS
    applies any user-specified specializations to it, transforming the
    m-graph as appropriate."

    A node evaluates to a Jigsaw module plus accumulated address-space
    preferences. [Specialize] nodes dispatch through a registry of
    {!specializer}s: the base styles live here, and the server registers
    the shared-library styles ("lib-dynamic", "monitor", …) that need
    access to caching and stub generation. *)

exception Eval_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(** Which segment an address constraint applies to ("T"/"D" in the
    paper's constraint lists). *)
type seg = Seg_text | Seg_data

let seg_of_string = function
  | "T" | "t" | "text" -> Seg_text
  | "D" | "d" | "data" -> Seg_data
  | s -> fail "unknown segment %S (expected \"T\" or \"D\")" s

let seg_to_string = function Seg_text -> "T" | Seg_data -> "D"

type constraint_pref = {
  seg : seg;
  priority : int;
  pref : Constraints.Placement.pref;
}

type node =
  | Leaf of Sof.Object_file.t
  | Name of string (* server-object path, resolved by the env *)
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
  | Source of string * string (* language, source text *)
  | Specialize of string * value list * node
  | Constrain of seg * int * node (* preferred base address for seg *)
  | Lst of node list

and value = Vstr of string | Vnum of int | Vlist of value list | Vnode of node

(** Result of evaluating a node. *)
type result = { m : Jigsaw.Module_ops.t; constraints : constraint_pref list }

(** Where a node sits in the graph: the operand steps from the root,
    innermost first, each with its operand index under a [merge] or an
    [override]. A [Name] and the graph it resolves to share one
    occurrence. *)
type occurrence = (int option * node) list

(** Subtree-reuse hooks (see {!eval_memo}): [lookup] may answer a node
    at an occurrence with a previously materialized result,
    short-circuiting its whole subtree; [store] observes every freshly
    evaluated node. The hooks decide soundness (which nodes are safe to
    memoize, and where) — evaluation only threads them. *)
type memo_hooks = {
  lookup : occurrence -> node -> result option;
  store : occurrence -> node -> result -> unit;
}

type env = {
  resolve : string -> node;
  specializers : (string, specializer) Hashtbl.t;
  mutable visiting : string list; (* cycle detection for Name *)
  mutable occ : occurrence; (* the node under evaluation; [] between evaluations *)
  mutable memo : memo_hooks option; (* engaged by eval_memo only *)
}

and specializer = env -> value list -> node -> result

(* -- construction from s-expressions ------------------------------------- *)

let normalize_op (s : string) : string =
  String.map (fun c -> if c = '-' then '_' else c) (String.lowercase_ascii s)

let rec of_sexp (s : Sexp.t) : node =
  match s with
  | Sexp.Sym path -> Name path
  | Sexp.Str _ | Sexp.Int _ -> fail "expected an object or operation, got %s" (Sexp.to_string s)
  | Sexp.List (Sexp.Sym op :: args) -> of_op (normalize_op op) args
  | Sexp.List _ -> fail "expected an operation, got %s" (Sexp.to_string s)

and value_of_sexp (s : Sexp.t) : value =
  match s with
  | Sexp.Str v -> Vstr v
  | Sexp.Int n -> Vnum n
  | Sexp.List (Sexp.Sym op :: args) when normalize_op op = "list" ->
      Vlist (List.map value_of_sexp args)
  | Sexp.Sym _ | Sexp.List _ -> Vnode (of_sexp s)

and pattern_of = function
  | Sexp.Str p -> p
  | s -> fail "expected a pattern string, got %s" (Sexp.to_string s)

and of_op (op : string) (args : Sexp.t list) : node =
  match (op, args) with
  | "merge", operands when operands <> [] -> Merge (List.map of_sexp operands)
  | "override", [ a; b ] -> Override (of_sexp a, of_sexp b)
  | "freeze", [ p; x ] -> Freeze (pattern_of p, of_sexp x)
  | "restrict", [ p; x ] -> Restrict (pattern_of p, of_sexp x)
  | "project", [ p; x ] -> Project (pattern_of p, of_sexp x)
  | "copy_as", [ p; n; x ] -> Copy_as (pattern_of p, pattern_of n, of_sexp x)
  | "hide", [ p; x ] -> Hide (pattern_of p, of_sexp x)
  | "show", [ p; x ] -> Show (pattern_of p, of_sexp x)
  | "rename", [ p; t; x ] ->
      Rename (Jigsaw.Module_ops.Both, pattern_of p, pattern_of t, of_sexp x)
  | "rename", [ Sexp.Str scope; p; t; x ]
    when scope = "defs" || scope = "refs" || scope = "both" ->
      let sc =
        match scope with
        | "defs" -> Jigsaw.Module_ops.Defs_only
        | "refs" -> Jigsaw.Module_ops.Refs_only
        | _ -> Jigsaw.Module_ops.Both
      in
      Rename (sc, pattern_of p, pattern_of t, of_sexp x)
  | "initializers", [ x ] -> Initializers (of_sexp x)
  | "source", [ Sexp.Str lang; Sexp.Str text ] -> Source (lang, text)
  | "specialize", Sexp.Str style :: rest when rest <> [] ->
      let rec split = function
        | [ last ] -> ([], last)
        | x :: rest ->
            let vs, last = split rest in
            (x :: vs, last)
        | [] -> assert false
      in
      let vs, last = split rest in
      Specialize (style, List.map value_of_sexp vs, of_sexp last)
  | "constrain", [ Sexp.Str seg; Sexp.Int addr; x ] ->
      Constrain (seg_of_string seg, addr, of_sexp x)
  | "list", operands -> Lst (List.map of_sexp operands)
  | _ -> fail "bad operation (%s ...) with %d argument(s)" op (List.length args)

(** Parse a single blueprint expression into an m-graph. *)
let parse (src : string) : node = of_sexp (Sexp.parse_one src)

(** Surface-syntax operator name of a node — the vocabulary of m-graph
    path addressing in lint findings and occurrence keys. *)
let op_name (n : node) : string =
  match n with
  | Leaf o -> "leaf:" ^ o.Sof.Object_file.name
  | Name p -> p
  | Merge _ -> "merge"
  | Override _ -> "override"
  | Freeze _ -> "freeze"
  | Restrict _ -> "restrict"
  | Project _ -> "project"
  | Copy_as _ -> "copy-as"
  | Hide _ -> "hide"
  | Show _ -> "show"
  | Rename _ -> "rename"
  | Initializers _ -> "initializers"
  | Source (lang, _) -> "source:" ^ lang
  | Specialize (style, _, _) -> "specialize:" ^ style
  | Constrain _ -> "constrain"
  | Lst _ -> "list"

(* -- evaluation ----------------------------------------------------------- *)

let no_constraints (m : Jigsaw.Module_ops.t) : result = { m; constraints = [] }

(* Flatten Lst operands: (merge a (list b c)) merges a, b and c. *)
let rec flatten_operands (ns : node list) : node list =
  List.concat_map (function Lst xs -> flatten_operands xs | n -> [ n ]) ns

(* [constrain] and "lib-constrained" prefer the exact base (priority 6)
   and fall back to a nearby one (priority 3). *)
let address_prefs (seg : seg) (addr : int) : constraint_pref list =
  [
    { seg; priority = 6; pref = Constraints.Placement.At addr };
    { seg; priority = 3; pref = Constraints.Placement.Near addr };
  ]

let lib_constrained_prefs (args : value list) :
    (constraint_pref list, string) Stdlib.result =
  let rec pairs = function
    | Vstr seg :: Vnum addr :: rest -> (
        match seg_of_string seg with
        | seg -> Result.map (fun tail -> address_prefs seg addr @ tail) (pairs rest)
        | exception Eval_error msg -> Error msg)
    | [] -> Ok []
    | _ -> Error "lib-constrained: expected alternating segment/address arguments"
  in
  pairs (List.concat_map (function Vlist vs -> vs | v -> [ v ]) args)

(* Occurrence paths: the root's [op_name], then one [child_path] step
   per operand descended into. *)
let child_path (parent : string) ?idx (n : node) : string =
  let parent =
    match idx with None -> parent | Some i -> Printf.sprintf "%s[%d]" parent i
  in
  parent ^ "." ^ op_name n

let path (occ : occurrence) : string =
  match List.rev occ with
  | [] -> ""
  | (_, root) :: steps ->
      List.fold_left (fun p (idx, n) -> child_path p ?idx n) (op_name root) steps

let occurrence_key (path : string) : string =
  String.sub (Digest.to_hex (Digest.string path)) 0 8

(* The alias key of the freeze/hide/show under evaluation. *)
let key_here (env : env) : string = occurrence_key (path env.occ)

(* Run [k] with the occurrence cursor on operand [x] of the node under
   evaluation. No restore on exceptions: the root {!eval} resets the
   cursor instead. *)
let descend (env : env) ?idx (x : node) (k : unit -> 'a) : 'a =
  let parent = env.occ in
  env.occ <- (idx, x) :: parent;
  let r = k () in
  env.occ <- parent;
  r

let tm_source_compiles = Telemetry.Counter.make "blueprint.source_compiles"

let rec eval_node (env : env) (n : node) : result =
  match env.memo with
  | None -> eval_node_uncached env n
  | Some h -> (
      match h.lookup env.occ n with
      | Some r -> r
      | None ->
          let r = eval_node_uncached env n in
          h.store env.occ n r;
          r)

and eval_operand (env : env) ?idx (x : node) : result =
  descend env ?idx x (fun () -> eval_node env x)

and eval_node_uncached (env : env) (n : node) : result =
  match n with
  | Leaf o -> no_constraints (Jigsaw.Module_ops.of_object o)
  | Name path ->
      if List.mem path env.visiting then
        fail "cyclic meta-object reference through %s" path;
      let sub = env.resolve path in
      env.visiting <- path :: env.visiting;
      let r =
        Telemetry.with_span "blueprint.resolve"
          ~attrs:[ ("path", Telemetry.S path) ]
          (fun () -> eval_node env sub)
      in
      env.visiting <- List.tl env.visiting;
      r
  | Merge operands ->
      let rs =
        List.mapi (fun i x -> eval_operand env ~idx:i x) (flatten_operands operands)
      in
      let m = Jigsaw.Module_ops.merge_list (List.map (fun r -> r.m) rs) in
      { m; constraints = List.concat_map (fun r -> r.constraints) rs }
  | Override (a, b) ->
      let ra = eval_operand env ~idx:0 a in
      let rb = eval_operand env ~idx:1 b in
      { m = Jigsaw.Module_ops.override ra.m rb.m;
        constraints = ra.constraints @ rb.constraints }
  | Freeze (p, x) ->
      map_module env x (Jigsaw.Module_ops.freeze ~key:(key_here env) (Jigsaw.Select.compile p))
  | Restrict (p, x) -> map_module env x (Jigsaw.Module_ops.restrict (Jigsaw.Select.compile p))
  | Project (p, x) -> map_module env x (Jigsaw.Module_ops.project (Jigsaw.Select.compile p))
  | Copy_as (p, name, x) ->
      map_module env x (Jigsaw.Module_ops.copy_as (Jigsaw.Select.compile p) name)
  | Hide (p, x) ->
      map_module env x (Jigsaw.Module_ops.hide ~key:(key_here env) (Jigsaw.Select.compile p))
  | Show (p, x) ->
      map_module env x (Jigsaw.Module_ops.show ~key:(key_here env) (Jigsaw.Select.compile p))
  | Rename (scope, p, t, x) ->
      map_module env x (Jigsaw.Module_ops.rename ~scope (Jigsaw.Select.compile p) t)
  | Initializers x -> map_module env x Jigsaw.Module_ops.initializers
  | Source (lang, text) -> (
      match lang with
      | "c" | "C" ->
          let obj =
            Telemetry.with_span "blueprint.compile"
              ~attrs:[ ("lang", Telemetry.S lang) ]
            @@ fun () ->
            Telemetry.Counter.incr tm_source_compiles;
            try Minic.Driver.compile ~name:"(source)" text
            with Minic.Driver.Compile_error msg -> fail "source: %s" msg
          in
          no_constraints (Jigsaw.Module_ops.of_object obj)
      | other -> fail "source: unsupported language %S" other)
  | Specialize (style, args, x) -> (
      match Hashtbl.find_opt env.specializers style with
      | Some f ->
          (* the specializer re-enters [eval] for its operand [x] *)
          Telemetry.with_span "blueprint.specialize"
            ~attrs:[ ("style", Telemetry.S style) ]
            (fun () -> descend env x (fun () -> f env args x))
      | None -> fail "unknown specialization %S" style)
  | Constrain (seg, addr, x) ->
      let r = eval_operand env x in
      { r with constraints = address_prefs seg addr @ r.constraints }
  | Lst _ -> fail "list is only meaningful as an operand of another operation"

and map_module env (x : node) (f : Jigsaw.Module_ops.t -> Jigsaw.Module_ops.t) : result =
  let r = eval_operand env x in
  try { r with m = f r.m }
  with Jigsaw.Module_ops.Module_error msg -> fail "%s" msg

(** Evaluate an m-graph. The public entry point wraps the recursive
    evaluator in a ["blueprint.eval"] span, so every specializer that
    re-enters through it (the server's library styles do) nests a fresh
    span under its ["blueprint.specialize"] parent. Re-entered, it
    evaluates the specializer's operand at the operand's occurrence;
    otherwise [n] is the root. *)
let eval (env : env) (n : node) : result =
  Telemetry.with_span "blueprint.eval" @@ fun () ->
  match env.occ with
  | _ :: _ -> eval_node env n
  | [] ->
      env.occ <- [ (None, n) ];
      Fun.protect
        ~finally:(fun () ->
          env.occ <- [];
          env.visiting <- [])
        (fun () -> eval_node env n)

(** [eval_memo env hooks n] evaluates with the subtree-reuse hooks
    engaged for the duration of this evaluation (restoring whatever was
    engaged before, exception-safe). Specializers that re-enter {!eval}
    inherit the hooks — an instantiation nested under a reusable parent
    benefits from the same memo table. *)
let eval_memo (env : env) (hooks : memo_hooks) (n : node) : result =
  let saved = env.memo in
  env.memo <- Some hooks;
  Fun.protect
    ~finally:(fun () -> env.memo <- saved)
    (fun () -> eval env n)

(* -- base specializers ----------------------------------------------------- *)

(* "lib-constrained": (specialize "lib-constrained" (list "T" 0x1000000)
   /lib/libc) — attach address preferences from the argument list. *)
let lib_constrained : specializer =
 fun env args x ->
  let r = eval env x in
  match lib_constrained_prefs args with
  | Ok prefs -> { r with constraints = prefs @ r.constraints }
  | Error msg -> raise (Eval_error msg)

(* "lib-static": mark for fully static inclusion — the module passes
   through; the scheme choice happens in the server. *)
let identity_spec : specializer = fun env _args x -> eval env x

(** A fresh registry containing the base specializers. *)
let base_specializers () : (string, specializer) Hashtbl.t =
  let h = Hashtbl.create 8 in
  Hashtbl.replace h "lib-constrained" lib_constrained;
  Hashtbl.replace h "lib-static" identity_spec;
  Hashtbl.replace h "identity" identity_spec;
  h

(** [env ~resolve ()] builds an evaluation environment. [resolve] maps
    server-object paths to sub-graphs (the server supplies its
    namespace); the default refuses all names. *)
let make_env ?(resolve = fun path -> fail "unknown server object %s" path) () : env =
  { resolve; specializers = base_specializers (); visiting = []; occ = []; memo = None }

(** Register an additional specialization style. *)
let register (env : env) (style : string) (f : specializer) : unit =
  Hashtbl.replace env.specializers style f

(* -- graph utilities -------------------------------------------------------- *)

(** [map_leaves f n] rewrites every [Leaf]/[Name]/[Source] of the graph —
    the transformation hook specializations use. *)
let rec map_nodes (f : node -> node option) (n : node) : node =
  match f n with
  | Some n' -> n'
  | None -> (
      match n with
      | Leaf _ | Name _ | Source _ -> n
      | Merge xs -> Merge (List.map (map_nodes f) xs)
      | Override (a, b) -> Override (map_nodes f a, map_nodes f b)
      | Freeze (p, x) -> Freeze (p, map_nodes f x)
      | Restrict (p, x) -> Restrict (p, map_nodes f x)
      | Project (p, x) -> Project (p, map_nodes f x)
      | Copy_as (p, t, x) -> Copy_as (p, t, map_nodes f x)
      | Hide (p, x) -> Hide (p, map_nodes f x)
      | Show (p, x) -> Show (p, map_nodes f x)
      | Rename (s, p, t, x) -> Rename (s, p, t, map_nodes f x)
      | Initializers x -> Initializers (map_nodes f x)
      | Specialize (st, vs, x) -> Specialize (st, vs, map_nodes f x)
      | Constrain (s, a, x) -> Constrain (s, a, map_nodes f x)
      | Lst xs -> Lst (List.map (map_nodes f) xs))

(** The selector pattern a node carries, if its operator takes one. *)
let selector_of (n : node) : string option =
  match n with
  | Freeze (p, _) | Restrict (p, _) | Project (p, _) | Hide (p, _)
  | Show (p, _) | Copy_as (p, _, _) | Rename (_, p, _, _) ->
      Some p
  | Leaf _ | Name _ | Merge _ | Override _ | Initializers _ | Source _
  | Specialize _ | Constrain _ | Lst _ ->
      None

(** Names referenced anywhere in the graph (dependency extraction). *)
let rec names (n : node) : string list =
  match n with
  | Name p -> [ p ]
  | Leaf _ | Source _ -> []
  | Merge xs | Lst xs -> List.concat_map names xs
  | Override (a, b) -> names a @ names b
  | Freeze (_, x) | Restrict (_, x) | Project (_, x) | Hide (_, x) | Show (_, x)
  | Copy_as (_, _, x) | Rename (_, _, _, x) | Initializers x
  | Specialize (_, _, x) | Constrain (_, _, x) ->
      names x

let scope_code = function
  | Jigsaw.Module_ops.Defs_only -> "d"
  | Jigsaw.Module_ops.Refs_only -> "r"
  | Jigsaw.Module_ops.Both -> "b"

(** Stable digest of a graph (part of the image-cache key). *)
let rec digest_string (n : node) : string =
  match n with
  | Leaf o -> "leaf:" ^ Sof.Codec.digest o
  | Name p -> "name:" ^ p
  | Source (l, s) -> Printf.sprintf "src:%s:%s" l (Digest.to_hex (Digest.string s))
  | Merge xs -> "merge(" ^ String.concat "," (List.map digest_string xs) ^ ")"
  | Lst xs -> "list(" ^ String.concat "," (List.map digest_string xs) ^ ")"
  | Override (a, b) -> Printf.sprintf "override(%s,%s)" (digest_string a) (digest_string b)
  | Freeze (p, x) -> Printf.sprintf "freeze(%s,%s)" p (digest_string x)
  | Restrict (p, x) -> Printf.sprintf "restrict(%s,%s)" p (digest_string x)
  | Project (p, x) -> Printf.sprintf "project(%s,%s)" p (digest_string x)
  | Copy_as (p, t, x) -> Printf.sprintf "copy_as(%s,%s,%s)" p t (digest_string x)
  | Hide (p, x) -> Printf.sprintf "hide(%s,%s)" p (digest_string x)
  | Show (p, x) -> Printf.sprintf "show(%s,%s)" p (digest_string x)
  | Rename (sc, p, t, x) ->
      Printf.sprintf "rename%s(%s,%s,%s)" (scope_code sc) p t (digest_string x)
  | Initializers x -> Printf.sprintf "init(%s)" (digest_string x)
  | Specialize (st, vs, x) ->
      Printf.sprintf "spec(%s,%s,%s)" st
        (String.concat "," (List.map digest_value vs))
        (digest_string x)
  | Constrain (seg, a, x) ->
      Printf.sprintf "constrain(%s,%x,%s)" (seg_to_string seg) a (digest_string x)

and digest_value = function
  | Vstr s -> "s:" ^ s
  | Vnum n -> "n:" ^ string_of_int n
  | Vlist vs -> "l(" ^ String.concat "," (List.map digest_value vs) ^ ")"
  | Vnode n -> "g(" ^ digest_string n ^ ")"

let digest (n : node) : string = Digest.to_hex (Digest.string (digest_string n))

(** A node's own operator, parameters and content (leaf and source
    content by digest), operands excluded. Path-free for [Name]: what a
    name resolves to is content, not the name. *)
let local_key (n : node) : string =
  match n with
  | Leaf o -> "leaf:" ^ Sof.Codec.digest o
  | Name _ -> "name"
  | Source (lang, text) ->
      Printf.sprintf "source:%s:%s" lang (Digest.to_hex (Digest.string text))
  | Merge _ | Override _ | Initializers _ | Lst _ -> op_name n
  | Freeze (p, _) | Restrict (p, _) | Project (p, _) | Hide (p, _) | Show (p, _) ->
      op_name n ^ ":" ^ p
  | Copy_as (p, t, _) -> Printf.sprintf "copy-as:%s:%s" p t
  | Rename (sc, p, t, _) -> Printf.sprintf "rename%s:%s:%s" (scope_code sc) p t
  | Specialize (st, vs, _) ->
      Printf.sprintf "specialize:%s:%s" st (String.concat "," (List.map digest_value vs))
  | Constrain (seg, a, _) -> Printf.sprintf "constrain:%s:0x%x" (seg_to_string seg) a
