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

(** Subtree reuse (see {!eval_memo}): [memo occ n eval] evaluates the
    node [n] at [occ]. It may answer with a previously materialized
    result, short-circuiting the whole subtree, or run [eval] (the
    evaluation proper) and keep what it returns. The hook decides
    soundness (which nodes are safe to memoize, and where) — evaluation
    only threads it. *)
type memo = occurrence -> node -> (unit -> result) -> result

type env = {
  resolve : string -> node;
  specializers : (string, specializer) Hashtbl.t;
  mutable visiting : string list; (* cycle detection for Name *)
  mutable occ : occurrence; (* the node under evaluation; [] between evaluations *)
  mutable memo : memo option; (* engaged by eval_memo only *)
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
  | Some memo -> memo env.occ n (fun () -> eval_node_uncached env n)

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

(** [eval_memo env memo n] evaluates with the subtree-reuse hook
    engaged for the duration of this evaluation (restoring whatever was
    engaged before, exception-safe). Specializers that re-enter {!eval}
    inherit the hook — an instantiation nested under a reusable parent
    benefits from the same memo table. *)
let eval_memo (env : env) (memo : memo) (n : node) : result =
  let saved = env.memo in
  env.memo <- Some memo;
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

(* -- own parts and the construction digest ---------------------------------- *)

(* How operands group into lists: flattening forgets it, the node's
   construction does not. *)
let rec grouping (ns : node list) : string =
  if List.exists (function Lst _ -> true | _ -> false) ns then
    String.concat "" (List.map (function Lst xs -> "(" ^ grouping xs ^ ")" | _ -> ".") ns)
  else String.make (List.length ns) '.'

(* [n] in base 128, low digits first, the high bit set on every byte
   but the last: one byte below 128. *)
let rec add_length (b : Buffer.t) (n : int) : unit =
  if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_length b (n lsr 7)
  end

(* [s] behind its length: a run of such parts splits one way only. *)
let add_part (b : Buffer.t) (s : string) : unit =
  add_length b (String.length s);
  Buffer.add_string b s

(* [op] with its parameters, each behind its length. No operator's
   name begins another's, nor one value tag another's, so no two own
   parts render alike, whatever characters the parameters hold. *)
let params (op : string) (ps : string list) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b op;
  List.iter (add_part b) ps;
  Buffer.contents b

let rec own_part (n : node) : string =
  match n with
  | Leaf o -> params "leaf" [ Sof.Codec.digest o ]
  | Name _ -> "name"
  | Source (lang, text) ->
      params "source" [ lang; Digest.to_hex (Digest.string text) ]
  | Merge xs -> "merge" ^ grouping xs
  | Lst xs -> "list" ^ grouping xs
  | Override _ | Initializers _ -> op_name n
  | Freeze (p, _) | Restrict (p, _) | Project (p, _) | Hide (p, _) | Show (p, _) ->
      params (op_name n) [ p ]
  | Copy_as (p, t, _) -> params "copy-as" [ p; t ]
  | Rename (sc, p, t, _) -> params "rename" [ scope_code sc; p; t ]
  | Specialize (st, vs, _) -> params "specialize" (st :: List.map value_part vs)
  | Constrain (seg, a, _) -> params "constrain" [ seg_to_string seg; string_of_int a ]

and value_part (v : value) : string =
  match v with
  | Vstr s -> params "s" [ s ]
  | Vnum n -> params "n" [ string_of_int n ]
  | Vlist vs -> params "l" (List.map value_part vs)
  | Vnode n -> params "g" [ digest n ]

(* The digest text: every node's own part in pre-order, a name's path
   after its own part, each behind its length. An own part fixes how
   many operands follow, so the text is one graph's. *)
and digest (n : node) : string =
  let b = Buffer.create 256 in
  let rec go n =
    add_part b (own_part n);
    match n with
    | Leaf _ | Source _ -> ()
    | Name p -> add_part b p
    | Merge xs | Lst xs -> List.iter go xs
    | Override (a, x) -> go a; go x
    | Freeze (_, x) | Restrict (_, x) | Project (_, x) | Hide (_, x) | Show (_, x)
    | Copy_as (_, _, x) | Rename (_, _, _, x) | Initializers x
    | Specialize (_, _, x) | Constrain (_, _, x) ->
        go x
  in
  go n;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Do two operand lists group into lists alike? *)
let rec same_grouping (xs : node list) (ys : node list) : bool =
  match (xs, ys) with
  | [], [] -> true
  | Lst a :: xs, Lst b :: ys -> same_grouping a b && same_grouping xs ys
  | (Lst _ :: _ | []), _ | _, (Lst _ :: _ | []) -> false
  | _ :: xs, _ :: ys -> same_grouping xs ys

let same_own (a : node) (b : node) : bool =
  let eq = String.equal in
  match (a, b) with
  | Merge xs, Merge ys | Lst xs, Lst ys -> same_grouping xs ys
  | Name _, Name _ | Override _, Override _ | Initializers _, Initializers _ -> true
  | Freeze (p, _), Freeze (q, _)
  | Restrict (p, _), Restrict (q, _)
  | Project (p, _), Project (q, _)
  | Hide (p, _), Hide (q, _)
  | Show (p, _), Show (q, _) ->
      eq p q
  | Copy_as (p, t, _), Copy_as (q, u, _) -> eq p q && eq t u
  | Rename (sc, p, t, _), Rename (sc', q, u, _) -> sc = sc' && eq p q && eq t u
  | Constrain (s, x, _), Constrain (s', y, _) -> s = s' && x = y
  | Source (l, x), Source (l', y) -> eq l l' && eq x y
  | Leaf _, Leaf _ | Specialize _, Specialize _ -> eq (own_part a) (own_part b)
  | _ -> false
