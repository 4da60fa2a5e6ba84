(** Meta-object descriptions.

    "Meta-objects are templates describing the construction and
    characteristics of objects, and contain a class description of
    their target objects." A meta-object source file (cf. Figure 1) is
    a sequence of forms:

    {v
    (default-specialization "lib-constrained")      ; optional
    (constraint-list "T" 0x100000 "D" 0x40200000)   ; optional
    (merge /libc/gen /libc/stdio ...)               ; the blueprint
    v}

    Multiple trailing expressions are implicitly merged. *)

exception Meta_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Meta_error s)) fmt

type t = {
  name : string;
  default_spec : (string * Mgraph.value list) option;
  (* default address constraints from the constraint-list: (seg, addr) *)
  constraints : (Mgraph.seg * int) list;
  root : Mgraph.node;
  graph : Mgraph.node; (* the effective graph with no requested spec *)
}

let rec parse_pairs = function
  | [] -> []
  | Sexp.Str seg :: Sexp.Int addr :: rest -> (seg, addr) :: parse_pairs rest
  | s :: _ -> fail "constraint-list: unexpected %s" (Sexp.to_string s)

(* An explicit request wins over the default; the default-spec (if any)
   wraps the root; the constraint-list wraps everything as [Constrain]
   nodes. *)
let wrap ~default_spec ~constraints ~spec (root : Mgraph.node) : Mgraph.node =
  let base =
    match (spec, default_spec) with
    | Some (style, args), _ | None, Some (style, args) ->
        Mgraph.Specialize (style, args, root)
    | None, None -> root
  in
  List.fold_left
    (fun acc (seg, addr) -> Mgraph.Constrain (seg, addr, acc))
    base constraints

(** [parse ~name src] parses a meta-object file. *)
let parse ~(name : string) (src : string) : t =
  let forms =
    try Sexp.parse_many src
    with Sexp.Parse_error (msg, line) -> fail "%s (line %d): %s" name line msg
  in
  let default_spec = ref None in
  let constraints = ref [] in
  let roots = ref [] in
  List.iter
    (fun (form : Sexp.t) ->
      match form with
      | Sexp.List (Sexp.Sym op :: args)
        when Mgraph.normalize_op op = "constraint_list" ->
          (* a segment may be constrained once per meta-object, whether
             the duplicate sits in one constraint-list or across
             several — silently letting the last one win hid authoring
             mistakes *)
          List.iter
            (fun (s, a) ->
              let seg = Mgraph.seg_of_string s in
              if List.mem_assoc seg !constraints then
                fail "%s: duplicate constraint-list segment %S" name s;
              constraints := !constraints @ [ (seg, a) ])
            (parse_pairs args)
      | Sexp.List (Sexp.Sym op :: Sexp.Str style :: args)
        when Mgraph.normalize_op op = "default_specialization" ->
          default_spec := Some (style, List.map Mgraph.value_of_sexp args)
      | _ -> roots := Mgraph.of_sexp form :: !roots)
    forms;
  let root =
    match List.rev !roots with
    | [] -> fail "%s: meta-object has no blueprint expression" name
    | [ r ] -> r
    | many -> Mgraph.Merge many
  in
  let default_spec = !default_spec and constraints = !constraints in
  let graph = wrap ~default_spec ~constraints ~spec:None root in
  { name; default_spec; constraints; root; graph }

(** The graph to evaluate for this meta-object under an optional
    requested specialization. Without one it is the graph [parse]
    made, physically the same node on every call: the registration
    analysis is a walk of that node. *)
let effective_graph (meta : t) ~(spec : (string * Mgraph.value list) option) :
    Mgraph.node =
  match spec with
  | None -> meta.graph
  | Some _ ->
      wrap ~default_spec:meta.default_spec ~constraints:meta.constraints ~spec
        meta.root
