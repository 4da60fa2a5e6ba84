(** Subtree dependence analysis — see impact.mli for the contract.

    The operator semantics live in {!Lint}: the tree is a kept walk, so
    the lint findings, the flows and the interface digests come out of
    one abstract interpretation, and this module reads them. *)

module S = Symflow.S
module Mg = Blueprint.Mgraph

type summary = {
  s_op : string;
  s_exports : (string * string) list;
  s_undefined : string list;
  s_relocs : string list;
  s_frozen : string list;
  s_hidden : string list;
  s_prefs : string list;
}

type info = Lint.info

type tree = {
  t_graph : Mg.node;
  t_root : info;
  t_report : Lint.report;
}

(* -- canonical rendering ---------------------------------------------------- *)

let binding_str = function
  | Sof.Symbol.Global -> "global"
  | Sof.Symbol.Weak -> "weak"
  | Sof.Symbol.Local -> "local"

(* Exported (name, binding) pairs with multiplicity: duplicate globals
   must stay visible, they are part of the interface (a merge against
   them raises). Sorted by name, a name's globals before its weaks. *)
let export_pairs (m : Symflow.t) : (string * string) list =
  let by_name (n1, b1) (n2, b2) =
    match String.compare n1 n2 with 0 -> String.compare b1 b2 | c -> c
  in
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc (n, b) ->
          match b with
          | Sof.Symbol.Global | Sof.Symbol.Weak -> (n, binding_str b) :: acc
          | Sof.Symbol.Local -> acc)
        acc f.Symflow.f_defs)
    [] m.Symflow.frags
  |> List.sort by_name

let reloc_names (m : Symflow.t) : string list =
  List.fold_left (fun acc f -> S.fold List.cons f.Symflow.f_relocs acc) [] m.Symflow.frags
  |> List.sort_uniq String.compare

let pref_str (c : Mg.constraint_pref) : string =
  Format.asprintf "%s/%d:%a" (Mg.seg_to_string c.Mg.seg) c.Mg.priority
    Constraints.Placement.pp_pref c.Mg.pref

let summary (i : info) : summary =
  let m = i.i_flow in
  {
    s_op = Mg.op_name i.i_node;
    s_exports = export_pairs m;
    s_undefined = Symflow.undefined m;
    s_relocs = reloc_names m;
    s_frozen = S.elements m.Symflow.frozen;
    s_hidden = S.elements m.Symflow.hidden;
    s_prefs = List.map pref_str i.i_prefs;
  }

(* -- entry points ------------------------------------------------------------ *)

let reanalyze ~(resolve : string -> (Mg.node, string) result)
    ~(prev : tree option) (root : Mg.node) : tree * Lint.kept_walk =
  let w =
    Lint.rewalk ~resolve
      ~prev:(Option.map (fun t -> (t.t_root, t.t_report)) prev)
      root
  in
  ({ t_graph = root; t_root = w.Lint.root; t_report = w.Lint.report }, w)

let analyze ~resolve root = fst (reanalyze ~resolve ~prev:None root)

let iter_infos (f : info -> unit) (t : tree) : unit =
  let rec go i =
    f i;
    List.iter go i.i_children
  in
  go t.t_root

let iter_unshared (f : info -> unit) ~(other : tree option) (t : tree) : unit =
  let rec go (o : info option) (i : info) =
    match o with
    | Some o when o == i -> ()
    | _ ->
        f i;
        let rec pair os is =
          match (os, is) with
          | _, [] -> ()
          | o :: os, i :: is ->
              go (Some o) i;
              pair os is
          | [], i :: is ->
              go None i;
              pair [] is
        in
        pair (match o with Some o -> o.i_children | None -> []) i.i_children
  in
  go (Option.map (fun o -> o.t_root) other) t.t_root

(* -- the info at an occurrence ------------------------------------------------ *)

(* The operand evaluation descends into at an occurrence step: a
   merge's by flattened index, an override's by position, a unary
   operator's only one. *)
let operand_at (n : Mg.node) (idx : int option) : Mg.node option =
  let nth_flat ops i =
    let k = ref i in
    let rec go = function
      | [] -> None
      | Mg.Lst xs :: rest -> ( match go xs with None -> go rest | found -> found)
      | x :: rest ->
          if !k = 0 then Some x
          else begin
            decr k;
            go rest
          end
    in
    go ops
  in
  match (n, idx) with
  | Mg.Merge ops, Some i -> nth_flat ops i
  | Mg.Override (a, _), Some 0 -> Some a
  | Mg.Override (_, b), Some 1 -> Some b
  | ( ( Mg.Freeze (_, x)
      | Mg.Restrict (_, x)
      | Mg.Project (_, x)
      | Mg.Copy_as (_, _, x)
      | Mg.Hide (_, x)
      | Mg.Show (_, x)
      | Mg.Rename (_, _, _, x)
      | Mg.Initializers x
      | Mg.Specialize (_, _, x)
      | Mg.Constrain (_, _, x) ),
      None ) ->
      Some x
  | _ -> None

(* Past a name: what evaluation resolves it to now, and the info of
   its resolution. The helpers of {!info_at} are top-level functions,
   not local closures: the memo hook asks at every node it evaluates,
   and allocating the closures made a [build_cold] miss allocate about
   2% more. *)
let through ~resolve (x : Mg.node) (i : info) : (Mg.node * info) option =
  match (x, i.i_children) with
  | Mg.Name p, [ c ] -> (
      match resolve p with Ok sub -> Some (sub, c) | Error _ -> None)
  | _ -> None

(* [x] and its info, past any names: the node whose operands
   evaluation descends into. *)
let rec past_names ~resolve (x : Mg.node) (i : info) : (Mg.node * info) option =
  match x with
  | Mg.Name _ -> (
      match through ~resolve x i with
      | Some (x, i) -> past_names ~resolve x i
      | None -> None)
  | _ -> Some (x, i)

(* Descending from the root, which must be the graph the walk was
   given, each step checks that the occurrence's node is physically the
   operand evaluation reached it through: of the previous step's node
   or, past a name, of what evaluation resolves the name to now (a
   replayed subtree holds the nodes of the registration that walked
   it). The info at that operand's position was walked from it or
   replayed with its content key, so it describes the node's
   construction. A node a specializer made fails the check, and so
   does everything evaluated under it. *)
let rec node_at ~resolve (t : tree) (occ : Mg.occurrence) :
    (Mg.node * info) option =
  match occ with
  | [] -> None
  | [ (_, root) ] -> if root == t.t_graph then Some (root, t.t_root) else None
  | (idx, x) :: up -> (
      match node_at ~resolve t up with
      | None -> None
      | Some (y, i) -> (
          match past_names ~resolve y i with
          | None -> None
          | Some (holder, i) -> (
              match operand_at holder idx with
              | Some y when y == x -> (
                  match List.nth_opt i.i_children (Option.value idx ~default:0) with
                  | Some c -> Some (x, c)
                  | None -> None)
              | _ -> None)))

(* At a name's occurrence evaluation meets the name, then each node of
   its resolution chain: the info of the one that is [n]. *)
let rec in_chain ~resolve (n : Mg.node) (x : Mg.node) (i : info) : info option =
  if x == n then Some i
  else
    match through ~resolve x i with
    | Some (x, i) -> in_chain ~resolve n x i
    | None -> None

let info_at ~(resolve : string -> (Mg.node, string) result) (t : tree)
    (occ : Mg.occurrence) (n : Mg.node) : info option =
  match node_at ~resolve t occ with
  | Some (x, i) -> in_chain ~resolve n x i
  | None -> None

(* -- diff -------------------------------------------------------------------- *)

type verdict = Reused of { digest : string } | Respin of { reason : string }

type node_verdict = {
  v_path : string;
  v_op : string;
  v_digest : string;
  v_verdict : verdict;
}

type diff = {
  d_old_digest : string;
  d_new_digest : string;
  d_nodes : node_verdict list;
  d_reused : int;
  d_respun : int;
  d_spine : string list;
}

(* First element of the (sorted or positional) rendering that differs,
   phrased relative to the new blueprint. *)
let first_list_diff ~(what : string) (old_l : string list)
    (new_l : string list) : string option =
  let rec go o n =
    match (o, n) with
    | [], [] -> None
    | x :: _, [] -> Some (Printf.sprintf "%s %s removed" what x)
    | [], y :: _ -> Some (Printf.sprintf "%s %s added" what y)
    | x :: o', y :: n' ->
        if String.equal x y then go o' n'
        else if compare x y < 0 then
          Some (Printf.sprintf "%s %s removed" what x)
        else Some (Printf.sprintf "%s %s added" what y)
  in
  go old_l new_l

let summary_reason (so : summary) (sn : summary) : string option =
  if not (String.equal so.s_op sn.s_op) then
    Some (Printf.sprintf "operator changed: %s -> %s" so.s_op sn.s_op)
  else
    List.find_map
      (fun (what, facts) -> first_list_diff ~what (facts so) (facts sn))
      [
        ("export", fun s -> List.map (fun (n, b) -> Printf.sprintf "%s (%s)" n b) s.s_exports);
        ("undefined reference", fun s -> s.s_undefined);
        ("relocation target", fun s -> s.s_relocs);
        ("frozen binding", fun s -> s.s_frozen);
        ("hidden name", fun s -> s.s_hidden);
        ("constraint preference", fun s -> s.s_prefs);
      ]

let respin_reason (old_opt : info option) (ni : info) : string =
  if not ni.i_modeled then
    "subtree not fully modeled (unresolved name, bad selector, source \
     error, or opaque specializer); reuse cannot be proven"
  else
    match old_opt with
    | None -> "new subtree: no counterpart at this position in the old blueprint"
    | Some oi -> (
        match summary_reason (summary oi) (summary ni) with
        | Some r -> r
        | None -> "operand content changed (interface identical)")

let diff ~(old_tree : tree) ~(new_tree : tree) : diff =
  let reusable : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  iter_infos
    (fun i -> if i.i_modeled then Hashtbl.replace reusable i.i_digest ())
    old_tree;
  let nodes = ref [] in
  let reused = ref 0 in
  let respun = ref 0 in
  let spine = ref [] in
  let rec go (old_opt : info option) (ni : info) : unit =
    if ni.i_modeled && Hashtbl.mem reusable ni.i_digest then begin
      incr reused;
      nodes :=
        {
          v_path = ni.i_path;
          v_op = Mg.op_name ni.i_node;
          v_digest = ni.i_digest;
          v_verdict = Reused { digest = ni.i_digest };
        }
        :: !nodes
      (* pruned: nothing below a reused subtree needs a verdict *)
    end
    else begin
      incr respun;
      spine := ni.i_path :: !spine;
      nodes :=
        {
          v_path = ni.i_path;
          v_op = Mg.op_name ni.i_node;
          v_digest = ni.i_digest;
          v_verdict = Respin { reason = respin_reason old_opt ni };
        }
        :: !nodes;
      let old_children =
        match old_opt with Some o -> o.i_children | None -> []
      in
      List.iteri
        (fun k c -> go (List.nth_opt old_children k) c)
        ni.i_children
    end
  in
  go (Some old_tree.t_root) new_tree.t_root;
  {
    d_old_digest = old_tree.t_root.i_digest;
    d_new_digest = new_tree.t_root.i_digest;
    d_nodes = List.rev !nodes;
    d_reused = !reused;
    d_respun = !respun;
    d_spine = List.rev !spine;
  }

(* -- verification ------------------------------------------------------------ *)

type verify_outcome = {
  vo_checked : int;
  vo_failures : (string * string) list;
}

let find_by_digest (t : tree) (dg : string) : info option =
  let found = ref None in
  iter_infos
    (fun i ->
      if Option.is_none !found && String.equal i.i_digest dg then
        found := Some i)
    t;
  !found

let verify ~(eval : Mg.node -> Jigsaw.Module_ops.t) ~(old_tree : tree)
    ~(new_tree : tree) (d : diff) : verify_outcome =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let checked = ref 0 in
  let failures = ref [] in
  let materialize (i : info) : (string, string) result =
    match eval i.i_node with
    | m -> Ok (Sof.Codec.digest (Jigsaw.Module_ops.to_object m))
    | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun v ->
      match v.v_verdict with
      | Respin _ -> ()
      | Reused { digest } ->
          if not (Hashtbl.mem seen digest) then begin
            Hashtbl.replace seen digest ();
            incr checked;
            match (find_by_digest old_tree digest, find_by_digest new_tree digest) with
            | Some oi, Some ni -> (
                match (materialize oi, materialize ni) with
                | Ok a, Ok b when String.equal a b -> ()
                | Ok a, Ok b ->
                    failures :=
                      ( v.v_path,
                        Printf.sprintf
                          "materialization differs: old %s, new %s" a b )
                      :: !failures
                | Error _, Error _ ->
                    (* neither side materializes; the obligation is vacuous *)
                    ()
                | Ok _, Error e ->
                    failures :=
                      (v.v_path, "new evaluation raised: " ^ e) :: !failures
                | Error e, Ok _ ->
                    failures :=
                      (v.v_path, "old evaluation raised: " ^ e) :: !failures)
            | _ ->
                failures :=
                  (v.v_path, "reused digest not found in both trees")
                  :: !failures
          end)
    d.d_nodes;
  { vo_checked = !checked; vo_failures = List.rev !failures }
