(** Subtree dependence analysis — see impact.mli for the contract.

    The operator semantics live in {!Lint.walk}: this module only
    annotates each walked node with its interface summary and digest,
    so the lint findings and the summaries come out of one abstract
    interpretation. *)

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

type info = {
  i_path : string;
  i_node : Mg.node;
  i_summary : summary;
  i_digest : string;
  i_modeled : bool;
  i_keyed : bool;
  i_children : info list;
}

type tree = { t_root : info; t_approximate : bool }

(* -- canonical rendering ---------------------------------------------------- *)

let binding_str = function
  | Sof.Symbol.Global -> "global"
  | Sof.Symbol.Weak -> "weak"
  | Sof.Symbol.Local -> "local"

(* Exported (name, binding) pairs with multiplicity: duplicate globals
   must stay visible, they are part of the interface (a merge against
   them raises). *)
let export_pairs (m : Symflow.t) : (string * string) list =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (n, b) ->
          match b with
          | Sof.Symbol.Global | Sof.Symbol.Weak -> Some (n, binding_str b)
          | Sof.Symbol.Local -> None)
        f.Symflow.f_defs)
    m.Symflow.frags
  |> List.sort compare

let reloc_names (m : Symflow.t) : string list =
  S.elements
    (List.fold_left
       (fun acc f -> S.union acc f.Symflow.f_relocs)
       S.empty m.Symflow.frags)

let pref_str (c : Mg.constraint_pref) : string =
  Format.asprintf "%s/%d:%a" (Mg.seg_to_string c.Mg.seg) c.Mg.priority
    Constraints.Placement.pp_pref c.Mg.pref

let summary_key (s : summary) : string =
  let b = Buffer.create 256 in
  let strs tag xs =
    Buffer.add_string b tag;
    List.iter
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b ';')
      xs;
    Buffer.add_char b '|'
  in
  strs "e:" (List.map (fun (n, bd) -> n ^ "=" ^ bd) s.s_exports);
  strs "u:" s.s_undefined;
  strs "r:" s.s_relocs;
  strs "f:" s.s_frozen;
  strs "h:" s.s_hidden;
  strs "p:" s.s_prefs;
  Buffer.contents b

(* The digest chains the node's own operator and content, its
   occurrence key when it mints aliases, the operand digests and the
   summary: a key anywhere below ties the digest to one occurrence. *)
let node_digest ~(local : string) ~(key : string option)
    ~(children : string list) (s : summary) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          [ "impact.v2"; local; Option.value key ~default:"";
            String.concat "," children; summary_key s ]))

(* -- the per-node annotation ------------------------------------------------- *)

let annotate ~path ~key ~modeled (n : Mg.node) (m : Symflow.t)
    (prefs : Mg.constraint_pref list) (children : info list) : info =
  let summary =
    {
      s_op = Mg.op_name n;
      s_exports = export_pairs m;
      s_undefined = Symflow.undefined m;
      s_relocs = reloc_names m;
      s_frozen = S.elements m.Symflow.frozen;
      s_hidden = S.elements m.Symflow.hidden;
      s_prefs = List.map pref_str prefs;
    }
  in
  {
    i_path = path;
    i_node = n;
    i_summary = summary;
    i_digest =
      node_digest ~local:(Mg.local_key n) ~key
        ~children:(List.map (fun c -> c.i_digest) children)
        summary;
    i_modeled = modeled && List.for_all (fun c -> c.i_modeled) children;
    i_keyed = key <> None || List.exists (fun c -> c.i_keyed) children;
    i_children = children;
  }

(* -- entry points ------------------------------------------------------------ *)

let fallback_info (root : Mg.node) : info =
  {
    i_path = Mg.op_name root;
    i_node = root;
    i_summary =
      {
        s_op = Mg.op_name root;
        s_exports = [];
        s_undefined = [];
        s_relocs = [];
        s_frozen = [];
        s_hidden = [];
        s_prefs = [];
      };
    i_digest = "(analysis-error)";
    i_modeled = false;
    i_keyed = false;
    i_children = [];
  }

let analyze_and_lint ~(resolve : string -> (Mg.node, string) result)
    (root : Mg.node) : tree * Lint.report =
  let report, info = Lint.walk ~resolve ~annotate root in
  let t_root = Option.value info ~default:(fallback_info root) in
  ({ t_root; t_approximate = not t_root.i_modeled }, report)

let analyze ~resolve root = fst (analyze_and_lint ~resolve root)

let iter_infos (f : info -> unit) (t : tree) : unit =
  let rec go i =
    f i;
    List.iter go i.i_children
  in
  go t.t_root

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
        match summary_reason oi.i_summary ni.i_summary with
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
          v_op = ni.i_summary.s_op;
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
          v_op = ni.i_summary.s_op;
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
