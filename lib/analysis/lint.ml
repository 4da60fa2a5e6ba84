(** Blueprint lint: diagnostics over the symbol-flow lattice.

    An abstract interpretation of an m-graph that walks the node tree
    exactly as {!Blueprint.Mgraph.eval} would (same operand order, same
    occurrence paths, hence the same freeze/hide/show aliases) but
    computes on {!Symflow} name sets instead of materializing views — so
    it is safe to run at meta-object registration time, costs nothing on
    the simulated clock, and can diagnose graphs whose evaluation would
    raise. A kept walk ({!rewalk}) is also {!Impact}'s tree.

    Stable diagnostic codes:

    - [E001] unresolved-at-root — a reference that some fragment once
      defined is undefined in the final module (an operator removed or
      renamed the definition away). Plain external imports (never
      defined anywhere in the graph) are reported in the summary, not
      as findings.
    - [E002] duplicate-global-in-merge — two global definitions of the
      same name meet in a [merge]/[override]; evaluation raises.
    - [E003] rename-collision — a [rename]/[copy-as] mints a global
      definition name that now collides with another.
    - [E004] conflicting-address-constraints — distinct base addresses
      preferred for the same segment at equal priority.
    - [E005] unknown-server-object — a [Name] that does not resolve, or
      resolves cyclically.
    - [E006] invalid-selector — a selector pattern or rewrite template
      [Str] cannot compile or apply.
    - [E007] source-compile-error — a [source] node's text does not
      compile (or names an unsupported language).
    - [E008] malformed-graph — structural misuse ([list] outside an
      operand position, bad specializer arguments, unknown
      specialization style, empty [merge]).
    - [W101] dead-selector — a [restrict]/[hide]/[show]/[project] whose
      selector gives the operator nothing to do.
    - [W102] override-overrides-nothing — the right operand exports
      nothing the left operand defines.
    - [W103] freeze-of-already-frozen — freezing symbols whose bindings
      are already permanent (mints a useless extra alias).
    - [W104] shadowed-weak-definition — a weak definition permanently
      shadowed by a global one in a [merge].
    - [E999] analyzer-internal-error — the analyzer itself raised; the
      report is approximate. *)

module S = Symflow.S
module Mg = Blueprint.Mgraph

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type finding = {
  code : string;  (** stable code, e.g. ["E002"] *)
  title : string;  (** stable slug, e.g. ["duplicate-global-in-merge"] *)
  severity : severity;
  path : string;  (** m-graph path, e.g. ["constrain.rename.override[1]"] *)
  symbols : string list;  (** offending symbols, sorted *)
  message : string;
}

type report = {
  findings : finding list;  (** traversal order *)
  exports : string list;  (** predicted {!Jigsaw.Module_ops.exports} *)
  undefined : string list;  (** predicted {!Jigsaw.Module_ops.undefined} *)
  frozen : string list;
  hidden : string list;
  prefs : Mg.constraint_pref list;  (** accumulated, evaluation order *)
  approximate : bool;
      (** an unmodeled specializer ("lib-dynamic", "monitor") rewrote
          the module; predicted sets describe its operand only *)
  eval_fails : bool;  (** some finding implies evaluation raises *)
}

let errors (r : report) : int =
  List.length (List.filter (fun f -> f.severity = Error) r.findings)

let warnings (r : report) : int =
  List.length (List.filter (fun f -> f.severity = Warning) r.findings)

let finding_to_string (f : finding) : string =
  Printf.sprintf "%s %s at %s: %s%s" f.code f.title f.path f.message
    (match f.symbols with
    | [] -> ""
    | syms -> " [" ^ String.concat ", " syms ^ "]")

(* -- driver state ----------------------------------------------------------- *)

type state = {
  resolve : string -> (Mg.node, string) result;
  mutable findings : finding list;  (* newest first *)
  mutable ever_defined : S.t;  (* names defined anywhere, at any point *)
  mutable visiting : string list;  (* Name cycle detection *)
  mutable approximate : bool;
  mutable eval_fails : bool;
  mutable n_walked : int;  (* nodes a kept walk stepped through *)
  mutable n_replayed : int;  (* subtrees a kept walk replayed *)
}

(* -- kept walks --------------------------------------------------------------- *)

(* A subtree's content key, computed bottom-up before a kept walk: the
   node's own content and its operands' keys, operands in walk order. *)
type keys = { hash : string; kids : keys list }

(* One node's walk, with its subtree's. *)
type info = {
  i_path : string;
  i_node : Mg.node;
  i_key : string;  (* content key *)
  i_digest : string;  (* interface digest, from [i_key] *)
  i_flow : Symflow.t;
  i_prefs : Mg.constraint_pref list;
  i_modeled : bool;  (* the whole subtree is fully modeled *)
  i_keyed : bool;  (* some live freeze/hide/show in the subtree *)
  i_findings : finding list;  (* the subtree's, traversal order *)
  i_approximate : bool;
  i_eval_fails : bool;
  i_defined : S.t;  (* names any node of the subtree defined *)
  i_children : info list;  (* operands, walk order *)
}

type kept_walk = {
  report : report;
  root : info;
  walked : int;
  replayed : int;
}

(* MD5 of [parts], then of the operand keys [kids], each behind its
   length. *)
let hash (parts : string list) (kids : keys list) : string =
  let b = Buffer.create 64 in
  List.iter (Mg.add_part b) parts;
  List.iter (fun k -> Mg.add_part b k.hash) kids;
  Digest.string (Buffer.contents b)

(* A node's interface digest: its content key, or, where a live
   freeze/hide/show below names aliases after its occurrence, the key
   with the node's path. *)
let interface_digest ~keyed ~path (key : string) : string =
  Digest.to_hex (if keyed then hash [ key; path ] [] else key)

(* One node's operands during a kept walk: their content keys and their
   previous walks still to visit, and this walk's results so far. *)
type cursor = {
  mutable keys : keys list;
  mutable prev : info list;  (* by position *)
  mutable done_ : info list;  (* newest first *)
}

(* One node's walk: its flow and preferences, whether its own semantics
   are modeled exactly, and its occurrence key when it minted
   freeze/hide/show aliases. *)
type step = {
  flow : Symflow.t;
  prefs : Mg.constraint_pref list;
  modeled : bool;
  key : string option;
}

(* A node the analyzer cannot model (unresolved name, broken source,
   malformed graph): nothing flows out of it. *)
let opaque = { flow = Symflow.empty; prefs = []; modeled = false; key = None }

(* The step of a node with one operand, walked as [(_, prefs)]. *)
let over ?(modeled = true) ?key
    ((_, prefs) : Symflow.t * Mg.constraint_pref list) (flow : Symflow.t) : step =
  { flow; prefs; modeled; key }

(* A freeze/hide/show: aliases are keyed by the node's occurrence, and
   the node carries its key only when it actually mints. *)
let mint ~path ~live operand (apply : key:string -> Symflow.t) =
  let key = Mg.occurrence_key path in
  over ?key:(if live then Some key else None) operand (apply ~key)

let emit (st : state) ~code ~title ~severity ~path ?(symbols = []) message :
    unit =
  st.findings <-
    { code; title; severity; path; symbols; message } :: st.findings

let fails (st : state) ~code ~title ~path ?symbols message : unit =
  st.eval_fails <- true;
  emit st ~code ~title ~severity:Error ~path ?symbols message

let malformed st ~path message =
  fails st ~code:"E008" ~title:"malformed-graph" ~path message

(* A selector that failed to compile: report E006 once and treat the
   operator as a no-op so analysis can continue. *)
let compile_sel (st : state) ~path (pattern : string) : Jigsaw.Select.t option
    =
  match Jigsaw.Select.compile_res pattern with
  | Ok sel -> Some sel
  | Error msg ->
      fails st ~code:"E006" ~title:"invalid-selector" ~path
        (Printf.sprintf "selector %S does not compile: %s" pattern msg);
      None

(* A rewrite map whose template may fail to apply ([\1] without a
   group): report E006 on first failure, then behave as non-matching.
   The flag records the failure: the node is no longer modeled. *)
let guarded_map (st : state) ~path ~(pattern : string) ~(template : string)
    (map : string -> string option) : (string -> string option) * bool ref =
  let bad = ref false in
  ( (fun n ->
      try map n
      with e ->
        if not !bad then begin
          bad := true;
          fails st ~code:"E006" ~title:"invalid-selector" ~path
            (Printf.sprintf "template %S does not apply to %S (%s)" template
               pattern (Printexc.to_string e))
        end;
        None),
    bad )

(* The conflicts a merge of [parts] creates, from one ordered pass over
   their definitions. A global seen again in the operand that last
   defined it is that operand's own duplicate: the operand reported it,
   and no duplicate of that name is reported again here. A global seen
   in an earlier operand is a duplicate this node creates (E002), named
   with its first two sources, in the order {!Jigsaw.Module_ops.merge}
   finds them. A weak definition is shadowed (W104) when another
   operand defines the name global. *)
let check_merge_conflicts (st : state) ~path (parts : Symflow.t list) : unit =
  (* global name -> first source, last operand, defined in two operands *)
  let globals : (string, string * int * bool) Hashtbl.t = Hashtbl.create 16 in
  let own = Hashtbl.create 8 in
  let created = ref [] (* newest first *) and weak = ref [] in
  List.iteri
    (fun i (p : Symflow.t) ->
      List.iter
        (fun (f : Symflow.frag) ->
          List.iter
            (fun (n, binding) ->
              match (binding : Sof.Symbol.binding) with
              | Global -> (
                  match Hashtbl.find_opt globals n with
                  | None -> Hashtbl.replace globals n (f.Symflow.f_src, i, false)
                  | Some (_, last, _) when last = i -> Hashtbl.replace own n ()
                  | Some (first, _, _) ->
                      created := (n, first, f.Symflow.f_src) :: !created;
                      Hashtbl.replace globals n (first, i, true))
              | Weak -> weak := (n, i) :: !weak
              | Local -> ())
            f.Symflow.f_defs)
        p.Symflow.frags)
    parts;
  let created = List.filter (fun (n, _, _) -> not (Hashtbl.mem own n)) !created in
  (match List.rev created with
  | [] -> ()
  | (n1, s1, s2) :: _ as dups ->
      let names = List.sort_uniq compare (List.map (fun (n, _, _) -> n) dups) in
      fails st ~code:"E002" ~title:"duplicate-global-in-merge" ~path
        ~symbols:names
        (Printf.sprintf "duplicate global definition of %s (in %s and %s)" n1
           s1 s2));
  let shadowed =
    List.filter_map
      (fun (n, i) ->
        match Hashtbl.find_opt globals n with
        | Some (_, last, twice) when twice || last <> i -> Some n
        | _ -> None)
      !weak
  in
  match List.sort_uniq compare shadowed with
  | [] -> ()
  | names ->
      emit st ~code:"W104" ~title:"shadowed-weak-definition" ~severity:Warning
        ~path ~symbols:names
        "weak definition permanently shadowed by a global definition of the \
         same name"

(* Globals created by a defs-side rewrite that now collide (E003): names
   whose global multiplicity grew to >= 2. *)
let check_rename_collision (st : state) ~path ~(op : string)
    (before : Symflow.t) (after : Symflow.t) : unit =
  let counts (m : Symflow.t) : (string, int) Hashtbl.t =
    let h = Hashtbl.create 32 in
    List.iter
      (fun f ->
        List.iter
          (fun n ->
            Hashtbl.replace h n (1 + Option.value (Hashtbl.find_opt h n) ~default:0))
          (Symflow.frag_globals f))
      m.Symflow.frags;
    h
  in
  let cb = counts before and ca = counts after in
  let collisions =
    Hashtbl.fold
      (fun n c acc ->
        let was = Option.value (Hashtbl.find_opt cb n) ~default:0 in
        if c >= 2 && c > was then n :: acc else acc)
      ca []
  in
  match List.sort_uniq compare collisions with
  | [] -> ()
  | names ->
      fails st ~code:"E003" ~title:"rename-collision" ~path ~symbols:names
        (Printf.sprintf
           "%s mints a global definition name that collides with another" op)

let unmodeled_specializers = [ "lib-dynamic"; "monitor" ]

(* [defined] plus the names node [n] defines, its flow given. Only a
   leaf, a source and the operators that mint names can define one its
   operands did not; every other operator's flow defines a subset of
   its operands' names, which the walk has already added. [S.add] keeps
   the set physically when nothing is new. *)
let add_defined (defined : S.t) (n : Mg.node) (flow : Symflow.t) : S.t =
  match n with
  | Mg.Leaf _ | Mg.Source _ | Mg.Rename _ | Mg.Copy_as _ | Mg.Freeze _
  | Mg.Hide _ | Mg.Show _ | Mg.Initializers _ ->
      List.fold_left
        (fun acc (f : Symflow.frag) ->
          List.fold_left (fun acc (x, _) -> S.add x acc) acc f.Symflow.f_defs)
        defined flow.Symflow.frags
  | Mg.Name _ | Mg.Merge _ | Mg.Override _ | Mg.Restrict _ | Mg.Project _
  | Mg.Specialize _ | Mg.Constrain _ | Mg.Lst _ ->
      defined

(* -- the abstract evaluator ------------------------------------------------- *)

(* [up] is the parent's cursor in a kept walk, [None] in a walk that
   keeps nothing. A kept walk replays the previous walk of a node whose
   path and content key are unchanged, and steps through the rest. *)
let rec go (st : state) (up : cursor option) (path : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list =
  match up with
  | None ->
      let s = step st None path n in
      st.ever_defined <- add_defined st.ever_defined n s.flow;
      (s.flow, s.prefs)
  | Some up ->
      let k = List.hd up.keys in
      up.keys <- List.tl up.keys;
      let prev =
        match up.prev with
        | p :: rest ->
            up.prev <- rest;
            Some p
        | [] -> None
      in
      let w =
        match prev with
        | Some p when String.equal p.i_path path && String.equal p.i_key k.hash ->
            replay st p
        | _ -> step_kept st k prev path n
      in
      up.done_ <- w :: up.done_;
      (w.i_flow, w.i_prefs)

(* Everything a walk of [p]'s subtree would add to the walk's state. *)
and replay (st : state) (p : info) : info =
  st.findings <- List.rev_append p.i_findings st.findings;
  st.approximate <- st.approximate || p.i_approximate;
  st.eval_fails <- st.eval_fails || p.i_eval_fails;
  st.ever_defined <- S.union st.ever_defined p.i_defined;
  st.n_replayed <- st.n_replayed + 1;
  p

and step_kept (st : state) (k : keys) (prev : info option) path n : info =
  let cur =
    {
      keys = k.kids;
      prev = (match prev with Some p -> p.i_children | None -> []);
      done_ = [];
    }
  in
  let findings0 = st.findings
  and approximate0 = st.approximate
  and eval_fails0 = st.eval_fails
  and defined0 = st.ever_defined in
  st.approximate <- false;
  st.eval_fails <- false;
  st.ever_defined <- S.empty;
  let s = step st (Some cur) path n in
  let rec since acc = function
    | l when l == findings0 -> acc
    | f :: rest -> since (f :: acc) rest
    | [] -> acc
  in
  let kids = List.rev cur.done_ in
  let keyed = s.key <> None || List.exists (fun c -> c.i_keyed) kids in
  let w =
    {
      i_path = path;
      i_node = n;
      i_key = k.hash;
      i_digest = interface_digest ~keyed ~path k.hash;
      i_flow = s.flow;
      i_prefs = s.prefs;
      i_modeled = s.modeled && List.for_all (fun c -> c.i_modeled) kids;
      i_keyed = keyed;
      i_findings = since [] st.findings;
      i_approximate = st.approximate;
      i_eval_fails = st.eval_fails;
      i_defined = add_defined st.ever_defined n s.flow;
      i_children = kids;
    }
  in
  st.approximate <- approximate0 || w.i_approximate;
  st.eval_fails <- eval_fails0 || w.i_eval_fails;
  st.ever_defined <- S.union defined0 w.i_defined;
  st.n_walked <- st.n_walked + 1;
  w

and operand st cur path ?idx x = go st cur (Mg.child_path path ?idx x) x

and step (st : state) (cur : cursor option) (path : string) (n : Mg.node) : step =
  match n with
  | Mg.Leaf o -> { opaque with flow = Symflow.of_object o; modeled = true }
  | Mg.Name p -> (
      let unknown msg =
        fails st ~code:"E005" ~title:"unknown-server-object" ~path
          ~symbols:[ p ] msg;
        opaque
      in
      if List.mem p st.visiting then
        unknown (Printf.sprintf "cyclic meta-object reference through %s" p)
      else
        match st.resolve p with
        | Error msg -> unknown msg
        | Ok sub ->
            st.visiting <- p :: st.visiting;
            let ((m, _) as r) = go st cur path sub in
            st.visiting <- List.tl st.visiting;
            over r m)
  | Mg.Merge operands -> (
      match Mg.flatten_operands operands with
      | [] ->
          malformed st ~path "merge: no operands";
          opaque
      | flat ->
          let rs = List.mapi (fun i x -> operand st cur path ~idx:i x) flat in
          let parts = List.map fst rs in
          let m = List.fold_left Symflow.merge (List.hd parts) (List.tl parts) in
          if List.length parts > 1 then check_merge_conflicts st ~path parts;
          { flow = m; prefs = List.concat_map snd rs; modeled = true; key = None })
  | Mg.Override (a, b) ->
      let ma, pa = operand st cur path ~idx:0 a in
      let mb, pb = operand st cur path ~idx:1 b in
      let a_exports = S.of_list (Symflow.exports ma) in
      let b_exports = Symflow.exports mb in
      if not (List.exists (fun n -> S.mem n a_exports) b_exports) then
        emit st ~code:"W102" ~title:"override-overrides-nothing"
          ~severity:Warning ~path
          "the right operand exports nothing the left operand defines; \
           override replaces no binding";
      let a' = Symflow.restrict (fun n -> List.mem n b_exports) ma in
      let m = Symflow.merge a' mb in
      check_merge_conflicts st ~path [ a'; mb ];
      { flow = m; prefs = pa @ pb; modeled = true; key = None }
  | Mg.Freeze (p, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let selected = Jigsaw.Select.selected sel (Symflow.exports mx) in
          let refrozen =
            List.filter (fun n -> S.mem n mx.Symflow.frozen) selected
          in
          if refrozen <> [] then
            emit st ~code:"W103" ~title:"freeze-of-already-frozen"
              ~severity:Warning ~path ~symbols:refrozen
              "these bindings are already permanent; refreezing mints a \
               useless extra alias";
          mint ~path ~live:(selected <> []) r
            (Symflow.freeze (Jigsaw.Select.matches sel) mx))
  | Mg.Restrict (p, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let pred = Jigsaw.Select.matches sel in
          if Symflow.touched pred mx = [] then
            emit st ~code:"W101" ~title:"dead-restrict" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches no definition; restrict has no effect" p);
          over r (Symflow.restrict pred mx))
  | Mg.Project (p, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let pred = Jigsaw.Select.matches sel in
          if Symflow.touched (fun n -> not (pred n)) mx = [] then
            emit st ~code:"W101" ~title:"dead-project" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches every definition; project has no effect"
                 p);
          over r (Symflow.project pred mx))
  | Mg.Copy_as (p, template, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let map, bad =
            guarded_map st ~path ~pattern:p ~template
              (Jigsaw.Select.rewrite sel template)
          in
          let m' = Symflow.copy_as map mx in
          check_rename_collision st ~path ~op:"copy-as" mx m';
          over ~modeled:(not !bad) r m')
  | Mg.Hide (p, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let pred = Jigsaw.Select.matches sel in
          let live = List.exists pred (Symflow.exports mx) in
          if not live then
            emit st ~code:"W101" ~title:"dead-hide" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches no export; hide has no effect" p);
          mint ~path ~live r (Symflow.hide pred mx))
  | Mg.Show (p, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let pred = Jigsaw.Select.matches sel in
          let live = List.exists (fun n -> not (pred n)) (Symflow.exports mx) in
          if not live then
            emit st ~code:"W101" ~title:"dead-show" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches every export; show has no effect" p);
          mint ~path ~live r (Symflow.show pred mx))
  | Mg.Rename (scope, p, template, x) -> (
      let ((mx, _) as r) = operand st cur path x in
      match compile_sel st ~path p with
      | None -> over ~modeled:false r mx
      | Some sel ->
          let map, bad =
            guarded_map st ~path ~pattern:p ~template
              (Jigsaw.Select.rewrite sel template)
          in
          let m' = Symflow.rename scope map mx in
          if scope <> Jigsaw.Module_ops.Refs_only then
            check_rename_collision st ~path ~op:"rename" mx m';
          over ~modeled:(not !bad) r m')
  | Mg.Initializers x ->
      let ((mx, _) as r) = operand st cur path x in
      over r (Symflow.initializers mx)
  | Mg.Source (lang, text) -> (
      let broken msg =
        fails st ~code:"E007" ~title:"source-compile-error" ~path msg;
        opaque
      in
      match lang with
      | "c" | "C" -> (
          match Minic.Driver.compile ~name:"(source)" text with
          | o -> { opaque with flow = Symflow.of_object o; modeled = true }
          | exception Minic.Driver.Compile_error msg ->
              broken (Printf.sprintf "source: %s" msg))
      | other -> broken (Printf.sprintf "source: unsupported language %S" other))
  | Mg.Specialize (style, args, x) -> (
      let ((mx, px) as r) = operand st cur path x in
      match style with
      | "lib-constrained" -> (
          match Mg.lib_constrained_prefs args with
          | Ok prefs -> { (over r mx) with prefs = prefs @ px }
          | Error msg ->
              malformed st ~path msg;
              over ~modeled:false r mx)
      | "lib-static" | "identity" | "lib-dynamic-impl" -> over r mx
      | _ when List.mem style unmodeled_specializers ->
          (* stub generation / wrapper interposition rewrite the module
             in ways only evaluation can see; keep the operand's flow
             and mark the report approximate *)
          st.approximate <- true;
          over ~modeled:false r mx
      | other ->
          malformed st ~path (Printf.sprintf "unknown specialization %S" other);
          over ~modeled:false r mx)
  | Mg.Constrain (seg, addr, x) ->
      let ((mx, px) as r) = operand st cur path x in
      { (over r mx) with prefs = Mg.address_prefs seg addr @ px }
  | Mg.Lst _ ->
      malformed st ~path
        "list is only meaningful as an operand of another operation";
      opaque

(* -- root checks ------------------------------------------------------------ *)

let check_constraints (st : state) ~path (prefs : Mg.constraint_pref list) :
    unit =
  (* distinct At addresses for the same segment at equal priority *)
  let tbl : (string * int, int list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (c : Mg.constraint_pref) ->
      match c.pref with
      | Constraints.Placement.At addr ->
          let k = (Mg.seg_to_string c.seg, c.priority) in
          let prev = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
          if not (List.mem addr prev) then Hashtbl.replace tbl k (addr :: prev)
      | _ -> ())
    prefs;
  let conflicts =
    Hashtbl.fold
      (fun (seg, prio) addrs acc ->
        if List.length addrs >= 2 then (seg, prio, List.rev addrs) :: acc
        else acc)
      tbl []
    |> List.sort compare
  in
  List.iter
    (fun (seg, prio, addrs) ->
      emit st ~code:"E004" ~title:"conflicting-address-constraints"
        ~severity:Error ~path
        (Printf.sprintf
           "segment %s prefers %d distinct base addresses at priority %d (%s)"
           seg (List.length addrs) prio
           (String.concat ", "
              (List.map (Printf.sprintf "0x%x") addrs))))
    conflicts

let check_unresolved (st : state) ~path (undefined : string list) : unit =
  let lost = List.filter (fun n -> S.mem n st.ever_defined) undefined in
  if lost <> [] then
    emit st ~code:"E001" ~title:"unresolved-at-root" ~severity:Error ~path
      ~symbols:lost
      "referenced but undefined at the root, though a definition existed in \
       the graph before operators removed or renamed it"

(* -- content keys ------------------------------------------------------------- *)

(* [f] over [xs], each with the previous walk's operand at its position. *)
let rec aligned f (xs : Mg.node list) (prevs : info list) : keys list =
  match (xs, prevs) with
  | [], _ -> []
  | x :: xs, p :: ps ->
      let k = f (Some p) x in
      k :: aligned f xs ps
  | x :: xs, [] ->
      let k = f None x in
      k :: aligned f xs []

(* Do operand keys [ks] read as the previous walk's operands [ps] did? *)
let rec same_keys (ks : keys list) (ps : info list) : bool =
  match (ks, ps) with
  | [], [] -> true
  | k :: ks, p :: ps -> String.equal k.hash p.i_key && same_keys ks ps
  | _ -> false

(* The operands an operator's key covers, in [go]'s order. [None] for a
   name, a leaf, a source and a list, which [content_keys] keys
   otherwise. *)
let operands_of (n : Mg.node) : Mg.node list option =
  match n with
  | Mg.Merge ops -> Some (Mg.flatten_operands ops)
  | Mg.Override (a, b) -> Some [ a; b ]
  | Mg.Freeze (_, x)
  | Mg.Restrict (_, x)
  | Mg.Project (_, x)
  | Mg.Copy_as (_, _, x)
  | Mg.Hide (_, x)
  | Mg.Show (_, x)
  | Mg.Rename (_, _, _, x)
  | Mg.Initializers x
  | Mg.Specialize (_, _, x)
  | Mg.Constrain (_, _, x) ->
      Some [ x ]
  | Mg.Name _ | Mg.Leaf _ | Mg.Source _ | Mg.Lst _ -> None

(* Keys for the nodes [go] will visit, in its order: a node's parts and
   its operands' keys, each behind its length. A node's own part
   ({!Mg.own_part}) is one part; every [Name] adds its path and resolves
   as [step] resolves it, so a key fixes what the name reaches, or the
   error or cycle it reports; with the path, it fixes everything the
   subtree's walk produces. [prev] is the previous walk at the same
   position: a node whose own part and operand keys are the ones it
   keyed keeps its key, and a leaf that is still the very object it
   walked (object files are never mutated once built) keeps its key,
   sparing the content digest. Whether the own part is the one keyed is
   read off the previous node ({!Mg.same_own}), not kept with it (kept
   walks stay as small as they were), and a part is rendered only to be
   hashed. *)
let rec content_keys (st : state) (prev : info option) (n : Mg.node) : keys =
  (* [same p]: the previous node [p] had this node's parts *)
  let key ~(same : info -> bool) (parts : unit -> string list) kids =
    match prev with
    | Some p when same_keys kids p.i_children && same p -> { hash = p.i_key; kids }
    | _ -> { hash = hash (parts ()) kids; kids }
  in
  let never _ = false in
  let own () = [ Mg.own_part n ] in
  let operands xs =
    aligned (content_keys st) xs
      (match prev with Some p -> p.i_children | None -> [])
  in
  match operands_of n with
  | Some xs -> key ~same:(fun p -> Mg.same_own n p.i_node) own (operands xs)
  | None -> (
      match n with
      | Mg.Name p -> (
          if List.mem p st.visiting then
            key ~same:never (fun () -> [ "cycle"; p ]) []
          else
            match st.resolve p with
            | Error msg ->
                key ~same:never (fun () -> [ "unresolved"; p; msg ]) []
            | Ok sub ->
                st.visiting <- p :: st.visiting;
                let ks = operands [ sub ] in
                st.visiting <- List.tl st.visiting;
                (* a previous name with operands resolved *)
                key
                  ~same:(fun w ->
                    w.i_children <> []
                    && match w.i_node with Mg.Name q -> String.equal p q | _ -> false)
                  (fun () -> [ Mg.own_part n; p ])
                  ks)
      | Mg.Lst _ ->
          (* malformed here: reported, its items never walked *)
          key ~same:never (fun () -> [ "list"; Mg.digest n ]) []
      | Mg.Leaf o -> (
          match prev with
          | Some { i_node = Mg.Leaf o'; i_key; _ } when o == o' ->
              { hash = i_key; kids = [] }
          | _ -> key ~same:never own [])
      | _ -> (* a source *) key ~same:never own [])

(* -- entry points ------------------------------------------------------------ *)

let new_state ~resolve =
  {
    resolve;
    findings = [];
    ever_defined = S.empty;
    visiting = [];
    approximate = false;
    eval_fails = false;
    n_walked = 0;
    n_replayed = 0;
  }

(* The root checks and the report, once [go] has walked the root. *)
let finish (st : state) ~root_path (m : Symflow.t) prefs : report =
  let undefined = Symflow.undefined m in
  check_unresolved st ~path:root_path undefined;
  check_constraints st ~path:root_path prefs;
  {
    findings = List.rev st.findings;
    exports = Symflow.exports m;
    undefined;
    frozen = S.elements m.Symflow.frozen;
    hidden = S.elements m.Symflow.hidden;
    prefs;
    approximate = st.approximate;
    eval_fails = st.eval_fails;
  }

(* The report-only walk: no keys, nothing kept. *)
let analyze ~(resolve : string -> (Mg.node, string) result) (root : Mg.node) :
    report =
  let st = new_state ~resolve in
  let root_path = Mg.op_name root in
  match go st None root_path root with
  | m, prefs -> finish st ~root_path m prefs
  | exception e ->
      (* the analyzer must never take down registration or the CLI *)
      st.approximate <- true;
      emit st ~code:"E999" ~title:"analyzer-internal-error" ~severity:Error
        ~path:root_path (Printexc.to_string e);
      finish st ~root_path Symflow.empty []

let rewalk ~(resolve : string -> (Mg.node, string) result)
    ~(prev : (info * report) option) (root : Mg.node) : kept_walk =
  let st = new_state ~resolve in
  let root_path = Mg.op_name root in
  let prev_root = Option.map fst prev in
  match
    let up =
      {
        keys = [ content_keys st prev_root root ];
        prev = Option.to_list prev_root;
        done_ = [];
      }
    in
    let m, prefs = go st (Some up) root_path root in
    (m, prefs, List.hd up.done_)
  with
  | m, prefs, w ->
      let report =
        match prev with
        (* a replayed root fixes every input of the root checks *)
        | Some (p, report) when p == w -> report
        | _ -> finish st ~root_path m prefs
      in
      { report; root = w; walked = st.n_walked; replayed = st.n_replayed }
  | exception _ ->
      (* a failed kept walk leaves its state half replayed: the report
         comes from a walk that keeps nothing, E999 included, and the
         root stands alone, unmodeled and without operands, so the memo
         never answers through it; no hashed key equals its empty key,
         and a root that keeps it (a leaf, or an operator without
         operands) fails again alike. Its digest, an image key, names
         the graph by construction. *)
      let report = analyze ~resolve root in
      let root =
        {
          i_path = root_path;
          i_node = root;
          i_key = "";
          i_digest = "(analysis-error)" ^ Mg.digest root;
          i_flow = Symflow.empty;
          i_prefs = [];
          i_modeled = false;
          i_keyed = false;
          i_findings = report.findings;
          i_approximate = report.approximate;
          i_eval_fails = report.eval_fails;
          i_defined = S.empty;
          i_children = [];
        }
      in
      { report; root; walked = 0; replayed = 0 }

let analyze_meta ~(resolve : string -> (Mg.node, string) result)
    (meta : Blueprint.Meta.t) : report =
  analyze ~resolve (Blueprint.Meta.effective_graph meta ~spec:None)

(* -- differential self-check ------------------------------------------------- *)

type verify_outcome =
  | Verified of { exports : int; undefined : int }
  | Skipped of string
  | Mismatch of {
      field : string;  (** "exports" or "undefined" *)
      predicted : string list;
      actual : string list;
    }
  | Eval_raised of string
      (** evaluation raised although the analyzer predicted success *)

let verify_against ~(eval : Mg.node -> Mg.result)
    ~(resolve : string -> (Mg.node, string) result) (root : Mg.node) :
    report * verify_outcome =
  let report = analyze ~resolve root in
  if report.eval_fails then (report, Skipped "analysis predicts evaluation failure")
  else if report.approximate then
    (report, Skipped "unmodeled specialization; predicted sets are approximate")
  else
    match eval root with
    | r ->
        let actual_exports = Jigsaw.Module_ops.exports r.Mg.m in
        let actual_undef = Jigsaw.Module_ops.undefined r.Mg.m in
        if report.exports <> actual_exports then
          ( report,
            Mismatch
              { field = "exports"; predicted = report.exports;
                actual = actual_exports } )
        else if report.undefined <> actual_undef then
          ( report,
            Mismatch
              { field = "undefined"; predicted = report.undefined;
                actual = actual_undef } )
        else
          ( report,
            Verified
              {
                exports = List.length actual_exports;
                undefined = List.length actual_undef;
              } )
    | exception e -> (report, Eval_raised (Printexc.to_string e))
