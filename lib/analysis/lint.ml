(** Blueprint lint: diagnostics over the symbol-flow lattice.

    An abstract interpretation of an m-graph that walks the node tree
    exactly as {!Blueprint.Mgraph.eval} would (same operand order, same
    occurrence paths, hence the same freeze/hide/show aliases) but
    computes on {!Symflow} name sets instead of materializing views — so
    it is safe to run at meta-object registration time, costs nothing on
    the simulated clock, and can diagnose graphs whose evaluation would
    raise. {!Impact} annotates the same walk with interface summaries.

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
      shadowed by a global one in a [merge]. *)

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

type 'a annotate =
  path:string ->
  key:string option ->
  modeled:bool ->
  Mg.node ->
  Symflow.t ->
  Mg.constraint_pref list ->
  'a list ->
  'a

type 'a state = {
  resolve : string -> (Mg.node, string) result;
  annotate : 'a annotate;
  mutable findings : finding list;  (* newest first *)
  mutable ever_defined : S.t;  (* names defined anywhere, at any point *)
  mutable visiting : string list;  (* Name cycle detection *)
  mutable approximate : bool;
  mutable eval_fails : bool;
}

(* One node's walk: its flow and preferences, its operands'
   annotations, whether its own semantics are modeled exactly, and its
   occurrence key when it minted freeze/hide/show aliases. *)
type 'a step = {
  flow : Symflow.t;
  prefs : Mg.constraint_pref list;
  children : 'a list;
  modeled : bool;
  key : string option;
}

(* A node the analyzer cannot model (unresolved name, broken source,
   malformed graph): nothing flows out of it. *)
let opaque =
  { flow = Symflow.empty; prefs = []; children = []; modeled = false; key = None }

(* The step of a node with one operand, walked as [(_, prefs, ann)]. *)
let over ?(modeled = true) ?key
    ((_, prefs, ann) : Symflow.t * Mg.constraint_pref list * 'a)
    (flow : Symflow.t) : 'a step =
  { flow; prefs; children = [ ann ]; modeled; key }

(* A freeze/hide/show: aliases are keyed by the node's occurrence, and
   the node carries its key only when it actually mints. *)
let mint ~path ~live operand (apply : key:string -> Symflow.t) =
  let key = Mg.occurrence_key path in
  over ?key:(if live then Some key else None) operand (apply ~key)

let emit (st : _ state) ~code ~title ~severity ~path ?(symbols = []) message :
    unit =
  st.findings <-
    { code; title; severity; path; symbols; message } :: st.findings

let fails (st : _ state) ~code ~title ~path ?symbols message : unit =
  st.eval_fails <- true;
  emit st ~code ~title ~severity:Error ~path ?symbols message

let malformed st ~path message =
  fails st ~code:"E008" ~title:"malformed-graph" ~path message

(* A selector that failed to compile: report E006 once and treat the
   operator as a no-op so analysis can continue. *)
let compile_sel (st : _ state) ~path (pattern : string) : Jigsaw.Select.t option
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
let guarded_map (st : _ state) ~path ~(pattern : string) ~(template : string)
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

(* Duplicate-global names within a single module (what its own merge
   nodes already reported), used to report only dups a node creates. *)
let own_dup_names (m : Symflow.t) : S.t =
  S.of_list
    (List.map (fun (n, _, _) -> n) (Symflow.duplicate_globals m.Symflow.frags))

let check_merge_conflicts (st : _ state) ~path (parts : Symflow.t list)
    (result : Symflow.t) : unit =
  let inherited =
    List.fold_left (fun acc p -> S.union acc (own_dup_names p)) S.empty parts
  in
  let fresh =
    List.filter
      (fun (n, _, _) -> not (S.mem n inherited))
      (Symflow.duplicate_globals result.Symflow.frags)
  in
  (match fresh with
  | [] -> ()
  | dups ->
      let names = List.sort_uniq compare (List.map (fun (n, _, _) -> n) dups) in
      let n1, s1, s2 = List.hd dups in
      fails st ~code:"E002" ~title:"duplicate-global-in-merge" ~path
        ~symbols:names
        (Printf.sprintf "duplicate global definition of %s (in %s and %s)" n1
           s1 s2));
  (* weak definitions shadowed across operands of this node *)
  let shadowed =
    let rec fold acc = function
      | [] -> []
      | p :: rest -> Symflow.weak_shadowed acc p @ fold (Symflow.merge acc p) rest
    in
    match parts with [] -> [] | p :: rest -> fold p rest
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
let check_rename_collision (st : _ state) ~path ~(op : string)
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

(* -- the abstract evaluator ------------------------------------------------- *)

let rec go (st : 'a state) (path : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * 'a =
  let s = step st path n in
  st.ever_defined <-
    S.union st.ever_defined (S.of_list (Symflow.defined_any s.flow));
  ( s.flow,
    s.prefs,
    st.annotate ~path ~key:s.key ~modeled:s.modeled n s.flow s.prefs s.children )

and operand st path ?idx x = go st (Mg.child_path path ?idx x) x

and step (st : 'a state) (path : string) (n : Mg.node) : 'a step =
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
            let ((m, _, _) as r) = go st path sub in
            st.visiting <- List.tl st.visiting;
            over r m)
  | Mg.Merge operands -> (
      match Mg.flatten_operands operands with
      | [] ->
          malformed st ~path "merge: no operands";
          opaque
      | flat ->
          let rs = List.mapi (fun i x -> operand st path ~idx:i x) flat in
          let parts = List.map (fun (m, _, _) -> m) rs in
          let m = List.fold_left Symflow.merge (List.hd parts) (List.tl parts) in
          if List.length parts > 1 then check_merge_conflicts st ~path parts m;
          {
            flow = m;
            prefs = List.concat_map (fun (_, p, _) -> p) rs;
            children = List.map (fun (_, _, a) -> a) rs;
            modeled = true;
            key = None;
          })
  | Mg.Override (a, b) ->
      let ma, pa, ia = operand st path ~idx:0 a in
      let mb, pb, ib = operand st path ~idx:1 b in
      let a_exports = S.of_list (Symflow.exports ma) in
      let b_exports = Symflow.exports mb in
      if not (List.exists (fun n -> S.mem n a_exports) b_exports) then
        emit st ~code:"W102" ~title:"override-overrides-nothing"
          ~severity:Warning ~path
          "the right operand exports nothing the left operand defines; \
           override replaces no binding";
      let a' = Symflow.restrict (fun n -> List.mem n b_exports) ma in
      let m = Symflow.merge a' mb in
      check_merge_conflicts st ~path [ a'; mb ] m;
      { flow = m; prefs = pa @ pb; children = [ ia; ib ]; modeled = true; key = None }
  | Mg.Freeze (p, x) -> (
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, _, _) as r) = operand st path x in
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
      let ((mx, px, _) as r) = operand st path x in
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
      let ((mx, px, _) as r) = operand st path x in
      { (over r mx) with prefs = Mg.address_prefs seg addr @ px }
  | Mg.Lst _ ->
      malformed st ~path
        "list is only meaningful as an operand of another operation";
      opaque

(* -- root checks ------------------------------------------------------------ *)

let check_constraints (st : _ state) ~path (prefs : Mg.constraint_pref list) :
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

let check_unresolved (st : _ state) ~path (m : Symflow.t) : unit =
  let lost =
    List.filter (fun n -> S.mem n st.ever_defined) (Symflow.undefined m)
  in
  if lost <> [] then
    emit st ~code:"E001" ~title:"unresolved-at-root" ~severity:Error ~path
      ~symbols:lost
      "referenced but undefined at the root, though a definition existed in \
       the graph before operators removed or renamed it"

(* -- entry points ------------------------------------------------------------ *)

let walk ~(resolve : string -> (Mg.node, string) result)
    ~(annotate : 'a annotate) (root : Mg.node) : report * 'a option =
  let st =
    {
      resolve;
      annotate;
      findings = [];
      ever_defined = S.empty;
      visiting = [];
      approximate = false;
      eval_fails = false;
    }
  in
  let root_path = Mg.op_name root in
  let m, prefs, ann =
    match go st root_path root with
    | m, prefs, a -> (m, prefs, Some a)
    | exception e ->
        (* the analyzer must never take down registration or the CLI *)
        st.approximate <- true;
        emit st ~code:"E999" ~title:"analyzer-internal-error" ~severity:Error
          ~path:root_path (Printexc.to_string e);
        (Symflow.empty, [], None)
  in
  check_unresolved st ~path:root_path m;
  check_constraints st ~path:root_path prefs;
  ( {
      findings = List.rev st.findings;
      exports = Symflow.exports m;
      undefined = Symflow.undefined m;
      frozen = S.elements m.Symflow.frozen;
      hidden = S.elements m.Symflow.hidden;
      prefs;
      approximate = st.approximate;
      eval_fails = st.eval_fails;
    },
    ann )

let analyze ~(resolve : string -> (Mg.node, string) result) (root : Mg.node) :
    report =
  fst (walk ~resolve ~annotate:(fun ~path:_ ~key:_ ~modeled:_ _ _ _ _ -> ()) root)

let analyze_meta ~(resolve : string -> (Mg.node, string) result)
    ?(spec : (string * Mg.value list) option = None) (meta : Blueprint.Meta.t) :
    report =
  analyze ~resolve (Blueprint.Meta.effective_graph meta ~spec)

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
