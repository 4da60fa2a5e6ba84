(* Tests of the symbol-flow analyzer: every diagnostic code pinned by a
   minimal triggering graph, the differential self-check over the whole
   quickstart world, the no-cost/no-materialization guarantee, and the
   restrict/project partition properties. *)

module L = Analysis.Lint
module Mg = Blueprint.Mgraph

(* a section-less object: Abs definitions only *)
let obj name syms =
  Sof.Object_file.make ~name ~text:Bytes.empty
    (List.map
       (fun (n, b) -> Sof.Symbol.make ~binding:b ~kind:Sof.Symbol.Abs ~value:0 n)
       syms)

(* helper + a caller, so removing the definition leaves a live reloc ref *)
let base_obj () =
  let a = Sof.Asm.create "/t/base.o" in
  Sof.Asm.label a "helper";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.label a "g";
  Sof.Asm.call a "helper";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.finish a

let no_resolve _ = Error "no resolver"
let analyze g = L.analyze ~resolve:no_resolve g

let codes (r : L.report) : string list =
  List.map (fun (f : L.finding) -> f.L.code) r.L.findings

let find_code (r : L.report) (code : string) : L.finding =
  match List.find_opt (fun (f : L.finding) -> f.L.code = code) r.L.findings with
  | Some f -> f
  | None ->
      Alcotest.failf "no %s finding (got: %s)" code
        (String.concat ", " (codes r))

(* -- the diagnostic codes ---------------------------------------------------- *)

let test_e001_unresolved_at_root () =
  let g = Mg.Restrict ("^helper$", Mg.Leaf (base_obj ())) in
  let r = analyze g in
  let f = find_code r "E001" in
  Alcotest.(check (list string)) "offending symbol" [ "helper" ] f.L.symbols;
  Alcotest.(check bool) "eval still succeeds" false r.L.eval_fails;
  Alcotest.(check (list string)) "undefined predicted" [ "helper" ] r.L.undefined;
  (* a reference that never had a definition is an import, not an error *)
  let importer =
    let a = Sof.Asm.create "/t/imp.o" in
    Sof.Asm.label a "f";
    Sof.Asm.call a "external_thing";
    Sof.Asm.instr a Svm.Isa.Ret;
    Sof.Asm.finish a
  in
  let r = analyze (Mg.Merge [ Mg.Leaf importer ]) in
  Alcotest.(check (list string)) "import is clean" [] (codes r);
  Alcotest.(check (list string)) "but still undefined" [ "external_thing" ]
    r.L.undefined

let test_e002_duplicate_global () =
  let a = obj "/t/a.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/b.o" [ ("f", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ]) in
  let f = find_code r "E002" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  Alcotest.(check bool) "eval fails" true r.L.eval_fails;
  (* and evaluation really does fail *)
  (try
     ignore
       (Blueprint.Mgraph.eval
          (Blueprint.Mgraph.make_env ())
          (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ]));
     Alcotest.fail "eval should raise"
   with Jigsaw.Module_ops.Module_error _ -> ());
  (* a weak duplicate is not an error *)
  let w = obj "/t/w.o" [ ("f", Sof.Symbol.Weak) ] in
  let r = analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf w ]) in
  Alcotest.(check bool) "no E002 for weak" true
    (not (List.mem "E002" (codes r)))

let test_e003_rename_collision () =
  let o = obj "/t/fg.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Copy_as ("^f$", "g", Mg.Leaf o)) in
  let f = find_code r "E003" in
  Alcotest.(check (list string)) "symbol" [ "g" ] f.L.symbols;
  let r = analyze (Mg.Rename (Jigsaw.Module_ops.Defs_only, "^f$", "g", Mg.Leaf o)) in
  ignore (find_code r "E003");
  (* a refs-only rename cannot collide definitions *)
  let r = analyze (Mg.Rename (Jigsaw.Module_ops.Refs_only, "^f$", "g", Mg.Leaf o)) in
  Alcotest.(check (list string)) "refs-only clean" [] (codes r)

let test_e004_conflicting_constraints () =
  let o = obj "/t/c.o" [ ("f", Sof.Symbol.Global) ] in
  let g =
    Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_text, 0x2000, Mg.Leaf o))
  in
  ignore (find_code (analyze g) "E004");
  (* same address twice is no conflict; different segments neither *)
  let g = Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Leaf o)) in
  Alcotest.(check (list string)) "same addr clean" [] (codes (analyze g));
  let g = Mg.Constrain (Mg.Seg_text, 0x1000, Mg.Constrain (Mg.Seg_data, 0x2000, Mg.Leaf o)) in
  Alcotest.(check (list string)) "cross-seg clean" [] (codes (analyze g))

let test_e005_unknown_and_cycle () =
  let r = analyze (Mg.Name "/no/such") in
  let f = find_code r "E005" in
  Alcotest.(check (list string)) "names the path" [ "/no/such" ] f.L.symbols;
  Alcotest.(check bool) "eval fails" true r.L.eval_fails;
  let resolve = function
    | "/a" -> Ok (Mg.Name "/b")
    | "/b" -> Ok (Mg.Name "/a")
    | p -> Error ("unknown " ^ p)
  in
  let r = L.analyze ~resolve (Mg.Name "/a") in
  ignore (find_code r "E005")

let test_e006_invalid_selector () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  let r = analyze (Mg.Restrict ("^[", Mg.Leaf o)) in
  ignore (find_code r "E006");
  Alcotest.(check bool) "eval fails" true r.L.eval_fails

let test_e007_source_errors () =
  let r = analyze (Mg.Merge [ Mg.Source ("c", "int broken( {") ]) in
  ignore (find_code r "E007");
  let r = analyze (Mg.Merge [ Mg.Source ("fortran", "") ]) in
  ignore (find_code r "E007");
  (* valid source analyzes into its namespace *)
  let r = analyze (Mg.Merge [ Mg.Source ("c", "int f() { return 1; }") ]) in
  Alcotest.(check (list string)) "clean" [] (codes r);
  Alcotest.(check bool) "f exported" true (List.mem "f" r.L.exports)

let test_e008_malformed_graph () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  ignore (find_code (analyze (Mg.Specialize ("no-such", [], Mg.Leaf o))) "E008");
  ignore (find_code (analyze (Mg.Lst [ Mg.Leaf o ])) "E008");
  ignore (find_code (analyze (Mg.Merge [])) "E008");
  ignore
    (find_code
       (analyze (Mg.Specialize ("lib-constrained", [ Mg.Vstr "T" ], Mg.Leaf o)))
       "E008")

let test_w101_dead_selectors () =
  let o = obj "/t/fg.o" [ ("f", Sof.Symbol.Global); ("g", Sof.Symbol.Global) ] in
  let dead op title =
    let f = find_code (analyze (op (Mg.Leaf o))) "W101" in
    Alcotest.(check string) title title f.L.title
  in
  dead (fun x -> Mg.Restrict ("^zz", x)) "dead-restrict";
  dead (fun x -> Mg.Hide ("^zz", x)) "dead-hide";
  dead (fun x -> Mg.Show (".", x)) "dead-show";
  dead (fun x -> Mg.Project (".", x)) "dead-project";
  (* live selectors stay silent *)
  Alcotest.(check (list string)) "live restrict" []
    (codes (analyze (Mg.Restrict ("^f$", Mg.Leaf o))))

let test_w102_override_overrides_nothing () =
  let a = obj "/t/a.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/b.o" [ ("h", Sof.Symbol.Global) ] in
  ignore (find_code (analyze (Mg.Override (Mg.Leaf a, Mg.Leaf b))) "W102");
  let b' = obj "/t/b2.o" [ ("f", Sof.Symbol.Global) ] in
  Alcotest.(check (list string)) "real override clean" []
    (codes (analyze (Mg.Override (Mg.Leaf a, Mg.Leaf b'))))

let test_w103_refreeze () =
  let o = obj "/t/f.o" [ ("f", Sof.Symbol.Global) ] in
  let g = Mg.Freeze ("^f$", Mg.Freeze ("^f$", Mg.Leaf o)) in
  let f = find_code (analyze g) "W103" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  (* a single live freeze is clean *)
  Alcotest.(check (list string)) "single freeze clean" []
    (codes (analyze (Mg.Freeze ("^f$", Mg.Leaf o))))

let test_w104_shadowed_weak () =
  let a = obj "/t/weak.o" [ ("f", Sof.Symbol.Weak) ] in
  let b = obj "/t/strong.o" [ ("f", Sof.Symbol.Global) ] in
  let f = find_code (analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b ])) "W104" in
  Alcotest.(check (list string)) "symbol" [ "f" ] f.L.symbols;
  (* two weaks coexist silently *)
  let b' = obj "/t/weak2.o" [ ("f", Sof.Symbol.Weak) ] in
  Alcotest.(check (list string)) "weak+weak clean" []
    (codes (analyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b' ])))

(* -- exactness --------------------------------------------------------------- *)

let test_verify_all_world_metas () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let metas = Omos.Namespace.all_metas (Omos.Server.namespace s) in
  Alcotest.(check bool) "world has metas" true (metas <> []);
  List.iter
    (fun path ->
      let meta = Omos.Server.find_meta s path in
      let graph = Blueprint.Meta.effective_graph meta ~spec:None in
      let _, outcome =
        L.verify_against ~eval:(Omos.Server.eval s)
          ~resolve:(Omos.Server.resolve_graph s) graph
      in
      match outcome with
      | L.Verified _ -> ()
      | L.Skipped reason -> Alcotest.failf "%s: skipped: %s" path reason
      | L.Mismatch { field; predicted; actual } ->
          Alcotest.failf "%s: %s mismatch: predicted [%s] actual [%s]" path
            field
            (String.concat " " predicted)
            (String.concat " " actual)
      | L.Eval_raised msg -> Alcotest.failf "%s: eval raised: %s" path msg)
    metas

let test_analysis_is_free () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let k = Omos.Server.kernel s in
  let clock0 = Simos.Clock.elapsed k.Simos.Kernel.clock in
  let mat0 = Sof.View.materializations () in
  let compiles0 = Telemetry.Counter.get "blueprint.source_compiles" in
  List.iter
    (fun path ->
      let meta = Omos.Server.find_meta s path in
      ignore (L.analyze_meta ~resolve:(Omos.Server.resolve_graph s) meta))
    (Omos.Namespace.all_metas (Omos.Server.namespace s));
  (* source nodes compile host-side but charge nothing and do not count
     as evaluator compiles *)
  ignore (analyze (Mg.Merge [ Mg.Source ("c", "int f() { return 1; }") ]));
  Alcotest.(check (float 0.0)) "zero simulated cost" clock0
    (Simos.Clock.elapsed k.Simos.Kernel.clock);
  Alcotest.(check int) "zero views materialized" mat0
    (Sof.View.materializations ());
  Alcotest.(check int) "zero evaluator compiles" compiles0
    (Telemetry.Counter.get "blueprint.source_compiles")

(* -- registration & provenance ----------------------------------------------- *)

let test_registration_counters_and_provenance () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let errs0 = Telemetry.Counter.get "lint.errors" in
  let warns0 = Telemetry.Counter.get "lint.warnings" in
  Omos.Server.register_meta_source s "/test/warny" "(override /demo/impl.o /lib/libm.o)";
  Omos.Server.register_meta_source s "/test/broken" "(merge /demo/base.o /demo/base.o)";
  Alcotest.(check int) "warning counter" (warns0 + 1)
    (Telemetry.Counter.get "lint.warnings");
  Alcotest.(check int) "error counter" (errs0 + 1)
    (Telemetry.Counter.get "lint.errors");
  (match Omos.Server.lint_report s "/test/broken" with
  | Some rep ->
      Alcotest.(check bool) "E002 recorded" true (List.mem "E002" (codes rep));
      Alcotest.(check bool) "eval_fails" true rep.L.eval_fails
  | None -> Alcotest.fail "no lint report for /test/broken");
  (* findings replay into the provenance journal of the build, without
     perturbing the operator chain *)
  Telemetry.set_enabled true;
  Telemetry.Provenance.set_enabled true;
  let resp = Omos.Server.instantiate s (Omos.Server.library "/test/warny") in
  Telemetry.Provenance.set_enabled false;
  Telemetry.set_enabled false;
  let e = resp.Omos.Server.built.Omos.Server.entry in
  match e.Omos.Cache.provenance with
  | None -> Alcotest.fail "no provenance"
  | Some p ->
      Alcotest.(check bool) "W102 in journal" true
        (List.exists
           (function
             | Telemetry.Provenance.Lint { code; _ } -> code = "W102"
             | _ -> false)
           p.Telemetry.Provenance.p_events);
      Alcotest.(check bool) "operator chain untouched" true
        (not (List.mem "lint" p.Telemetry.Provenance.p_ops))

(* -- the partition and dead-selector properties ------------------------------- *)

let name_pool = [| "alpha"; "beta"; "gamma"; "delta"; "omega"; "mu" |]
let sel_pool = [| "^alpha$"; "^a"; "a$"; "^zz"; "."; "^(alpha|mu)$"; "ta" |]

let gen_names =
  QCheck.Gen.map
    (fun bits ->
      List.filteri
        (fun i _ -> bits land (1 lsl i) <> 0)
        (Array.to_list name_pool))
    (QCheck.Gen.int_bound 63)

let gen_sel = QCheck.Gen.oneofa sel_pool

let arb_case =
  QCheck.make
    ~print:(fun (ns, sel) -> String.concat "," ns ^ " / " ^ sel)
    (QCheck.Gen.pair gen_names gen_sel)

let prop_partition =
  QCheck.Test.make ~name:"restrict+project partition exports" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/p.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let m = Jigsaw.Module_ops.of_object o in
      let sel = Jigsaw.Select.compile sel_s in
      let er = Jigsaw.Module_ops.exports (Jigsaw.Module_ops.restrict sel m) in
      let ep = Jigsaw.Module_ops.exports (Jigsaw.Module_ops.project sel m) in
      List.sort_uniq compare (er @ ep) = Jigsaw.Module_ops.exports m
      && List.for_all (fun n -> not (List.mem n ep)) er)

let prop_dead_restrict_noop =
  QCheck.Test.make ~name:"lint-dead restrict is a concrete no-op" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/d.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let rep = analyze (Mg.Restrict (sel_s, Mg.Leaf o)) in
      (not (List.mem "W101" (codes rep)))
      ||
      let m = Jigsaw.Module_ops.of_object o in
      let m' = Jigsaw.Module_ops.restrict (Jigsaw.Select.compile sel_s) m in
      Jigsaw.Module_ops.exports m' = Jigsaw.Module_ops.exports m
      && Jigsaw.Module_ops.undefined m' = Jigsaw.Module_ops.undefined m)

let prop_dead_hide_noop =
  QCheck.Test.make ~name:"lint-dead hide is a concrete no-op" ~count:300
    arb_case (fun (names, sel_s) ->
      let o = obj "/t/h.o" (List.map (fun n -> (n, Sof.Symbol.Global)) names) in
      let rep = analyze (Mg.Hide (sel_s, Mg.Leaf o)) in
      (not (List.mem "W101" (codes rep)))
      ||
      let m = Jigsaw.Module_ops.of_object o in
      let m' = Jigsaw.Module_ops.hide ~key:"0" (Jigsaw.Select.compile sel_s) m in
      Jigsaw.Module_ops.exports m' = Jigsaw.Module_ops.exports m)

(* -- subtree dependence (impact) ---------------------------------------------- *)

module I = Analysis.Impact

let ianalyze g = I.analyze ~resolve:no_resolve g
let iroot g = (ianalyze g).I.t_root

let test_impact_digests_and_stability () =
  let a = obj "/t/ia.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/ib.o" [ ("g", Sof.Symbol.Global) ] in
  let g = Mg.Merge [ Mg.Leaf a; Mg.Leaf b ] in
  let r1 = iroot g and r2 = iroot g in
  Alcotest.(check string) "digest deterministic" r1.I.i_digest r2.I.i_digest;
  Alcotest.(check bool) "plain merge holds anywhere" false r1.I.i_keyed;
  Alcotest.(check int) "two children" 2 (List.length r1.I.i_children);
  (* content-addressed: same shape, different leaf content *)
  let b' = obj "/t/ib.o" [ ("h", Sof.Symbol.Global) ] in
  let r3 = iroot (Mg.Merge [ Mg.Leaf a; Mg.Leaf b' ]) in
  Alcotest.(check bool) "content moves the digest" true
    (r1.I.i_digest <> r3.I.i_digest);
  (* a live freeze mints aliases named after its occurrence: its digest
     is keyed, and the same freeze elsewhere is another interface *)
  let rf = iroot (Mg.Freeze ("^f$", Mg.Leaf a)) in
  Alcotest.(check bool) "live freeze keyed" true rf.I.i_keyed;
  let nested = List.hd (iroot (Mg.Merge [ Mg.Freeze ("^f$", Mg.Leaf a) ])).I.i_children in
  Alcotest.(check bool) "occurrence moves a keyed digest" true
    (nested.I.i_digest <> rf.I.i_digest);
  (* a dead freeze mints nothing: its digest holds anywhere *)
  let rd = iroot (Mg.Freeze ("^zz", Mg.Leaf a)) in
  Alcotest.(check bool) "dead freeze unkeyed" false rd.I.i_keyed;
  let nested = List.hd (iroot (Mg.Merge [ Mg.Freeze ("^zz", Mg.Leaf a) ])).I.i_children in
  Alcotest.(check string) "unkeyed digest holds anywhere" rd.I.i_digest
    nested.I.i_digest;
  (* an unresolvable name leaves the spine above it unmodeled *)
  let t = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Name "/no/such" ]) in
  Alcotest.(check bool) "approximate tree" true t.I.t_approximate;
  Alcotest.(check bool) "root unmodeled" false t.I.t_root.I.i_modeled

let test_impact_diff_verdicts () =
  let a = obj "/t/ia.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/ib.o" [ ("g", Sof.Symbol.Global) ] in
  let c = obj "/t/ic.o" [ ("h", Sof.Symbol.Global) ] in
  let c' = obj "/t/ic.o" [ ("h2", Sof.Symbol.Global) ] in
  let old_tree = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b; Mg.Leaf c ]) in
  let new_tree = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Leaf b; Mg.Leaf c' ]) in
  let d = I.diff ~old_tree ~new_tree in
  Alcotest.(check bool) "root digest moved" true
    (d.I.d_old_digest <> d.I.d_new_digest);
  Alcotest.(check int) "siblings reused" 2 d.I.d_reused;
  Alcotest.(check int) "spine respun" 2 d.I.d_respun;
  Alcotest.(check (list string)) "spine = root + edited leaf"
    [ "merge"; "merge[2].leaf:/t/ic.o" ] d.I.d_spine;
  (* the edited leaf's reason names the first differing interface fact *)
  let leaf_verdict =
    List.find (fun v -> v.I.v_path = "merge[2].leaf:/t/ic.o") d.I.d_nodes
  in
  (match leaf_verdict.I.v_verdict with
  | I.Respin { reason } ->
      Alcotest.(check bool)
        (Printf.sprintf "reason mentions the export (%s)" reason)
        true
        (Astring.String.is_infix ~affix:"export" reason)
  | I.Reused _ -> Alcotest.fail "edited leaf must respin");
  (* verify discharges the byte-identity obligation of both reuses *)
  let env = Blueprint.Mgraph.make_env () in
  let eval n = (Blueprint.Mgraph.eval env n).Blueprint.Mgraph.m in
  let vo = I.verify ~eval ~old_tree ~new_tree d in
  Alcotest.(check int) "two digests checked" 2 vo.I.vo_checked;
  Alcotest.(check (list (pair string string))) "no failures" []
    vo.I.vo_failures;
  (* identical trees: one reused root, empty spine *)
  let d0 = I.diff ~old_tree ~new_tree:old_tree in
  Alcotest.(check int) "self-diff reuses the root" 1 d0.I.d_reused;
  Alcotest.(check int) "nothing respun" 0 d0.I.d_respun;
  Alcotest.(check (list string)) "empty spine" [] d0.I.d_spine

(* an assembled fragment: one label per (name, optional callee) *)
let asm_obj name defs =
  let a = Sof.Asm.create name in
  List.iter
    (fun (lbl, callee) ->
      Sof.Asm.label a lbl;
      (match callee with Some c -> Sof.Asm.call a c | None -> ());
      Sof.Asm.instr a Svm.Isa.Ret)
    defs;
  Sof.Asm.finish a

let server () = (Omos.World.create ()).Omos.World.server

let meta_graph s path =
  Blueprint.Meta.effective_graph (Omos.Server.find_meta s path) ~spec:None

(* exports (aliases included) and the flattened object's digest *)
let built s path =
  let m = (Omos.Server.eval s (meta_graph s path)).Blueprint.Mgraph.m in
  (Jigsaw.Module_ops.exports m, Sof.Codec.digest (Jigsaw.Module_ops.to_object m))

(* Aliases are a function of where an operator sits, not of what was
   evaluated before it: two servers in one process evaluating the same
   hide/freeze blueprints in opposite orders build identical modules,
   and the analyzer predicts them without being told anything. *)
let test_evaluation_order () =
  let install s =
    Omos.Server.add_fragment s "/t/ea.o"
      (asm_obj "/t/ea.o" [ ("ea", None); ("ea_caller", Some "ea") ]);
    Omos.Server.add_fragment s "/t/eb.o"
      (asm_obj "/t/eb.o" [ ("eb", None); ("eb_caller", Some "eb") ]);
    Omos.Server.register_meta_source s "/t/frozen" "(freeze \"^ea$\" /t/ea.o)";
    Omos.Server.register_meta_source s "/t/hidden"
      "(merge (hide \"^eb$\" /t/eb.o) (show \"^ea_caller$\" /t/frozen))"
  in
  let sa = server () and sb = server () in
  install sa;
  install sb;
  let paths = [ "/t/frozen"; "/t/hidden" ] in
  let a = List.map (built sa) paths in
  let b = List.rev (List.map (built sb) (List.rev paths)) in
  Alcotest.(check (list (pair (list string) string))) "same modules" a b;
  Alcotest.(check bool) "freeze alias exported" true
    (List.exists
       (fun n -> Astring.String.is_prefix ~affix:"ea$frz" n)
       (fst (List.hd a)));
  List.iter
    (fun path ->
      match
        snd
          (L.verify_against ~eval:(Omos.Server.eval sb)
             ~resolve:(Omos.Server.resolve_graph sb) (meta_graph sb path))
      with
      | L.Verified _ -> ()
      | _ -> Alcotest.failf "%s: analyzer and evaluator disagree" path)
    paths

(* A live freeze/hide subtree beside an edit is reused, and the
   incremental module is byte-identical to a from-scratch build in a
   fresh server. *)
let test_hidden_subtree_reuse () =
  let source tail =
    Printf.sprintf
      "(merge (freeze \"^zz$\" /t/ra.o) (freeze \"^bb$\" /t/rb.o) (hide \"^cc$\" \
       (merge /t/rc.o /t/rcu.o)) %s)"
      tail
  in
  let install s =
    Omos.Server.add_fragment s "/t/ra.o" (asm_obj "/t/ra.o" [ ("ra", None) ]);
    Omos.Server.add_fragment s "/t/rb.o"
      (asm_obj "/t/rb.o" [ ("bb", None); ("bb_caller", Some "bb") ]);
    Omos.Server.add_fragment s "/t/rc.o" (asm_obj "/t/rc.o" [ ("cc", None) ]);
    Omos.Server.add_fragment s "/t/rcu.o" (asm_obj "/t/rcu.o" [ ("cc_user", Some "cc") ]);
    Omos.Server.add_fragment s "/t/rd.o" (asm_obj "/t/rd.o" [ ("dd", None) ]);
    Omos.Server.add_fragment s "/t/re.o" (asm_obj "/t/re.o" [ ("ee", None) ])
  in
  (* world A: cold build fills the memo table, then an edited sibling *)
  let sa = server () in
  install sa;
  Omos.Server.register_meta_source sa "/t/rlib" (source "/t/rd.o");
  ignore (built sa "/t/rlib");
  Omos.Server.register_meta_source sa "/t/rlib" (source "/t/re.o");
  (match Omos.Server.impact_diff sa "/t/rlib" with
  | None -> Alcotest.fail "no impact diff after re-registration"
  | Some d ->
      List.iter
        (fun path ->
          match List.find_opt (fun v -> v.I.v_path = path) d.I.d_nodes with
          | Some { I.v_verdict = I.Reused _; _ } -> ()
          | _ -> Alcotest.failf "%s not reused" path)
        [ "merge[1].freeze"; "merge[2].hide" ]);
  let reused0 = Telemetry.Counter.get "impact.reused" in
  let incremental = built sa "/t/rlib" in
  Alcotest.(check bool) "memo served the reused subtrees" true
    (Telemetry.Counter.get "impact.reused" - reused0 >= 3);
  (* world B: the edited blueprint from scratch, reuse off *)
  let sb = server () in
  Omos.Server.set_subtree_reuse sb false;
  install sb;
  Omos.Server.register_meta_source sb "/t/rlib" (source "/t/re.o");
  Alcotest.(check (pair (list string) string))
    "incremental = from scratch (aliases included)" (built sb "/t/rlib")
    incremental;
  Alcotest.(check bool) "minted alias present" true
    (List.exists
       (fun n -> Astring.String.is_prefix ~affix:"bb$frz" n)
       (fst incremental))

(* every Reused verdict over a fuzzed single-edit pair materializes
   byte-identically — the proof obligation discharged over the same
   edit distribution the incremental-relink oracle replays *)
let prop_edit_pairs_reused_byte_identical =
  QCheck.Test.make ~name:"fuzzed edit pairs: reused nodes byte-identical"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Workloads.Fuzz.generate ~max_modules:8 ~max_libs:4 ~seed () in
      match Workloads.Fuzz.mutate ~seed c with
      | None -> true
      | Some (c', _edit) ->
          let w = Omos.World.create () in
          let s = w.Omos.World.server in
          Omos.Fuzzer.install c w;
          let changed =
            List.filter
              (fun ((a : Workloads.Fuzz.libdef), b) -> a <> b)
              (List.combine c.Workloads.Fuzz.f_libs c'.Workloads.Fuzz.f_libs)
          in
          changed <> []
          && List.for_all
               (fun ((lold : Workloads.Fuzz.libdef), lnew) ->
                 let path = Workloads.Fuzz.lib_path lold in
                 let resolve = Omos.Server.resolve_graph s in
                 let graph () =
                   Blueprint.Meta.effective_graph
                     (Omos.Server.find_meta s path) ~spec:None
                 in
                 let old_tree = I.analyze ~resolve (graph ()) in
                 Omos.Server.register_meta_source s path
                   (Workloads.Fuzz.meta_source lnew);
                 let new_tree = I.analyze ~resolve (graph ()) in
                 let d = I.diff ~old_tree ~new_tree in
                 let eval n = (Omos.Server.eval s n).Blueprint.Mgraph.m in
                 let vo = I.verify ~eval ~old_tree ~new_tree d in
                 vo.I.vo_failures = [])
               changed)

let () =
  Alcotest.run "analysis"
    [
      ( "codes",
        [
          Alcotest.test_case "E001 unresolved-at-root" `Quick
            test_e001_unresolved_at_root;
          Alcotest.test_case "E002 duplicate-global" `Quick
            test_e002_duplicate_global;
          Alcotest.test_case "E003 rename-collision" `Quick
            test_e003_rename_collision;
          Alcotest.test_case "E004 conflicting-constraints" `Quick
            test_e004_conflicting_constraints;
          Alcotest.test_case "E005 unknown+cycle" `Quick
            test_e005_unknown_and_cycle;
          Alcotest.test_case "E006 invalid-selector" `Quick
            test_e006_invalid_selector;
          Alcotest.test_case "E007 source errors" `Quick test_e007_source_errors;
          Alcotest.test_case "E008 malformed graph" `Quick
            test_e008_malformed_graph;
          Alcotest.test_case "W101 dead selectors" `Quick
            test_w101_dead_selectors;
          Alcotest.test_case "W102 override nothing" `Quick
            test_w102_override_overrides_nothing;
          Alcotest.test_case "W103 refreeze" `Quick test_w103_refreeze;
          Alcotest.test_case "W104 shadowed weak" `Quick test_w104_shadowed_weak;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "verify all world metas" `Quick
            test_verify_all_world_metas;
          Alcotest.test_case "evaluation order" `Quick test_evaluation_order;
          Alcotest.test_case "analysis is free" `Quick test_analysis_is_free;
        ] );
      ( "registration",
        [
          Alcotest.test_case "counters + provenance" `Quick
            test_registration_counters_and_provenance;
        ] );
      ( "impact",
        [
          Alcotest.test_case "digests + stability" `Quick
            test_impact_digests_and_stability;
          Alcotest.test_case "diff verdicts + verify" `Quick
            test_impact_diff_verdicts;
          Alcotest.test_case "hide/freeze subtree reuse" `Quick
            test_hidden_subtree_reuse;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_dead_restrict_noop;
          QCheck_alcotest.to_alcotest prop_dead_hide_noop;
          QCheck_alcotest.to_alcotest prop_edit_pairs_reused_byte_identical;
        ] );
    ]
