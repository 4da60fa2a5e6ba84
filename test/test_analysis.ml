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

(* -- merge conflicts, pinned ----------------------------------------------------- *)

(* [mk last]'s findings, rendered, from a walk that keeps nothing and
   from a kept re-walk: the graph is first walked with an unrelated
   leaf in [last]'s place, then with [last], so the re-walk replays
   the siblings and walks the spine above [last]. Both must read
   [expected]. *)
let check_findings ~what (mk : Mg.node -> Mg.node) (last : Mg.node)
    (expected : string list) =
  let render (r : L.report) = List.map L.finding_to_string r.L.findings in
  Alcotest.(check (list string)) (what ^ ", walked") expected
    (render (analyze (mk last)));
  let first =
    L.rewalk ~resolve:no_resolve ~prev:None
      (mk (Mg.Leaf (obj "/t/edit.o" [ ("edit", Sof.Symbol.Global) ])))
  in
  let w =
    L.rewalk ~resolve:no_resolve ~prev:(Some (first.L.root, first.L.report)) (mk last)
  in
  Alcotest.(check bool) (what ^ ", siblings replayed") true (w.L.replayed > 0);
  Alcotest.(check (list string)) (what ^ ", re-walked") expected (render w.L.report)

let g_ = Sof.Symbol.Global
let w_ = Sof.Symbol.Weak
let leaf name syms = Mg.Leaf (obj name syms)
let e002 path name a b syms =
  Printf.sprintf
    "E002 duplicate-global-in-merge at %s: duplicate global definition of %s \
     (in %s and %s) [%s]"
    path name a b syms

let w104 path syms =
  "W104 shadowed-weak-definition at " ^ path
  ^ ": weak definition permanently shadowed by a global definition of the \
     same name [" ^ syms ^ "]"

let test_e002_pinned () =
  check_findings ~what:"3 operands"
    (fun last -> Mg.Merge [ leaf "/t/a.o" [ ("f", g_) ]; leaf "/t/b.o" [ ("g", g_) ]; last ])
    (leaf "/t/c.o" [ ("f", g_) ])
    [ e002 "merge" "f" "/t/a.o" "/t/c.o" "f" ];
  (* the first duplicate found names the message, every one the symbols *)
  check_findings ~what:"4 operands"
    (fun last ->
      Mg.Merge
        [ leaf "/t/a.o" [ ("f", g_); ("g", g_) ]; leaf "/t/b.o" [ ("g", g_) ];
          leaf "/t/c.o" [ ("h", g_) ]; last ])
    (leaf "/t/d.o" [ ("f", g_); ("h", g_) ])
    [ e002 "merge" "g" "/t/a.o" "/t/b.o" "f, g, h" ];
  (* a third definition names the first two *)
  check_findings ~what:"three definitions"
    (fun last ->
      Mg.Merge [ leaf "/t/a.o" [ ("f", g_) ]; leaf "/t/b.o" [ ("f", g_) ];
                 leaf "/t/c.o" [ ("k", g_) ]; last ])
    (leaf "/t/d.o" [ ("f", g_) ])
    [ e002 "merge" "f" "/t/a.o" "/t/b.o" "f" ];
  (* f is duplicated inside operand 0, which reports it; the parent
     reports only what it creates, though a third f arrives there *)
  check_findings ~what:"within one operand"
    (fun last ->
      Mg.Merge
        [ Mg.Merge [ leaf "/t/x.o" [ ("f", g_) ]; leaf "/t/y.o" [ ("f", g_) ] ];
          leaf "/t/u.o" [ ("f", g_) ]; leaf "/t/z.o" [ ("g", g_) ]; last ])
    (leaf "/t/w.o" [ ("g", g_) ])
    [ e002 "merge[0].merge" "f" "/t/x.o" "/t/y.o" "f";
      e002 "merge" "g" "/t/z.o" "/t/w.o" "g" ];
  (* an override drops the left operand's definitions of what the right
     exports: its operands' own duplicates are reported once, by them *)
  check_findings ~what:"override"
    (fun last ->
      Mg.Override
        ( Mg.Merge [ leaf "/t/x.o" [ ("f", g_); ("g", g_) ]; leaf "/t/y.o" [ ("g", g_) ] ],
          Mg.Merge [ leaf "/t/p.o" [ ("f", g_) ]; leaf "/t/q.o" [ ("h", g_) ]; last ] ))
    (leaf "/t/r.o" [ ("h", g_) ])
    [ e002 "override[0].merge" "g" "/t/x.o" "/t/y.o" "g";
      e002 "override[1].merge" "h" "/t/q.o" "/t/r.o" "h" ]

let test_w104_pinned () =
  check_findings ~what:"weak first"
    (fun last ->
      Mg.Merge [ leaf "/t/w.o" [ ("f", w_); ("k", w_) ]; leaf "/t/m.o" [ ("g", g_) ]; last ])
    (leaf "/t/s.o" [ ("k", g_); ("f", g_) ])
    [ w104 "merge" "f, k" ];
  check_findings ~what:"global first"
    (fun last -> Mg.Merge [ leaf "/t/s.o" [ ("f", g_) ]; leaf "/t/m.o" [ ("g", g_) ]; last ])
    (leaf "/t/w.o" [ ("f", w_) ])
    [ w104 "merge" "f" ];
  (* a weak and a global definition inside one operand shadow there,
     not again at the parent *)
  check_findings ~what:"within one operand"
    (fun last ->
      Mg.Merge
        [ Mg.Merge [ leaf "/t/w.o" [ ("f", w_) ]; leaf "/t/s.o" [ ("f", g_) ] ];
          leaf "/t/m.o" [ ("g", g_) ]; last ])
    (leaf "/t/n.o" [ ("h", g_) ])
    [ w104 "merge[0].merge" "f" ];
  (* at one node, E002 comes before W104 *)
  check_findings ~what:"with E002"
    (fun last -> Mg.Merge [ leaf "/t/a.o" [ ("f", g_) ]; leaf "/t/w.o" [ ("k", w_) ]; last ])
    (leaf "/t/b.o" [ ("f", g_); ("k", g_) ])
    [ e002 "merge" "f" "/t/a.o" "/t/b.o" "f"; w104 "merge" "k" ]

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
  Alcotest.(check string) "digest deterministic" r1.L.i_digest r2.L.i_digest;
  Alcotest.(check bool) "plain merge holds anywhere" false r1.L.i_keyed;
  Alcotest.(check int) "two children" 2 (List.length r1.L.i_children);
  (* content-addressed: same shape, different leaf content *)
  let b' = obj "/t/ib.o" [ ("h", Sof.Symbol.Global) ] in
  let r3 = iroot (Mg.Merge [ Mg.Leaf a; Mg.Leaf b' ]) in
  Alcotest.(check bool) "content moves the digest" true
    (r1.L.i_digest <> r3.L.i_digest);
  (* a live freeze mints aliases named after its occurrence: its digest
     is keyed, and the same freeze elsewhere is another interface *)
  let rf = iroot (Mg.Freeze ("^f$", Mg.Leaf a)) in
  Alcotest.(check bool) "live freeze keyed" true rf.L.i_keyed;
  let nested = List.hd (iroot (Mg.Merge [ Mg.Freeze ("^f$", Mg.Leaf a) ])).L.i_children in
  Alcotest.(check bool) "occurrence moves a keyed digest" true
    (nested.L.i_digest <> rf.L.i_digest);
  (* a dead freeze mints nothing: its digest holds anywhere *)
  let rd = iroot (Mg.Freeze ("^zz", Mg.Leaf a)) in
  Alcotest.(check bool) "dead freeze unkeyed" false rd.L.i_keyed;
  let nested = List.hd (iroot (Mg.Merge [ Mg.Freeze ("^zz", Mg.Leaf a) ])).L.i_children in
  Alcotest.(check string) "unkeyed digest holds anywhere" rd.L.i_digest
    nested.L.i_digest;
  (* an unresolvable name leaves the spine above it unmodeled *)
  let t = ianalyze (Mg.Merge [ Mg.Leaf a; Mg.Name "/no/such" ]) in
  Alcotest.(check (list string)) "reported" [ "E005" ] (codes t.I.t_report);
  Alcotest.(check bool) "root unmodeled" false t.I.t_root.L.i_modeled

(* A name that does not resolve digests alike whether or not the walk
   keyed anything before it. *)
let test_impact_digest_walk_order () =
  let o = obj "/t/io.o" [ ("f", Sof.Symbol.Global) ] in
  let nth g k = (List.nth (iroot g).L.i_children k).L.i_digest in
  Alcotest.(check string) "first or last operand"
    (nth (Mg.Merge [ Mg.Leaf o; Mg.Name "/no/such" ]) 1)
    (nth (Mg.Merge [ Mg.Name "/no/such"; Mg.Leaf o ]) 0)

(* An analyzer that fails inside ([resolve] raises) reports E999 and
   an approximate report instead of raising, from a walk that keeps
   nothing and from a kept re-walk of a previous tree alike; the kept
   walk's root then stands alone and unmodeled, so the memo never
   answers through it. *)
let test_e999_analyzer_internal_error () =
  let a = obj "/t/ea.o" [ ("f", Sof.Symbol.Global) ] in
  let b = obj "/t/eb.o" [ ("g", Sof.Symbol.Global) ] in
  let g = Mg.Merge [ Mg.Leaf a; Mg.Name "/t/eb" ] in
  let raising _ = failwith "resolver down" in
  let r = L.analyze ~resolve:raising g in
  Alcotest.(check (list string)) "E999 reported" [ "E999" ] (codes r);
  Alcotest.(check string) "its title" "analyzer-internal-error"
    (find_code r "E999").L.title;
  Alcotest.(check bool) "approximate" true r.L.approximate;
  let prev = I.analyze ~resolve:(fun _ -> Ok (Mg.Leaf b)) g in
  let t, _ = I.reanalyze ~resolve:raising ~prev:(Some prev) g in
  Alcotest.(check bool) "kept re-walk: the same report" true (t.I.t_report = r);
  Alcotest.(check bool) "root unmodeled" false t.I.t_root.L.i_modeled;
  Alcotest.(check int) "root without operands" 0
    (List.length t.I.t_root.L.i_children)

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

(* The memo is answered through the registration trees and nowhere
   else: past a name, through what the name resolves to now (the
   namer's tree holds the nodes of the named meta's earlier
   registration), at the root of a re-registered meta (its tree's root
   info holds its earlier graph) and of a meta with a constraint list
   (its graph is made once), and not for a graph no registration
   analyzed. *)
let test_memo_through_trees () =
  let s = server () in
  let reused () = Telemetry.Counter.get "impact.reused"
  and respun () = Telemetry.Counter.get "impact.respun" in
  Omos.Server.add_fragment s "/t/ma.o" (asm_obj "/t/ma.o" [ ("ma", None) ]);
  Omos.Server.add_fragment s "/t/mb.o" (asm_obj "/t/mb.o" [ ("mb", None) ]);
  Omos.Server.add_fragment s "/t/mc.o" (asm_obj "/t/mc.o" [ ("mc", None) ]);
  let a_src = "(merge (restrict \"^m\" /t/ma.o) /t/mb.o)" in
  Omos.Server.register_meta_source s "/t/ma" a_src;
  Omos.Server.register_meta_source s "/t/mnamer" "(merge /t/mc.o /t/ma)";
  ignore (built s "/t/ma");
  Omos.Server.register_meta_source s "/t/ma" a_src;
  let r0 = reused () in
  ignore (Omos.Server.build s (Omos.Server.library "/t/mnamer"));
  Alcotest.(check int) "the named meta's subtree reused" 1 (reused () - r0);
  let r0 = reused () in
  ignore (built s "/t/ma");
  Alcotest.(check int) "the re-registered root reused" 1 (reused () - r0);
  let libc = meta_graph s "/lib/libc" in
  ignore (Omos.Server.eval s libc);
  let r0 = reused () and s0 = respun () in
  ignore (Omos.Server.eval s libc);
  Alcotest.(check (pair int int)) "constrained root reused, nothing respun"
    (1, 0)
    (reused () - r0, respun () - s0);
  let fresh =
    Blueprint.Meta.effective_graph
      (Blueprint.Meta.parse ~name:"/lib/libc" Omos.World.libc_meta_source)
      ~spec:None
  in
  let r0 = reused () and s0 = respun () in
  ignore (Omos.Server.eval s fresh);
  Alcotest.(check (pair int int)) "a fresh parse bypasses the memo" (0, 0)
    (reused () - r0, respun () - s0)

(* A fragment rebound between registrations: the rebind refreshes the
   trees, so the memo answers for what the path holds now at once, with
   no registration in between. *)
let test_memo_after_rebind () =
  let s = server () in
  let exports () =
    Jigsaw.Module_ops.exports
      (Omos.Server.eval s (meta_graph s "/t/plib")).Blueprint.Mgraph.m
  in
  Omos.Server.add_fragment s "/t/pf.o" (asm_obj "/t/pf.o" [ ("old_fn", None) ]);
  Omos.Server.add_fragment s "/t/pg.o" (asm_obj "/t/pg.o" [ ("g", None) ]);
  Omos.Server.register_meta_source s "/t/plib" "(merge (merge /t/pf.o) /t/pg.o)";
  Alcotest.(check (list string)) "registered" [ "g"; "old_fn" ] (exports ());
  Omos.Server.add_fragment s "/t/pf.o" (asm_obj "/t/pf.o" [ ("new_fn", None) ]);
  Alcotest.(check (list string)) "rebound" [ "g"; "new_fn" ] (exports ());
  let r0 = Telemetry.Counter.get "impact.reused" in
  Alcotest.(check (list string)) "again" [ "g"; "new_fn" ] (exports ());
  Alcotest.(check int) "the memo answers the new content" 1
    (Telemetry.Counter.get "impact.reused" - r0)

(* -- registration: every report fresh, kept walks exact ------------------------ *)

(* A meta registered before a name it reaches gets its report refreshed
   when that name is bound: the E005 it once had does not outlive the
   binding, and only the registered path feeds the finding counters. *)
let test_registration_refreshes_every_report () =
  let s = server () in
  Omos.Server.add_fragment s "/t/x.o" (asm_obj "/t/x.o" [ ("fx", Some "fy") ]);
  Omos.Server.add_fragment s "/t/y.o" (asm_obj "/t/y.o" [ ("fy", None) ]);
  let errs0 = Telemetry.Counter.get "lint.errors" in
  Omos.Server.register_meta_source s "/t/a" "(merge /t/x.o /t/b)";
  Alcotest.(check int) "E005 counted at /t/a" (errs0 + 1)
    (Telemetry.Counter.get "lint.errors");
  Omos.Server.register_meta_source s "/t/b" "(merge /t/y.o)";
  Alcotest.(check int) "only the registered path counts" (errs0 + 1)
    (Telemetry.Counter.get "lint.errors");
  (match Omos.Server.lint_report s "/t/a" with
  | None -> Alcotest.fail "no lint report for /t/a"
  | Some r ->
      Alcotest.(check (list string)) "no stale E005" [] (codes r);
      Alcotest.(check (list string)) "exports" [ "fx"; "fy" ] r.L.exports;
      Alcotest.(check (list string)) "undefined" [] r.L.undefined);
  let resp = Omos.Server.instantiate s (Omos.Server.library "/t/a") in
  Alcotest.(check bool) "instantiates" false resp.Omos.Server.cache_hit

(* A meta path rebound to a fragment keeps no analysis from the rebind
   on. *)
let test_registration_drops_rebound_path () =
  let s = server () in
  Omos.Server.add_fragment s "/t/rx.o" (asm_obj "/t/rx.o" [ ("rx", None) ]);
  Omos.Server.register_meta_source s "/t/rmeta" "(merge /t/rx.o)";
  Omos.Server.add_fragment s "/t/rmeta" (asm_obj "/t/rmeta" [ ("ry", None) ]);
  Alcotest.(check bool) "no lint report" true
    (Omos.Server.lint_report s "/t/rmeta" = None);
  Alcotest.(check bool) "no impact tree" true
    (Omos.Server.impact_tree s "/t/rmeta" = None)

let walked s = (Omos.Server.stats s).Omos.Server.nodes_walked
let replayed s = (Omos.Server.stats s).Omos.Server.subtrees_replayed

(* metas other than the one re-registered: each is replayed at its root *)
let others s =
  List.length (Omos.Namespace.all_metas (Omos.Server.namespace s)) - 1

(* pre-order (path, digest, modeled, keyed), and the digest of the node
   itself: a replayed info must describe the node's construction *)
let rows (t : I.tree) : string list =
  let out = ref [] in
  I.iter_infos
    (fun i ->
      out :=
        Printf.sprintf "%s %s %b %b %s" i.L.i_path i.L.i_digest i.L.i_modeled
          i.L.i_keyed (Mg.digest i.L.i_node)
        :: !out)
    t;
  List.rev !out

(* What registration concluded equals a walk from scratch and a fresh
   server's conclusions. *)
let check_fresh ~what s fresh paths =
  List.iter
    (fun p ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s as in a fresh server" what p)
        (Omos.Fuzzer.analysis_sig fresh p)
        (Omos.Fuzzer.analysis_sig s p);
      let resolve = Omos.Server.resolve_graph s in
      let tree = I.analyze ~resolve (meta_graph s p)
      and report = L.analyze ~resolve (meta_graph s p) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s report as from scratch" what p)
        true
        (Omos.Server.lint_report s p = Some report && tree.I.t_report = report);
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s tree as from scratch" what p)
        (rows tree)
        (rows (Option.get (Omos.Server.impact_tree s p))))
    paths

(* A fragment rebound at its path under an unchanged meta text: the
   rebind refreshes the analysis, which walks the spine down to it and
   replays its siblings with their findings (a dead restrict's W101) and
   the names they defined (E001 reports k5, which only a replayed
   subtree ever defined). *)
let test_kept_walk_rebound_fragment () =
  let src group =
    Printf.sprintf
      "(restrict \"^k1$\" (merge %s (hide \"^k3$\" (merge /t/k3.o /t/k3u.o)) \
       (restrict \"^zz\" /t/k4.o) (restrict \"^k5$\" /t/k5.o)))"
      group
  in
  let k2 s name =
    Omos.Server.add_fragment s "/t/k2.o" (asm_obj "/t/k2.o" [ (name, Some "k1") ])
  in
  let install s =
    Omos.Server.add_fragment s "/t/k1.o" (asm_obj "/t/k1.o" [ ("k1", None) ]);
    Omos.Server.add_fragment s "/t/k3.o" (asm_obj "/t/k3.o" [ ("k3", None) ]);
    Omos.Server.add_fragment s "/t/k3u.o"
      (asm_obj "/t/k3u.o" [ ("k3_user", Some "k3") ]);
    Omos.Server.add_fragment s "/t/k4.o" (asm_obj "/t/k4.o" [ ("k4", None) ]);
    Omos.Server.add_fragment s "/t/k5.o"
      (asm_obj "/t/k5.o" [ ("k5", None); ("k5_user", Some "k5") ])
  in
  let s = server () in
  install s;
  k2 s "k2";
  Omos.Server.register_meta_source s "/t/klib" (src "(merge /t/k1.o /t/k2.o)");
  let w0 = walked s and r0 = replayed s in
  k2 s "k2b";
  (* the restrict, the merge, merge[0], the rebound name and its leaf *)
  Alcotest.(check int) "spine walked" 5 (walked s - w0);
  (* /t/k1.o, the live hide, both restricts, and every other meta at its
     root *)
  Alcotest.(check int) "siblings replayed" (4 + others s) (replayed s - r0);
  let r = Option.get (Omos.Server.lint_report s "/t/klib") in
  Alcotest.(check (list string)) "replayed findings kept" [ "W101"; "E001" ]
    (codes r);
  Alcotest.(check (list string)) "names defined in replayed subtrees"
    [ "k1"; "k5" ] (find_code r "E001").L.symbols;
  let fresh = server () in
  install fresh;
  k2 fresh "k2b";
  Omos.Server.register_meta_source fresh "/t/klib" (src "(merge /t/k1.o /t/k2.o)");
  check_fresh ~what:"rebound fragment" s fresh [ "/t/klib" ];
  (* the same operands grouped into a list: the walk is the same, the
     node's construction is not *)
  let regrouped = src "(merge /t/k1.o (list /t/k2.o))" in
  Omos.Server.register_meta_source s "/t/klib" regrouped;
  Omos.Server.register_meta_source fresh "/t/klib" regrouped;
  check_fresh ~what:"regrouped" s fresh [ "/t/klib" ]

(* A live hide moved to another merge index keeps its content key but
   not its path: it is walked again, and its aliases name the new
   occurrence. So are they when an operator above it changes and the
   hide stays at its operand position. *)
let test_kept_walk_moved_hide () =
  let install s =
    Omos.Server.add_fragment s "/t/h.o"
      (asm_obj "/t/h.o" [ ("h", None); ("h_user", Some "h") ]);
    Omos.Server.add_fragment s "/t/m.o" (asm_obj "/t/m.o" [ ("m", None) ])
  in
  let moved = "(merge /t/m.o (hide \"^h$\" /t/h.o))" in
  let s = server () in
  install s;
  Omos.Server.register_meta_source s "/t/hlib" "(merge (hide \"^h$\" /t/h.o) /t/m.o)";
  let w0 = walked s and r0 = replayed s in
  Omos.Server.register_meta_source s "/t/hlib" moved;
  (* every node moved: root, hide, and two names with their leaves *)
  Alcotest.(check int) "moved subtree walked" 6 (walked s - w0);
  Alcotest.(check int) "only other metas replayed" (others s) (replayed s - r0);
  let defined =
    Analysis.Symflow.defined_any
      (Option.get (Omos.Server.impact_tree s "/t/hlib")).I.t_root.L.i_flow
  in
  let alias path = "h$hid" ^ Mg.occurrence_key path in
  Alcotest.(check bool) "alias of the new occurrence" true
    (List.mem (alias "merge[1].hide") defined);
  Alcotest.(check bool) "no alias of the old occurrence" false
    (List.mem (alias "merge[0].hide") defined);
  let fresh = server () in
  install fresh;
  Omos.Server.register_meta_source fresh "/t/hlib" moved;
  check_fresh ~what:"moved hide" s fresh [ "/t/hlib" ];
  Alcotest.(check (pair (list string) string))
    "built as in a fresh server" (built fresh "/t/hlib") (built s "/t/hlib");
  let overridden = "(override /t/m.o (hide \"^h$\" /t/h.o))" in
  let w0 = walked s in
  Omos.Server.register_meta_source s "/t/hlib" overridden;
  Alcotest.(check int) "renamed parent: everything walked" 6 (walked s - w0);
  Omos.Server.register_meta_source fresh "/t/hlib" overridden;
  check_fresh ~what:"renamed parent" s fresh [ "/t/hlib" ]

(* Re-registering /t/c2 over a reference back to /t/c1 closes a cycle
   that /t/c1's unchanged text now reaches. *)
let test_kept_walk_name_becomes_cyclic () =
  let install s =
    Omos.Server.add_fragment s "/t/c.o" (asm_obj "/t/c.o" [ ("c", None) ]);
    Omos.Server.add_fragment s "/t/d.o" (asm_obj "/t/d.o" [ ("d", None) ]);
    Omos.Server.register_meta_source s "/t/c1" "(merge /t/c.o /t/c2)"
  in
  let s = server () in
  install s;
  Omos.Server.register_meta_source s "/t/c2" "(merge /t/d.o)";
  Omos.Server.register_meta_source s "/t/c2" "(merge /t/d.o /t/c1)";
  (match Omos.Server.lint_report s "/t/c1" with
  | Some r ->
      Alcotest.(check bool) "cycle reported" true
        (List.exists
           (fun (f : L.finding) ->
             f.L.code = "E005"
             && Astring.String.is_infix ~affix:"cyclic" f.L.message)
           r.L.findings)
  | None -> Alcotest.fail "no lint report for /t/c1");
  let fresh = server () in
  install fresh;
  Omos.Server.register_meta_source fresh "/t/c2" "(merge /t/d.o /t/c1)";
  check_fresh ~what:"cycle" s fresh [ "/t/c1"; "/t/c2" ]

(* A name that did not resolve at the first registration fails
   differently at the second (a directory now: binding a fresh path
   below it refreshes nothing), and resolves once the directory is
   rebound, though the meta text is the same. *)
let test_kept_walk_name_becomes_resolvable () =
  let src = "(merge /t/u.o /t/later)" in
  let u s =
    Omos.Server.add_fragment s "/t/u.o" (asm_obj "/t/u.o" [ ("u", Some "later_fn") ])
  in
  let later s =
    Omos.Server.add_fragment s "/t/later" (asm_obj "/t/later" [ ("later_fn", None) ])
  in
  let e005 s =
    List.filter_map
      (fun (f : L.finding) -> if f.L.code = "E005" then Some f.L.message else None)
      (Option.get (Omos.Server.lint_report s "/t/ulib")).L.findings
  in
  let s = server () in
  u s;
  Omos.Server.register_meta_source s "/t/ulib" src;
  Alcotest.(check (list string)) "unknown" [ "unknown server object /t/later" ]
    (e005 s);
  Omos.Server.add_fragment s "/t/later/x.o" (asm_obj "/t/later/x.o" [ ("x", None) ]);
  Omos.Server.register_meta_source s "/t/ulib" src;
  Alcotest.(check (list string)) "a directory now" [ "/t/later is a directory" ]
    (e005 s);
  let w0 = walked s and r0 = replayed s in
  later s;
  (* the root, and the name with its new leaf *)
  Alcotest.(check int) "spine walked" 3 (walked s - w0);
  Alcotest.(check int) "/t/u.o and other metas replayed" (1 + others s)
    (replayed s - r0);
  let fresh = server () in
  u fresh;
  later fresh;
  Omos.Server.register_meta_source fresh "/t/ulib" src;
  check_fresh ~what:"resolvable" s fresh [ "/t/ulib" ]

(* Two parameter pairs that a separator-joined rendering confuses:
   ("^f", ":g") copies f as ":g", ("^f:", "g") selects nothing. The
   second registration must walk the copy again, not replay the first
   one's analysis. *)
let test_kept_walk_ambiguous_parameters () =
  let install s =
    Omos.Server.add_fragment s "/t/x.o" (asm_obj "/t/x.o" [ ("f", None); ("g", None) ])
  in
  let second = "(copy_as \"^f:\" \"g\" /t/x.o)" in
  let s = server () in
  install s;
  Omos.Server.register_meta_source s "/t/lib" "(copy_as \"^f\" \":g\" /t/x.o)";
  Alcotest.(check (list string)) "first copies f" [ ":g"; "f"; "g" ]
    (Option.get (Omos.Server.lint_report s "/t/lib")).L.exports;
  Omos.Server.register_meta_source s "/t/lib" second;
  Alcotest.(check (list string)) "second copies nothing" [ "f"; "g" ]
    (Option.get (Omos.Server.lint_report s "/t/lib")).L.exports;
  let fresh = server () in
  install fresh;
  Omos.Server.register_meta_source fresh "/t/lib" second;
  check_fresh ~what:"ambiguous parameters" s fresh [ "/t/lib" ]

(* A name swapped for another bound to the very same object: the two
   reach equal content, but a content key holds a name's path, so the
   root is walked again and the tree names the new path. *)
let test_kept_walk_swapped_name () =
  let install s =
    let o = asm_obj "/t/n.o" [ ("n", None) ] in
    Omos.Server.add_fragment s "/t/n1.o" o;
    Omos.Server.add_fragment s "/t/n2.o" o;
    Omos.Server.add_fragment s "/t/q.o" (asm_obj "/t/q.o" [ ("q", None) ])
  in
  let swapped = "(merge /t/n2.o /t/q.o)" in
  let s = server () in
  install s;
  Omos.Server.register_meta_source s "/t/nlib" "(merge /t/n1.o /t/q.o)";
  let w0 = walked s in
  Omos.Server.register_meta_source s "/t/nlib" swapped;
  (* the root, and the new name with its leaf *)
  Alcotest.(check int) "root and the new name walked" 3 (walked s - w0);
  let fresh = server () in
  install fresh;
  Omos.Server.register_meta_source fresh "/t/nlib" swapped;
  check_fresh ~what:"swapped name" s fresh [ "/t/nlib" ]

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

(* -- the named digests against a count from the trees ---------------------- *)

module Fz = Workloads.Fuzz

(* The memo keys the bound metas' trees name, counted afresh: one per
   fully modeled non-leaf node of each bound meta's tree. *)
let reference_named s : (string * int) list =
  let named = Hashtbl.create 64 in
  List.iter
    (fun p ->
      match Omos.Server.impact_tree s p with
      | None -> ()
      | Some tree ->
          I.iter_infos
            (fun i ->
              match i.L.i_node with
              | Mg.Leaf _ -> ()
              | _ when i.L.i_modeled ->
                  Hashtbl.replace named i.L.i_digest
                    (1 + Option.value (Hashtbl.find_opt named i.L.i_digest) ~default:0)
              | _ -> ())
            tree)
    (Omos.Namespace.all_metas (Omos.Server.namespace s));
  Hashtbl.fold (fun d n acc -> (d, n) :: acc) named [] |> List.sort compare

(* Register, then hold the named digests to the count, and the memo
   table to what it held before less the digests no longer named. *)
let register_checked s (ok : bool ref) path src =
  let memo0 = Omos.Server.memo_digests s in
  Omos.Server.register_meta_source s path src;
  let named = Omos.Server.named_digests s in
  ok :=
    !ok
    && named = reference_named s
    && Omos.Server.memo_digests s
       = List.filter (fun d -> List.mem_assoc d named) memo0

let compile_module (m : Fz.mdef) ~(path : string) =
  Minic.Driver.compile ~name:path (Fz.minic_source m)

(* A fuzzed edit sequence, every registration made through [register]:
   two paths bound to one object and a meta naming the first, a meta
   naming a path nothing is bound to, the case registered and built,
   each library under a wrapper that merges it alone (its nodes then
   sit at a second path), three edit pairs (the changed libraries
   re-registered, everything rebuilt), a module path rebound to another
   module's object, the name swapped to the second twin path, the
   unbound path made a directory, subtree reuse switched off (every
   tree walked afresh, so the swapped and the unresolved names are
   walked again beside the infos they replaced) and on, and a library
   path rebound to a fragment and then to its meta again. *)
let edit_sequence ~(register : Omos.Server.t -> string -> string -> unit) seed :
    unit =
  let c = Fz.generate ~max_modules:8 ~max_libs:5 ~seed () in
  let s = server () in
  let register_lib (l : Fz.libdef) =
    register s (Fz.lib_path l) (Fz.meta_source l)
  in
  let build_all (c : Fz.case) =
    List.iter
      (fun l ->
        try ignore (Omos.Server.instantiate s (Omos.Server.library (Fz.lib_path l)))
        with _ -> ())
      c.Fz.f_libs
  in
  List.iter
    (fun m ->
      let path = Fz.mod_path m in
      Omos.Server.add_fragment s path (compile_module m ~path))
    c.Fz.f_mods;
  let twin = asm_obj "/t/twin.o" [ ("twin", None) ] in
  Omos.Server.add_fragment s "/t/twin1.o" twin;
  Omos.Server.add_fragment s "/t/twin2.o" twin;
  register s "/t/twins" "(merge /t/twin1.o)";
  register s "/t/unresolved" "(merge /t/later)";
  List.iter register_lib c.Fz.f_libs;
  List.iteri
    (fun i l ->
      register s
        (Printf.sprintf "/t/wrap%d" i)
        (Printf.sprintf "(merge %s)" (Fz.lib_path l)))
    c.Fz.f_libs;
  build_all c;
  let c =
    List.fold_left
      (fun c k ->
        match Fz.mutate ~seed:(seed + k) c with
        | None -> c
        | Some (c', _) ->
            List.iter2
              (fun a b -> if a <> b then register_lib b)
              c.Fz.f_libs c'.Fz.f_libs;
            build_all c';
            c')
      c [ 0; 1; 2 ]
  in
  let first = List.hd c.Fz.f_libs
  and last = List.nth c.Fz.f_libs (List.length c.Fz.f_libs - 1) in
  (match c.Fz.f_mods with
  | m :: m' :: _ ->
      let path = Fz.mod_path m in
      Omos.Server.add_fragment s path (compile_module m' ~path);
      register_lib first;
      build_all c
  | _ -> ());
  register s "/t/twins" "(merge /t/twin2.o)";
  Omos.Server.add_fragment s "/t/later/x.o" twin;
  Omos.Server.set_subtree_reuse s false;
  register_lib first;
  Omos.Server.set_subtree_reuse s true;
  register_lib last;
  build_all c;
  Omos.Server.add_fragment s (Fz.lib_path last)
    (asm_obj (Fz.lib_path last) [ ("rebound", None) ]);
  register_lib first;
  register_lib last

let prop_named_matches_count =
  QCheck.Test.make ~name:"named digests = count from the trees" ~count:15
    ~long_factor:20 QCheck.(int_bound 10_000)
    (fun seed ->
      let ok = ref true in
      edit_sequence ~register:(fun s -> register_checked s ok) seed;
      !ok)

(* -- interface digest classes against a digest of the summaries ------------- *)

(* Length-prefixed items, concatenated: no two lists render alike. *)
let prefixed (xs : string list) : string =
  String.concat "" (List.map (fun x -> Printf.sprintf "%d:%s" (String.length x) x) xs)

(* Infos by physical identity: a subtree a kept walk replays is the
   previous tree's. *)
module Seen = Hashtbl.Make (struct
  type t = I.info

  let equal = ( == )
  let hash (i : I.info) = Hashtbl.hash i.L.i_digest
end)

(* The reference digest of an info: the own part (with a name's path,
   and for a name that does not resolve, why), the path of a keyed
   node, the operands' references and the rendered summary (all but the
   operator, which the own part covers). Where the construction did not
   fix the summary, the interface digests would join infos the
   reference keeps apart. [seen] holds the infos already referenced. *)
let rec reference (seen : string Seen.t) (i : I.info) : string =
  match Seen.find_opt seen i with
  | Some r -> r
  | None ->
      let s = I.summary i in
      let r =
        Digest.to_hex
          (Digest.string
             (prefixed
                [
                  (match i.L.i_node with
                  | Mg.Name p ->
                      prefixed
                        (Mg.own_part i.L.i_node :: p
                        :: (if i.L.i_children = [] then
                              List.map (fun (f : L.finding) -> f.L.message) i.L.i_findings
                            else []))
                  | n -> Mg.own_part n);
                  (if i.L.i_keyed then "keyed at " ^ i.L.i_path else "anywhere");
                  prefixed (List.map (reference seen) i.L.i_children);
                  prefixed (List.map (fun (n, b) -> prefixed [ n; b ]) s.I.s_exports);
                  prefixed s.I.s_undefined;
                  prefixed s.I.s_relocs;
                  prefixed s.I.s_frozen;
                  prefixed s.I.s_hidden;
                  prefixed s.I.s_prefs;
                ]))
      in
      Seen.replace seen i r;
      r

(* Over the edit sequences of the named-digest property, every info of
   every bound tree after every registration: two infos share an
   interface digest exactly when they share a reference digest. *)
let prop_digest_classes =
  QCheck.Test.make ~name:"interface digests = classes of the summary digests"
    ~count:15 ~long_factor:20 QCheck.(int_bound 10_000)
    (fun seed ->
      let seen = Seen.create 1024 in
      let register s path src =
        Omos.Server.register_meta_source s path src;
        List.iter
          (fun p ->
            Option.iter
              (fun t -> ignore (reference seen t.I.t_root))
              (Omos.Server.impact_tree s p))
          (Omos.Namespace.all_metas (Omos.Server.namespace s))
      in
      edit_sequence ~register seed;
      let by_digest = Hashtbl.create 256 and by_ref = Hashtbl.create 256 in
      let agrees tbl k v =
        match Hashtbl.find_opt tbl k with
        | Some v' -> String.equal v v'
        | None ->
            Hashtbl.replace tbl k v;
            true
      in
      Seen.fold
        (fun i r ok ->
          ok && agrees by_digest i.L.i_digest r && agrees by_ref r i.L.i_digest)
        seen true)

(* -- the memo answered through the registration trees ------------------------ *)

(* Stands in for the server's "lib-dynamic", which evaluates its operand
   and makes stubs from the result: this one evaluates its operand, then
   a graph of its own over it, at the operand's occurrence. *)
let own_graph_specializer : Mg.specializer =
 fun env _ x ->
  ignore (Mg.eval env (Mg.Merge [ Mg.Restrict (".", x) ]));
  Mg.eval env x

(* Evaluate [graph] as the server does, asking [tree] for the info of
   every node at every occurrence: each answer must have the node's
   construction and the occurrence's path. Returns whether all did, and
   how many answered. *)
let infos_at s (tree : I.tree) (graph : Mg.node) : bool * int =
  let resolve = Omos.Server.resolve_graph s in
  let env =
    Mg.make_env
      ~resolve:(fun p ->
        match resolve p with Ok g -> g | Error e -> raise (Mg.Eval_error e))
      ()
  in
  Mg.register env "lib-dynamic" own_graph_specializer;
  let ok = ref true and answered = ref 0 in
  let hook occ n eval =
    (match I.info_at ~resolve tree occ n with
    | None -> ()
    | Some i ->
        incr answered;
        if
          not
            (String.equal (Mg.digest i.L.i_node) (Mg.digest n)
            && String.equal i.L.i_path (Mg.path occ))
        then ok := false);
    eval ()
  in
  (try ignore (Mg.eval_memo env hook graph) with _ -> ());
  (!ok, !answered)

(* Every occurrence of the world's metas and of fuzzed libraries, once
   registered, again after an edit pair's kept re-walks, and again
   after an identical re-registration of a library another meta names
   (its trees then hold the nodes of its previous registration), with
   a meta over a "lib-dynamic" node: each answer describes the node
   evaluated where it was evaluated. The tree answers at the root of a
   meta with a constraint list, whose graph is made once, and somewhere
   under the specializer. *)
let prop_info_at =
  QCheck.Test.make ~name:"Impact.info_at answers its node" ~count:15
    ~long_factor:20 QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Fz.generate ~max_modules:8 ~max_libs:4 ~seed () in
      let w = Omos.World.create () in
      let s = w.Omos.World.server in
      Omos.Fuzzer.install c w;
      Omos.Server.register_meta_source s "/t/dyn"
        (Printf.sprintf "(merge (specialize \"lib-dynamic\" %s))"
           (Fz.lib_path (List.hd c.Fz.f_libs)));
      let all_answer_right () =
        List.for_all
          (fun p ->
            let tree = Option.get (Omos.Server.impact_tree s p) in
            fst (infos_at s tree (meta_graph s p)))
          (Omos.Namespace.all_metas (Omos.Server.namespace s))
      in
      let registered = all_answer_right () in
      let c =
        match Fz.mutate ~seed c with
        | None -> c
        | Some (c', _) ->
            List.iter2
              (fun a b ->
                if a <> b then
                  Omos.Server.register_meta_source s (Fz.lib_path b) (Fz.meta_source b))
              c.Fz.f_libs c'.Fz.f_libs;
            c'
      in
      let edited = all_answer_right () in
      let lib0 = List.hd c.Fz.f_libs in
      Omos.Server.register_meta_source s (Fz.lib_path lib0) (Fz.meta_source lib0);
      let reregistered = all_answer_right () in
      let libc = Option.get (Omos.Server.impact_tree s "/lib/libc") in
      let libc_graph = meta_graph s "/lib/libc" in
      registered && edited && reregistered
      && (match
            I.info_at ~resolve:(Omos.Server.resolve_graph s) libc
              [ (None, libc_graph) ] libc_graph
          with
         | Some i -> i == libc.I.t_root
         | None -> false)
      && snd (infos_at s (Option.get (Omos.Server.impact_tree s "/t/dyn"))
                (meta_graph s "/t/dyn")) > 0)

(* -- one own part ------------------------------------------------------------ *)

(* Parameters over the characters a separator-joined rendering would
   split on. *)
let gen_param : string QCheck.Gen.t =
  QCheck.Gen.(string_size ~gen:(oneofl [ ','; ':'; '('; ')'; '1'; '2' ]) (0 -- 3))

let own_leaves =
  lazy
    [| Mg.Leaf (obj "/t/own1.o" [ ("f", g_) ]); Mg.Leaf (obj "/t/own2.o" [ ("f", w_) ]) |]

let gen_operand : Mg.node QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Mg.Name p) gen_param;
        map (fun i -> (Lazy.force own_leaves).(i)) (0 -- 1);
      ])

(* Operand lists, some grouped into lists. *)
let gen_operands : Mg.node list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (0 -- 3)
      (frequency
         [
           (3, gen_operand);
           (1, map (fun xs -> Mg.Lst xs) (list_size (0 -- 2) gen_operand));
         ]))

let gen_value : Mg.value QCheck.Gen.t =
  QCheck.Gen.(
    sized_size (0 -- 2)
    @@ fix (fun self n ->
           let leaf =
             [
               map (fun s -> Mg.Vstr s) gen_param;
               map (fun k -> Mg.Vnum k) (0 -- 20);
               map (fun p -> Mg.Vnode (Mg.Name p)) gen_param;
             ]
           in
           if n = 0 then oneof leaf
           else
             oneof
               (map (fun vs -> Mg.Vlist vs) (list_size (0 -- 2) (self (n - 1)))
               :: leaf)))

let gen_own_node : Mg.node QCheck.Gen.t =
  let open QCheck.Gen in
  let p = gen_param and x = gen_operand in
  let unary f = map2 f p x in
  oneof
    [
      map (fun xs -> Mg.Merge xs) gen_operands;
      map (fun xs -> Mg.Lst xs) gen_operands;
      map2 (fun a b -> Mg.Override (a, b)) x x;
      map (fun x -> Mg.Initializers x) x;
      unary (fun p x -> Mg.Freeze (p, x));
      unary (fun p x -> Mg.Restrict (p, x));
      unary (fun p x -> Mg.Project (p, x));
      unary (fun p x -> Mg.Hide (p, x));
      unary (fun p x -> Mg.Show (p, x));
      map3 (fun p t x -> Mg.Copy_as (p, t, x)) p p x;
      map3
        (fun sc (p, t) x -> Mg.Rename (sc, p, t, x))
        (oneofl Jigsaw.Module_ops.[ Both; Defs_only; Refs_only ])
        (pair p p) x;
      map3 (fun st vs x -> Mg.Specialize (st, vs, x)) p (list_size (0 -- 3) gen_value) x;
      map3
        (fun seg a x -> Mg.Constrain (seg, a, x))
        (oneofl [ Mg.Seg_text; Mg.Seg_data ])
        (0 -- 20) x;
      map (fun p -> Mg.Name p) p;
      map2 (fun l t -> Mg.Source (l, t)) p p;
      gen_operand;
    ]

(* [(p, t)] with one character moved across the boundary between them:
   a rendering that joins the two with that character renders both
   pairs alike. *)
let shift (p, t) =
  let n = String.length p in
  if n > 0 then (String.sub p 0 (n - 1), String.make 1 p.[n - 1] ^ t)
  else if t <> "" then (String.sub t 0 1, String.sub t 1 (String.length t - 1))
  else (p, t)

(* A node beside [n] that a separator-joined rendering may confuse with
   it, or the node itself over other operands. *)
let twin (n : Mg.node) : Mg.node =
  let x = Mg.Name "/t/other" in
  match n with
  | Mg.Copy_as (p, t, _) ->
      let p, t = shift (p, t) in
      Mg.Copy_as (p, t, x)
  | Mg.Rename (sc, p, t, _) ->
      let p, t = shift (p, t) in
      Mg.Rename (sc, p, t, x)
  | Mg.Specialize (st, Mg.Vstr v :: vs, _) ->
      let st, v = shift (st, v) in
      Mg.Specialize (st, Mg.Vstr v :: vs, x)
  | Mg.Freeze (p, _) -> Mg.Freeze (p, x)
  | Mg.Hide (p, _) -> Mg.Hide (p, x)
  | Mg.Override (a, _) -> Mg.Override (a, x)
  | Mg.Merge xs -> Mg.Merge (List.map (function Mg.Lst _ as l -> l | _ -> x) xs)
  | n -> n

(* The node's operator and parameters: its operands replaced by one
   placeholder, their grouping into lists kept, a name's path dropped. *)
let rec strip (n : Mg.node) : Mg.node =
  let x = Mg.Name "_" in
  let operands = List.map (function Mg.Lst _ as l -> strip l | _ -> x) in
  match n with
  | Mg.Merge xs -> Mg.Merge (operands xs)
  | Mg.Lst xs -> Mg.Lst (operands xs)
  | Mg.Override _ -> Mg.Override (x, x)
  | Mg.Initializers _ -> Mg.Initializers x
  | Mg.Freeze (p, _) -> Mg.Freeze (p, x)
  | Mg.Restrict (p, _) -> Mg.Restrict (p, x)
  | Mg.Project (p, _) -> Mg.Project (p, x)
  | Mg.Hide (p, _) -> Mg.Hide (p, x)
  | Mg.Show (p, _) -> Mg.Show (p, x)
  | Mg.Copy_as (p, t, _) -> Mg.Copy_as (p, t, x)
  | Mg.Rename (sc, p, t, _) -> Mg.Rename (sc, p, t, x)
  | Mg.Specialize (st, vs, _) -> Mg.Specialize (st, vs, x)
  | Mg.Constrain (seg, a, _) -> Mg.Constrain (seg, a, x)
  | Mg.Name _ -> x
  | Mg.Leaf _ | Mg.Source _ -> n

(* Every pair of random nodes and their twins: [same_own] decides what
   comparing the rendered own parts decides, and equal own parts mean
   the same operator with the same parameters. *)
let prop_one_own_part =
  QCheck.Test.make ~count:300 ~long_factor:50 ~name:"Mgraph.own_part: one, unambiguous"
    (QCheck.make
       ~print:(fun ns ->
         String.concat " | " (List.map (fun n -> String.escaped (Mg.own_part n)) ns))
       QCheck.Gen.(
         map
           (List.concat_map (fun n -> [ n; twin n ]))
           (list_size (1 -- 6) gen_own_node)))
    (fun ns ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let same = String.equal (Mg.own_part a) (Mg.own_part b) in
              Mg.same_own a b = same && ((not same) || strip a = strip b))
            ns)
        ns)

(* Every pair of random nodes, their twins and their twins' twins (a
   twin and its own twin share their operands): equal digests mean the
   same construction. *)
let prop_digest_one_construction =
  QCheck.Test.make ~count:300 ~long_factor:50 ~name:"Mgraph.digest: one construction"
    (QCheck.make
       ~print:(fun ns ->
         String.concat " | "
           (List.map
              (fun n ->
                Printf.sprintf "%s over [%s]" (String.escaped (Mg.own_part n))
                  (String.concat "; " (Mg.names n)))
              ns))
       QCheck.Gen.(
         map
           (List.concat_map (fun n ->
                let t = twin n in
                [ n; t; twin t ]))
           (list_size (1 -- 6) gen_own_node)))
    (fun ns ->
      let ds = List.map (fun n -> (n, Mg.digest n)) ns in
      List.for_all
        (fun (a, da) -> List.for_all (fun (b, db) -> String.equal da db = (a = b)) ds)
        ds)

(* -- the interface sets against set-based references ------------------------ *)

module Sf = Analysis.Symflow
module S = Sf.S

let exported_binding = function
  | Sof.Symbol.Global -> Some "global"
  | Sof.Symbol.Weak -> Some "weak"
  | Sof.Symbol.Local -> None

(* The set computations the interface summaries were first written
   with: a set per fragment, set differences, polymorphic sorts. *)
let ref_undefined (m : Sf.t) : string list =
  let exported =
    S.of_list
      (List.concat_map
         (fun f ->
           List.filter_map
             (fun (n, b) -> Option.map (fun _ -> n) (exported_binding b))
             f.Sf.f_defs)
         m.Sf.frags)
  in
  List.sort_uniq compare
    (List.concat_map
       (fun f ->
         let own = S.of_list (List.map fst f.Sf.f_defs) in
         S.elements (S.diff (S.diff (S.union f.Sf.f_undefs f.Sf.f_relocs) own) exported))
       m.Sf.frags)

let ref_export_pairs (m : Sf.t) : (string * string) list =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (n, b) -> Option.map (fun s -> (n, s)) (exported_binding b))
        f.Sf.f_defs)
    m.Sf.frags
  |> List.sort compare

let ref_relocs (m : Sf.t) : string list =
  S.elements (List.fold_left (fun acc f -> S.union acc f.Sf.f_relocs) S.empty m.Sf.frags)

let flow_pool = [| "a"; "b"; "c"; "d"; "e" |]

(* A fragment as the items an assembler sees: definitions at every
   binding (a name may be defined twice), explicit undefined entries,
   and calls, which may reach the fragment's own locals. *)
type flow_item = Def of string * Sof.Symbol.binding | Extern of string | Call of string

let gen_flow_item : flow_item QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofa flow_pool in
  frequency
    [
      ( 3,
        map2
          (fun n b -> Def (n, b))
          name
          (oneofl [ Sof.Symbol.Global; Sof.Symbol.Weak; Sof.Symbol.Local ]) );
      (1, map (fun n -> Extern n) name);
      (2, map (fun n -> Call n) name);
    ]

let gen_flow_objects : flow_item list list QCheck.Gen.t =
  QCheck.Gen.(list_size (1 -- 4) (list_size (0 -- 6) gen_flow_item))

let flow_object i (items : flow_item list) : Sof.Object_file.t =
  let a = Sof.Asm.create (Printf.sprintf "/t/flow%d.o" i) in
  List.iter
    (function
      | Def (n, binding) ->
          Sof.Asm.label ~binding a n;
          Sof.Asm.instr a Svm.Isa.Ret
      | Extern n -> Sof.Asm.extern a n
      | Call n -> Sof.Asm.call a n)
    items;
  Sof.Asm.finish a

let print_flow_objects objs =
  String.concat " | "
    (List.map
       (fun items ->
         String.concat " "
           (List.map
              (function
                | Def (n, b) -> Printf.sprintf "%s:%s" n (Sof.Symbol.binding_to_string b)
                | Extern n -> "extern:" ^ n
                | Call n -> "call:" ^ n)
              items))
       objs)

(* Flows straight from the lattice's fields, including the shapes the
   operators leave behind: undefined entries and relocations that name
   the fragment's own definitions. *)
let gen_flow : Sf.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofa flow_pool in
  let names = map S.of_list (list_size (0 -- 4) name) in
  let frag =
    map3
      (fun f_defs f_undefs f_relocs ->
        { Sf.f_src = "f"; f_defs; f_undefs; f_relocs; f_ctors = [] })
      (list_size (0 -- 5)
         (pair name (oneofl [ Sof.Symbol.Global; Sof.Symbol.Weak; Sof.Symbol.Local ])))
      names names
  in
  map (fun frags -> { Sf.empty with Sf.frags }) (list_size (0 -- 5) frag)

let prop_undefined_matches_sets =
  QCheck.Test.make ~count:1000 ~long_factor:50 ~name:"Symflow.undefined = set reference"
    (QCheck.make gen_flow)
    (fun m -> Sf.undefined m = ref_undefined m)

(* Every node of a merge of random objects: its summary's exports,
   undefined references and relocation targets equal the references
   over its flow. *)
let prop_summary_matches_sets =
  QCheck.Test.make ~count:300 ~long_factor:50 ~name:"Impact.summary = set reference"
    (QCheck.make ~print:print_flow_objects gen_flow_objects)
    (fun objs ->
      let leaves = List.mapi (fun i items -> Mg.Leaf (flow_object i items)) objs in
      let tree = I.analyze ~resolve:no_resolve (Mg.Merge leaves) in
      let ok = ref true in
      I.iter_infos
        (fun i ->
          let s = I.summary i and m = i.L.i_flow in
          ok :=
            !ok
            && s.I.s_exports = ref_export_pairs m
            && s.I.s_undefined = ref_undefined m
            && s.I.s_relocs = ref_relocs m
            && Sf.undefined m = ref_undefined m)
        tree;
      !ok)

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
          Alcotest.test_case "E002 pinned" `Quick test_e002_pinned;
          Alcotest.test_case "W104 pinned" `Quick test_w104_pinned;
          Alcotest.test_case "E999 analyzer-internal-error" `Quick
            test_e999_analyzer_internal_error;
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
          Alcotest.test_case "every report refreshed" `Quick
            test_registration_refreshes_every_report;
          Alcotest.test_case "rebound path drops its analysis" `Quick
            test_registration_drops_rebound_path;
          Alcotest.test_case "kept walk: rebound fragment" `Quick
            test_kept_walk_rebound_fragment;
          Alcotest.test_case "kept walk: moved hide" `Quick
            test_kept_walk_moved_hide;
          Alcotest.test_case "kept walk: name becomes cyclic" `Quick
            test_kept_walk_name_becomes_cyclic;
          Alcotest.test_case "kept walk: name becomes resolvable" `Quick
            test_kept_walk_name_becomes_resolvable;
          Alcotest.test_case "kept walk: ambiguous parameters" `Quick
            test_kept_walk_ambiguous_parameters;
          Alcotest.test_case "kept walk: swapped name" `Quick
            test_kept_walk_swapped_name;
        ] );
      ( "impact",
        [
          Alcotest.test_case "digests + stability" `Quick
            test_impact_digests_and_stability;
          Alcotest.test_case "diff verdicts + verify" `Quick
            test_impact_diff_verdicts;
          Alcotest.test_case "digest independent of walk order" `Quick
            test_impact_digest_walk_order;
          Alcotest.test_case "hide/freeze subtree reuse" `Quick
            test_hidden_subtree_reuse;
          Alcotest.test_case "memo answered through the trees" `Quick
            test_memo_through_trees;
          Alcotest.test_case "memo current after a rebind" `Quick
            test_memo_after_rebind;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_dead_restrict_noop;
          QCheck_alcotest.to_alcotest prop_dead_hide_noop;
          QCheck_alcotest.to_alcotest prop_edit_pairs_reused_byte_identical;
          QCheck_alcotest.to_alcotest prop_undefined_matches_sets;
          QCheck_alcotest.to_alcotest prop_summary_matches_sets;
          QCheck_alcotest.to_alcotest prop_named_matches_count;
          QCheck_alcotest.to_alcotest prop_digest_classes;
          QCheck_alcotest.to_alcotest prop_info_at;
          QCheck_alcotest.to_alcotest prop_one_own_part;
          QCheck_alcotest.to_alcotest prop_digest_one_construction;
        ] );
    ]
