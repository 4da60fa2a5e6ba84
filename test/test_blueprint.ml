(* Tests of the blueprint layer: s-expression reader, m-graph
   construction, evaluation, specialization, and meta-object files. *)

let sel = Jigsaw.Select.compile

let _ = sel

(* tiny fragments for resolution *)
let frag_f () =
  let a = Sof.Asm.create "/obj/f.o" in
  Sof.Asm.label a "f";
  Sof.Asm.instrs a [ Svm.Isa.Movi (0, 7l); Svm.Isa.Ret ];
  Sof.Asm.finish a

let frag_main () =
  let a = Sof.Asm.create "/obj/main.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.call a "f";
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.finish a

let env_with_frags () =
  let table = Hashtbl.create 8 in
  Hashtbl.replace table "/obj/f.o" (frag_f ());
  Hashtbl.replace table "/obj/main.o" (frag_main ());
  Blueprint.Mgraph.make_env
    ~resolve:(fun path ->
      match Hashtbl.find_opt table path with
      | Some o -> Blueprint.Mgraph.Leaf o
      | None -> raise (Blueprint.Mgraph.Eval_error ("unknown " ^ path)))
    ()

(* -- sexp ---------------------------------------------------------------- *)

let test_sexp_atoms () =
  (match Blueprint.Sexp.parse_one "/lib/libc" with
  | Blueprint.Sexp.Sym "/lib/libc" -> ()
  | _ -> Alcotest.fail "sym");
  (match Blueprint.Sexp.parse_one "0x100000" with
  | Blueprint.Sexp.Int 0x100000 -> ()
  | _ -> Alcotest.fail "hex int");
  (match Blueprint.Sexp.parse_one "\"a b\"" with
  | Blueprint.Sexp.Str "a b" -> ()
  | _ -> Alcotest.fail "string");
  match Blueprint.Sexp.parse_one "(merge /a /b)" with
  | Blueprint.Sexp.List [ Blueprint.Sexp.Sym "merge"; Blueprint.Sexp.Sym "/a"; Blueprint.Sexp.Sym "/b" ] -> ()
  | _ -> Alcotest.fail "list"

let test_sexp_comments_and_nesting () =
  let src = "(merge ; a comment\n  /a (override /b /c)) ; trailing" in
  match Blueprint.Sexp.parse_one src with
  | Blueprint.Sexp.List
      [ Blueprint.Sexp.Sym "merge"; Blueprint.Sexp.Sym "/a";
        Blueprint.Sexp.List [ Blueprint.Sexp.Sym "override"; Blueprint.Sexp.Sym "/b"; Blueprint.Sexp.Sym "/c" ] ] ->
      ()
  | s -> Alcotest.failf "got %s" (Blueprint.Sexp.to_string s)

let test_sexp_errors () =
  let expect src =
    try
      ignore (Blueprint.Sexp.parse_one src);
      Alcotest.fail ("no error for " ^ src)
    with Blueprint.Sexp.Parse_error _ -> ()
  in
  expect "(merge /a";
  expect "\"unterminated";
  expect ")";
  expect "(a) trailing"

let test_sexp_parse_many () =
  let forms = Blueprint.Sexp.parse_many "(a 1)\n;; c\n(b 2)" in
  Alcotest.(check int) "two forms" 2 (List.length forms)

let test_sexp_roundtrip_pp () =
  let src = "(specialize \"lib-constrained\" (list \"T\" 0x1000000) /lib/libc)" in
  let s = Blueprint.Sexp.parse_one src in
  let s2 = Blueprint.Sexp.parse_one (Blueprint.Sexp.to_string s) in
  Alcotest.(check bool) "pp roundtrip" true (s = s2)

(* -- mgraph construction -------------------------------------------------- *)

let test_graph_figure1 () =
  (* the paper's ls meta-object *)
  let g = Blueprint.Mgraph.parse "(merge /lib/crt0.o /obj/ls.o /lib/libc)" in
  match g with
  | Blueprint.Mgraph.Merge
      [ Blueprint.Mgraph.Name "/lib/crt0.o"; Blueprint.Mgraph.Name "/obj/ls.o";
        Blueprint.Mgraph.Name "/lib/libc" ] ->
      ()
  | _ -> Alcotest.fail "unexpected graph"

let test_graph_figure2_shape () =
  (* Figure 2 parses into the interposition graph *)
  let src =
    "(hide \"_REAL_malloc\"\n\
     (merge\n\
     (restrict \"^_malloc$\"\n\
     (copy_as \"^_malloc$\" \"_REAL_malloc\"\n\
     (merge /bin/ls.o /lib/libc.o)))\n\
     /lib/test_malloc.o))"
  in
  match Blueprint.Mgraph.parse src with
  | Blueprint.Mgraph.Hide (_, Blueprint.Mgraph.Merge [ Blueprint.Mgraph.Restrict (_, _); _ ]) -> ()
  | _ -> Alcotest.fail "unexpected graph"

let test_graph_bad_op () =
  try
    ignore (Blueprint.Mgraph.parse "(frobnicate /a)");
    Alcotest.fail "expected error"
  with Blueprint.Mgraph.Eval_error _ -> ()

let test_graph_hyphen_normalization () =
  match Blueprint.Mgraph.parse "(copy-as \"^a$\" \"b\" /obj/f.o)" with
  | Blueprint.Mgraph.Copy_as ("^a$", "b", _) -> ()
  | _ -> Alcotest.fail "hyphen operator not normalized"

(* -- evaluation ------------------------------------------------------------ *)

let test_eval_merge_and_names () =
  let env = env_with_frags () in
  let g = Blueprint.Mgraph.parse "(merge /obj/main.o /obj/f.o)" in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check (list string)) "nothing undefined" []
    (Jigsaw.Module_ops.undefined r.Blueprint.Mgraph.m)

let test_eval_source_operator () =
  let env = env_with_frags () in
  let g =
    Blueprint.Mgraph.parse "(source \"c\" \"int undef_var = 0;\")"
  in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check bool) "defines undef_var" true
    (List.mem "undef_var" (Jigsaw.Module_ops.exports r.Blueprint.Mgraph.m))

let test_eval_figure3 () =
  (* Figure 3: source fills a data hole; rename reroutes a routine *)
  let broken =
    let a = Sof.Asm.create "/lib/lib-with-problems" in
    Sof.Asm.label a "entry";
    Sof.Asm.lea a 2 "undef_var";
    Sof.Asm.call a "_undefined_routine";
    Sof.Asm.instr a Svm.Isa.Ret;
    Sof.Asm.finish a
  in
  let env =
    Blueprint.Mgraph.make_env
      ~resolve:(fun path ->
        if path = "/lib/lib-with-problems" then Blueprint.Mgraph.Leaf broken
        else raise (Blueprint.Mgraph.Eval_error "unknown"))
      ()
  in
  let g =
    Blueprint.Mgraph.parse
      "(merge (source \"c\" \"int undef_var = 0;\")\n\
       (rename \"^_undefined_routine$\" \"_abort\" /lib/lib-with-problems))"
  in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check (list string)) "only _abort missing" [ "_abort" ]
    (Jigsaw.Module_ops.undefined r.Blueprint.Mgraph.m)

let test_eval_constrain_collects_prefs () =
  let env = env_with_frags () in
  let g = Blueprint.Mgraph.parse "(constrain \"T\" 0x200000 /obj/f.o)" in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check bool) "text prefs present" true
    (List.exists
       (fun (c : Blueprint.Mgraph.constraint_pref) ->
         c.Blueprint.Mgraph.seg = Blueprint.Mgraph.Seg_text
         && c.pref = Constraints.Placement.At 0x200000)
       r.Blueprint.Mgraph.constraints)

let test_eval_lib_constrained_spec () =
  let env = env_with_frags () in
  let g =
    Blueprint.Mgraph.parse
      "(specialize \"lib-constrained\" (list \"T\" 0x1000000) /obj/f.o)"
  in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check bool) "constraint attached" true
    (List.exists
       (fun (c : Blueprint.Mgraph.constraint_pref) ->
         c.Blueprint.Mgraph.pref = Constraints.Placement.At 0x1000000)
       r.Blueprint.Mgraph.constraints)

let test_eval_unknown_spec () =
  let env = env_with_frags () in
  let g = Blueprint.Mgraph.parse "(specialize \"no-such-style\" /obj/f.o)" in
  try
    ignore (Blueprint.Mgraph.eval env g);
    Alcotest.fail "expected error"
  with Blueprint.Mgraph.Eval_error _ -> ()

let test_eval_cycle_detection () =
  let env =
    Blueprint.Mgraph.make_env
      ~resolve:(fun _ -> Blueprint.Mgraph.parse "(merge /self)")
      ()
  in
  try
    ignore (Blueprint.Mgraph.eval env (Blueprint.Mgraph.Name "/self"));
    Alcotest.fail "expected cycle error"
  with Blueprint.Mgraph.Eval_error msg ->
    Alcotest.(check bool) "mentions cycle" true
      (Str.string_match (Str.regexp ".*cyclic.*") msg 0)

let test_eval_list_flattening () =
  let env = env_with_frags () in
  let g = Blueprint.Mgraph.parse "(merge (list /obj/main.o /obj/f.o))" in
  let r = Blueprint.Mgraph.eval env g in
  Alcotest.(check (list string)) "resolved" []
    (Jigsaw.Module_ops.undefined r.Blueprint.Mgraph.m)

(* -- graph utilities --------------------------------------------------------- *)

let test_names_extraction () =
  let g = Blueprint.Mgraph.parse "(merge /a (override /b (hide \"x\" /c)))" in
  Alcotest.(check (list string)) "names" [ "/a"; "/b"; "/c" ] (Blueprint.Mgraph.names g)

let test_digest_stability_and_sensitivity () =
  let g1 = Blueprint.Mgraph.parse "(merge /a /b)" in
  let g2 = Blueprint.Mgraph.parse "(merge /a /b)" in
  let g3 = Blueprint.Mgraph.parse "(merge /b /a)" in
  Alcotest.(check string) "stable" (Blueprint.Mgraph.digest g1) (Blueprint.Mgraph.digest g2);
  Alcotest.(check bool) "order-sensitive" true
    (Blueprint.Mgraph.digest g1 <> Blueprint.Mgraph.digest g3)

(* A graph with every operator: each rename scope, [list] grouping
   nested inside a merge and standing alone, a source, a leaf, and a
   specialization whose arguments are a string, a number, a list and
   two graphs. *)
let every_operator () =
  let g =
    Blueprint.Mgraph.parse
      "(constrain \"T\" 0x100000\n\
      \  (specialize \"lib-constrained\" (list \"T\" 0x2000 \"D\" 7) /vnode/a\n\
      \    (merge /vnode/b (list /vnode/c))\n\
      \    (override\n\
      \      (merge /a (list /b (list /c)) (source \"c\" \"int f(void) { return 1; }\"))\n\
      \      (initializers\n\
      \        (rename \"defs\" \"^f$\" \"g\"\n\
      \          (rename \"refs\" \"^h$\" \"k\"\n\
      \            (rename \"^x$\" \"y\"\n\
      \              (copy-as \"^f$\" \"f2\"\n\
      \                (hide \"^h\"\n\
      \                  (show \"^f\"\n\
      \                    (freeze \"^f$\"\n\
      \                      (restrict \"^r\" (project \"^p\" /d)))))))))))))"
  in
  Blueprint.Mgraph.(Constrain (Seg_data, 0x40200000, Merge [ g; Leaf (frag_f ()); Lst [] ]))

(* The digest is a static target's image cache key's graph part:
   pinned, so a rewrite of how it is computed cannot move it. *)
let test_digest_pinned () =
  let libc =
    Blueprint.Meta.effective_graph
      (Blueprint.Meta.parse ~name:"/lib/libc" Omos.World.libc_meta_source)
      ~spec:None
  in
  Alcotest.(check string) "figure 1 libc" "b0544bb8b0347dddd2804e4c61a233db"
    (Blueprint.Mgraph.digest libc);
  Alcotest.(check string) "every operator" "39e22e2120a414481571055ecf670c93"
    (Blueprint.Mgraph.digest (every_operator ()))

(* -- meta files ---------------------------------------------------------------- *)

let test_meta_figure1 () =
  let src =
    "(constraint-list \"T\" 0x100000 \"D\" 0x40200000) ; default address constraint\n\
     (merge\n\
     /libc/gen /libc/stdio /libc/string /libc/stdlib\n\
     /libc/hppa /libc/net /libc/quad /libc/rpc)"
  in
  let meta = Blueprint.Meta.parse ~name:"/lib/libc" src in
  Alcotest.(check int) "two constraints" 2 (List.length meta.Blueprint.Meta.constraints);
  match Blueprint.Meta.effective_graph meta ~spec:None with
  | Blueprint.Mgraph.Constrain (_, _, Blueprint.Mgraph.Constrain (_, _, Blueprint.Mgraph.Merge ops)) ->
      Alcotest.(check int) "eight members" 8 (List.length ops)
  | _ -> Alcotest.fail "unexpected effective graph"

let test_meta_default_spec () =
  let src = "(default-specialization \"lib-dynamic\")\n(merge /obj/f.o)" in
  let meta = Blueprint.Meta.parse ~name:"/lib/x" src in
  (match meta.Blueprint.Meta.default_spec with
  | Some ("lib-dynamic", []) -> ()
  | _ -> Alcotest.fail "default spec missing");
  (* explicit request beats the default *)
  match Blueprint.Meta.effective_graph meta ~spec:(Some ("identity", [])) with
  | Blueprint.Mgraph.Specialize ("identity", _, _) -> ()
  | _ -> Alcotest.fail "explicit spec should win"

(* The effective graph is made once: the registration analysis walks
   it and evaluation meets the same node, constraints and default spec
   included. *)
let test_meta_effective_graph_stable () =
  List.iter
    (fun src ->
      let meta = Blueprint.Meta.parse ~name:"/m" src in
      Alcotest.(check bool) src true
        (Blueprint.Meta.effective_graph meta ~spec:None
        == Blueprint.Meta.effective_graph meta ~spec:None))
    [
      "(constraint-list \"T\" 0x100000 \"D\" 0x40200000)\n(merge /a)";
      "(default-specialization \"lib-static\")\n(merge /a)";
    ]

let test_meta_multiple_roots_merged () =
  let meta = Blueprint.Meta.parse ~name:"/m" "(merge /a)\n(merge /b)" in
  match meta.Blueprint.Meta.root with
  | Blueprint.Mgraph.Merge [ _; _ ] -> ()
  | _ -> Alcotest.fail "roots not merged"

let test_meta_empty_fails () =
  try
    ignore (Blueprint.Meta.parse ~name:"/m" "; nothing here\n");
    Alcotest.fail "expected Meta_error"
  with Blueprint.Meta.Meta_error _ -> ()

let test_meta_digest_varies_with_spec () =
  let meta = Blueprint.Meta.parse ~name:"/m" "(merge /a)" in
  let d1 = Blueprint.Mgraph.digest (Blueprint.Meta.effective_graph meta ~spec:None) in
  let d2 =
    Blueprint.Mgraph.digest
      (Blueprint.Meta.effective_graph meta ~spec:(Some ("identity", [])))
  in
  Alcotest.(check bool) "spec in key" true (d1 <> d2)

let test_meta_duplicate_constraint_segment () =
  let expect src =
    try
      ignore (Blueprint.Meta.parse ~name:"/m" src);
      Alcotest.fail "expected Meta_error"
    with Blueprint.Meta.Meta_error msg ->
      Alcotest.(check bool) "names the segment" true
        (Astring.String.is_infix ~affix:"duplicate constraint-list segment" msg)
  in
  (* within one constraint-list *)
  expect "(constraint-list \"T\" 0x1000 \"T\" 0x2000)\n(merge /a)";
  (* across several, and case-insensitively: "t" is segment T too *)
  expect "(constraint-list \"T\" 0x1000)\n(constraint-list \"t\" 0x2000)\n(merge /a)";
  (* distinct segments still parse *)
  let m =
    Blueprint.Meta.parse ~name:"/m"
      "(constraint-list \"T\" 0x1000 \"D\" 0x2000)\n(merge /a)"
  in
  Alcotest.(check int) "two segments" 2
    (List.length m.Blueprint.Meta.constraints)

let () =
  Alcotest.run "blueprint"
    [
      ( "sexp",
        [
          Alcotest.test_case "atoms" `Quick test_sexp_atoms;
          Alcotest.test_case "comments+nesting" `Quick test_sexp_comments_and_nesting;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
          Alcotest.test_case "parse_many" `Quick test_sexp_parse_many;
          Alcotest.test_case "pp roundtrip" `Quick test_sexp_roundtrip_pp;
        ] );
      ( "graph",
        [
          Alcotest.test_case "figure 1" `Quick test_graph_figure1;
          Alcotest.test_case "figure 2 shape" `Quick test_graph_figure2_shape;
          Alcotest.test_case "bad op" `Quick test_graph_bad_op;
          Alcotest.test_case "hyphen ops" `Quick test_graph_hyphen_normalization;
          Alcotest.test_case "names" `Quick test_names_extraction;
          Alcotest.test_case "digest" `Quick test_digest_stability_and_sensitivity;
          Alcotest.test_case "digest pinned" `Quick test_digest_pinned;
        ] );
      ( "eval",
        [
          Alcotest.test_case "merge+resolve" `Quick test_eval_merge_and_names;
          Alcotest.test_case "source" `Quick test_eval_source_operator;
          Alcotest.test_case "figure 3" `Quick test_eval_figure3;
          Alcotest.test_case "constrain" `Quick test_eval_constrain_collects_prefs;
          Alcotest.test_case "lib-constrained" `Quick test_eval_lib_constrained_spec;
          Alcotest.test_case "unknown spec" `Quick test_eval_unknown_spec;
          Alcotest.test_case "cycles" `Quick test_eval_cycle_detection;
          Alcotest.test_case "list flattening" `Quick test_eval_list_flattening;
        ] );
      ( "meta",
        [
          Alcotest.test_case "figure 1 meta" `Quick test_meta_figure1;
          Alcotest.test_case "default spec" `Quick test_meta_default_spec;
          Alcotest.test_case "effective graph is stable" `Quick
            test_meta_effective_graph_stable;
          Alcotest.test_case "multiple roots" `Quick test_meta_multiple_roots_merged;
          Alcotest.test_case "empty" `Quick test_meta_empty_fails;
          Alcotest.test_case "digest spec" `Quick test_meta_digest_varies_with_spec;
          Alcotest.test_case "duplicate constraint segment" `Quick
            test_meta_duplicate_constraint_segment;
        ] );
    ]
