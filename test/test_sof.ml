(* Tests of the SOF object format: validation, codec round-trips,
   symbol queries, the assembler, and namespace views. *)

let sym = Sof.Symbol.make

let simple_object () =
  let a = Sof.Asm.create "t.o" in
  Sof.Asm.label a "f";
  Sof.Asm.instr a (Svm.Isa.Movi (1, 5l));
  Sof.Asm.call a "g";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.label a ~binding:Sof.Symbol.Local "f_local";
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.data_label a "counter";
  Sof.Asm.data_word a 7l;
  Sof.Asm.bss a "buffer" 64;
  Sof.Asm.finish a

(* -- object file basics ------------------------------------------------ *)

let test_sections () =
  let o = simple_object () in
  Alcotest.(check int) "text" (4 * Svm.Isa.width) (Bytes.length o.Sof.Object_file.text);
  Alcotest.(check int) "data" 4 (Bytes.length o.Sof.Object_file.data);
  Alcotest.(check int) "bss" 64 o.Sof.Object_file.bss_size

let test_exported_and_undefined () =
  let o = simple_object () in
  let exported = List.map (fun (s : Sof.Symbol.t) -> s.name) (Sof.Object_file.exported o) in
  Alcotest.(check (list string)) "exports" [ "f"; "counter"; "buffer" ] exported;
  Alcotest.(check (list string)) "undefined" [ "g" ] (Sof.Object_file.undefined o)

let test_defines () =
  let o = simple_object () in
  Alcotest.(check bool) "defines f" true (Sof.Object_file.defines o "f");
  Alcotest.(check bool) "defines local" true (Sof.Object_file.defines o "f_local");
  Alcotest.(check bool) "not g" false (Sof.Object_file.defines o "g")

let test_reloc_counts () =
  let o = simple_object () in
  Alcotest.(check int) "relocs" 1 (Sof.Object_file.reloc_count o);
  Alcotest.(check int) "external relocs" 1 (Sof.Object_file.external_reloc_count o)

let test_find_exported_weak_vs_global () =
  let o =
    Sof.Object_file.make ~name:"w.o" ~text:(Svm.Encode.assemble [ Svm.Isa.Halt; Svm.Isa.Halt ])
      [
        sym ~binding:Sof.Symbol.Weak ~kind:Sof.Symbol.Text ~value:0 "x";
        sym ~binding:Sof.Symbol.Global ~kind:Sof.Symbol.Text ~value:8 "x";
      ]
  in
  match Sof.Object_file.find_exported o "x" with
  | Some s ->
      Alcotest.(check bool) "global wins" true (s.Sof.Symbol.binding = Sof.Symbol.Global);
      Alcotest.(check int) "value" 8 s.Sof.Symbol.value
  | None -> Alcotest.fail "x not found"

(* -- validation -------------------------------------------------------- *)

let expect_invalid f =
  try
    ignore (f ());
    Alcotest.fail "expected Object_file.Invalid"
  with Sof.Object_file.Invalid _ -> ()

let test_validate_sym_range () =
  expect_invalid (fun () ->
      Sof.Object_file.make ~name:"bad.o" ~text:Bytes.empty
        [ sym ~kind:Sof.Symbol.Text ~value:100 "f" ])

let test_validate_reloc_range () =
  expect_invalid (fun () ->
      Sof.Object_file.make ~name:"bad.o"
        ~text:(Svm.Encode.assemble [ Svm.Isa.Halt ])
        ~relocs:[ Sof.Reloc.make ~target:Sof.Reloc.In_text ~offset:100 ~kind:Sof.Reloc.Abs32 "g" ]
        [ Sof.Symbol.undef "g" ])

let test_validate_reloc_alignment () =
  (* a text reloc not on an immediate field is rejected *)
  expect_invalid (fun () ->
      Sof.Object_file.make ~name:"bad.o"
        ~text:(Svm.Encode.assemble [ Svm.Isa.Halt ])
        ~relocs:[ Sof.Reloc.make ~target:Sof.Reloc.In_text ~offset:0 ~kind:Sof.Reloc.Abs32 "g" ]
        [ Sof.Symbol.undef "g" ])

let test_validate_unknown_reloc_symbol () =
  expect_invalid (fun () ->
      Sof.Object_file.make ~name:"bad.o"
        ~text:(Svm.Encode.assemble [ Svm.Isa.Call 0l ])
        ~relocs:[ Sof.Reloc.make ~target:Sof.Reloc.In_text ~offset:4 ~kind:Sof.Reloc.Abs32 "nowhere" ]
        [])

let test_validate_text_alignment () =
  expect_invalid (fun () ->
      Sof.Object_file.make ~name:"bad.o" ~text:(Bytes.create 5) [])

(* -- codec ------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let o = simple_object () in
  let o' = Sof.Codec.decode (Sof.Codec.encode o) in
  Alcotest.(check string) "name" o.Sof.Object_file.name o'.Sof.Object_file.name;
  Alcotest.(check bool) "text" true (Bytes.equal o.Sof.Object_file.text o'.Sof.Object_file.text);
  Alcotest.(check bool) "data" true (Bytes.equal o.Sof.Object_file.data o'.Sof.Object_file.data);
  Alcotest.(check int) "bss" o.Sof.Object_file.bss_size o'.Sof.Object_file.bss_size;
  Alcotest.(check bool) "symbols" true
    (List.for_all2 Sof.Symbol.equal o.Sof.Object_file.symbols o'.Sof.Object_file.symbols);
  Alcotest.(check bool) "relocs" true
    (List.for_all2 Sof.Reloc.equal o.Sof.Object_file.relocs o'.Sof.Object_file.relocs)

let test_codec_bad_magic () =
  let b = Bytes.of_string "NOPE everything else" in
  try
    ignore (Sof.Codec.decode b);
    Alcotest.fail "expected Decode_error"
  with Sof.Codec.Decode_error _ -> ()

let test_codec_truncated () =
  let o = simple_object () in
  let full = Sof.Codec.encode o in
  let cut = Bytes.sub full 0 (Bytes.length full - 5) in
  try
    ignore (Sof.Codec.decode cut);
    Alcotest.fail "expected Decode_error"
  with Sof.Codec.Decode_error _ -> ()

let test_digest_stability () =
  let d1 = Sof.Codec.digest (simple_object ()) in
  let d2 = Sof.Codec.digest (simple_object ()) in
  Alcotest.(check string) "same content, same digest" d1 d2;
  let other = Sof.Object_file.empty "other" in
  Alcotest.(check bool) "different content, different digest" true
    (d1 <> Sof.Codec.digest other)

(* -- assembler --------------------------------------------------------- *)

let test_asm_data_string_alignment () =
  let a = Sof.Asm.create "s.o" in
  Sof.Asm.data_string a "ab";
  Sof.Asm.data_label a "w";
  Sof.Asm.data_word a 1l;
  let o = Sof.Asm.finish a in
  (match Sof.Object_file.find_symbol o "w" with
  | Some s -> Alcotest.(check int) "aligned" 0 (s.Sof.Symbol.value mod 4)
  | None -> Alcotest.fail "w missing");
  Alcotest.(check int) "data size" 8 (Bytes.length o.Sof.Object_file.data)

let test_asm_bss_alignment () =
  let a = Sof.Asm.create "b.o" in
  Sof.Asm.bss a "x" 3;
  Sof.Asm.bss a "y" 10;
  let o = Sof.Asm.finish a in
  (match Sof.Object_file.find_symbol o "y" with
  | Some s -> Alcotest.(check int) "y at 4" 4 s.Sof.Symbol.value
  | None -> Alcotest.fail "y missing");
  Alcotest.(check int) "total" 16 o.Sof.Object_file.bss_size

let test_asm_ctors () =
  let a = Sof.Asm.create "c.o" in
  Sof.Asm.label a "ctor_a";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.ctor a "ctor_a";
  let o = Sof.Asm.finish a in
  Alcotest.(check (list string)) "ctors" [ "ctor_a" ] o.Sof.Object_file.ctors

let test_asm_data_word_sym () =
  let a = Sof.Asm.create "p.o" in
  Sof.Asm.data_label a "ptr";
  Sof.Asm.data_word_sym a "target";
  let o = Sof.Asm.finish a in
  (match o.Sof.Object_file.relocs with
  | [ r ] ->
      Alcotest.(check string) "sym" "target" r.Sof.Reloc.symbol;
      Alcotest.(check bool) "in data" true (r.Sof.Reloc.target = Sof.Reloc.In_data)
  | _ -> Alcotest.fail "one reloc expected");
  Alcotest.(check (list string)) "target undefined" [ "target" ]
    (Sof.Object_file.undefined o)

(* -- views ------------------------------------------------------------- *)

let test_view_rename_defs_only () =
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o)
      (Sof.View.Rename_defs (fun n -> if n = "f" then Some "f2" else None))
  in
  let o' = Sof.View.materialize v in
  Alcotest.(check bool) "f2 defined" true (Sof.Object_file.defines o' "f2");
  Alcotest.(check bool) "f gone" false (Sof.Object_file.defines o' "f")

let test_view_rename_refs () =
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o)
      (Sof.View.Rename_refs (fun n -> if n = "g" then Some "g2" else None))
  in
  let o' = Sof.View.materialize v in
  Alcotest.(check (list string)) "refs renamed" [ "g2" ] (Sof.Object_file.undefined o')

let test_view_undefine () =
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o)
      (Sof.View.Undefine (fun n -> n = "f"))
  in
  let o' = Sof.View.materialize v in
  Alcotest.(check bool) "f removed" false (Sof.Object_file.defines o' "f")

let test_view_copy_defs () =
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o)
      (Sof.View.Copy_defs (fun n -> if n = "f" then Some "alias_f" else None))
  in
  let o' = Sof.View.materialize v in
  Alcotest.(check bool) "original kept" true (Sof.Object_file.defines o' "f");
  Alcotest.(check bool) "alias added" true (Sof.Object_file.defines o' "alias_f");
  let f = Option.get (Sof.Object_file.find_symbol o' "f") in
  let a = Option.get (Sof.Object_file.find_symbol o' "alias_f") in
  Alcotest.(check int) "same value" f.Sof.Symbol.value a.Sof.Symbol.value

let test_view_shares_bytes () =
  (* materialization must not copy section bytes: that is the point of
     views (cheap incremental namespace modification) *)
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o)
      (Sof.View.Rename_defs (fun n -> if n = "f" then Some "f2" else None))
  in
  let o' = Sof.View.materialize v in
  Alcotest.(check bool) "text physically shared" true
    (o.Sof.Object_file.text == o'.Sof.Object_file.text)

let test_view_layering_order () =
  (* rename f->a then a->b: both layers must apply in order *)
  let o = simple_object () in
  let v = Sof.View.of_object o in
  let v = Sof.View.push v (Sof.View.Rename_defs (fun n -> if n = "f" then Some "a" else None)) in
  let v = Sof.View.push v (Sof.View.Rename_defs (fun n -> if n = "a" then Some "b" else None)) in
  let o' = Sof.View.materialize v in
  Alcotest.(check bool) "b defined" true (Sof.Object_file.defines o' "b");
  Alcotest.(check bool) "a gone" false (Sof.Object_file.defines o' "a")

let test_view_cache () =
  let o = simple_object () in
  let v = Sof.View.of_object o in
  let m1 = Sof.View.materialize v in
  let m2 = Sof.View.materialize v in
  Alcotest.(check bool) "cached" true (m1 == m2)

let test_view_undefine_then_copy_normalizes () =
  (* undefine f: reloc to g remains; g should have exactly one undef entry *)
  let o = simple_object () in
  let v = Sof.View.push (Sof.View.of_object o) (Sof.View.Undefine (fun _ -> true)) in
  let o' = Sof.View.materialize v in
  let undefs =
    List.filter (fun (s : Sof.Symbol.t) -> s.kind = Sof.Symbol.Undef)
      o'.Sof.Object_file.symbols
  in
  let names = List.map (fun (s : Sof.Symbol.t) -> s.name) undefs in
  Alcotest.(check (list string)) "single undef per name" (List.sort_uniq compare names)
    (List.sort compare names)

(* -- properties -------------------------------------------------------- *)

let arb_name = QCheck.(string_gen_of_size (Gen.int_range 1 8) Gen.printable)

let prop_codec_roundtrip_symbols =
  QCheck.Test.make ~count:200 ~name:"codec roundtrips arbitrary symbol names"
    arb_name (fun name ->
      QCheck.assume (name <> "");
      let o =
        Sof.Object_file.make ~name:"p.o" ~text:Bytes.empty
          [ sym ~kind:Sof.Symbol.Abs ~value:7 name ]
      in
      let o' = Sof.Codec.decode (Sof.Codec.encode o) in
      match Sof.Object_file.find_symbol o' name with
      | Some s -> s.Sof.Symbol.value = 7
      | None -> false)

let prop_view_rename_is_involutive_when_swapped =
  QCheck.Test.make ~count:100 ~name:"rename f->tmp->f restores namespace" QCheck.unit
    (fun () ->
      let o = simple_object () in
      let v = Sof.View.of_object o in
      let v = Sof.View.push v (Sof.View.Rename_defs (fun n -> if n = "f" then Some "tmp_q" else None)) in
      let v = Sof.View.push v (Sof.View.Rename_defs (fun n -> if n = "tmp_q" then Some "f" else None)) in
      let o' = Sof.View.materialize v in
      Sof.Object_file.defines o' "f" && not (Sof.Object_file.defines o' "tmp_q"))

let () =
  Alcotest.run "sof"
    [
      ( "object_file",
        [
          Alcotest.test_case "sections" `Quick test_sections;
          Alcotest.test_case "exports/undefined" `Quick test_exported_and_undefined;
          Alcotest.test_case "defines" `Quick test_defines;
          Alcotest.test_case "reloc counts" `Quick test_reloc_counts;
          Alcotest.test_case "weak vs global" `Quick test_find_exported_weak_vs_global;
        ] );
      ( "validate",
        [
          Alcotest.test_case "symbol range" `Quick test_validate_sym_range;
          Alcotest.test_case "reloc range" `Quick test_validate_reloc_range;
          Alcotest.test_case "reloc alignment" `Quick test_validate_reloc_alignment;
          Alcotest.test_case "unknown reloc symbol" `Quick test_validate_unknown_reloc_symbol;
          Alcotest.test_case "text alignment" `Quick test_validate_text_alignment;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_codec_bad_magic;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
        ] );
      ( "asm",
        [
          Alcotest.test_case "string alignment" `Quick test_asm_data_string_alignment;
          Alcotest.test_case "bss alignment" `Quick test_asm_bss_alignment;
          Alcotest.test_case "ctors" `Quick test_asm_ctors;
          Alcotest.test_case "data word sym" `Quick test_asm_data_word_sym;
        ] );
      ( "view",
        [
          Alcotest.test_case "rename defs" `Quick test_view_rename_defs_only;
          Alcotest.test_case "rename refs" `Quick test_view_rename_refs;
          Alcotest.test_case "undefine" `Quick test_view_undefine;
          Alcotest.test_case "copy defs" `Quick test_view_copy_defs;
          Alcotest.test_case "shares bytes" `Quick test_view_shares_bytes;
          Alcotest.test_case "layering order" `Quick test_view_layering_order;
          Alcotest.test_case "materialize cache" `Quick test_view_cache;
          Alcotest.test_case "normalize undefs" `Quick test_view_undefine_then_copy_normalizes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_codec_roundtrip_symbols; prop_view_rename_is_involutive_when_swapped ] );
    ]
