(* Tests of the link engine: layout, resolution, relocation application
   (verified by actually executing linked images on the SVM), external
   images, and partial links. *)

let layout = { Linker.Link.text_base = 0x1000; data_base = 0x8000 }

(* Fragment: _start calls f, stores result to `out`, halts. *)
let main_frag () =
  let a = Sof.Asm.create "main.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.call a "f";
  Sof.Asm.lea a 2 "out";
  Sof.Asm.instr a (Svm.Isa.St (2, 0, 0l));
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.data_label a "out";
  Sof.Asm.data_word a 0l;
  Sof.Asm.finish a

(* Fragment: f returns g() + constant from its own data. *)
let f_frag () =
  let a = Sof.Asm.create "f.o" in
  Sof.Asm.label a "f";
  Sof.Asm.instrs a
    [ Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, -4l);
      Svm.Isa.St (Svm.Isa.reg_sp, Svm.Isa.reg_ra, 0l) ];
  Sof.Asm.call a "g";
  Sof.Asm.lea a 2 "f_const";
  Sof.Asm.instrs a
    [ Svm.Isa.Ld (2, 2, 0l); Svm.Isa.Add (0, 0, 2);
      Svm.Isa.Ld (Svm.Isa.reg_ra, Svm.Isa.reg_sp, 0l);
      Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, 4l); Svm.Isa.Ret ];
  Sof.Asm.data_label a ~binding:Sof.Symbol.Local "f_const";
  Sof.Asm.data_word a 10l;
  Sof.Asm.finish a

let g_frag () =
  let a = Sof.Asm.create "g.o" in
  Sof.Asm.label a "g";
  Sof.Asm.instrs a [ Svm.Isa.Movi (0, 32l); Svm.Isa.Ret ];
  Sof.Asm.finish a

let run_image (img : Linker.Image.t) =
  let mem, buf = Svm.Cpu.flat_mem 0x20000 in
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  Svm.Cpu.set_reg cpu Svm.Isa.reg_sp 0x1F000l;
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:10_000 cpu);
  cpu

let test_link_and_run () =
  let img, stats =
    Linker.Link.link ~layout [ main_frag (); f_frag (); g_frag () ]
  in
  Alcotest.(check int) "three fragments" 3 stats.Linker.Link.fragments;
  Alcotest.(check bool) "entry found" true (img.Linker.Image.entry = 0x1000);
  let cpu = run_image img in
  let out_addr = Option.get (Linker.Image.find_symbol img "out") in
  Alcotest.(check int) "g()+10 stored" 42 (cpu.Svm.Cpu.mem.Svm.Cpu.load32 out_addr)

let test_undefined_raises () =
  try
    ignore (Linker.Link.link ~layout [ main_frag (); f_frag () ]);
    Alcotest.fail "expected undefined g"
  with Linker.Link.Link_error (Linker.Link.Undefined [ "g" ]) -> ()

let test_allow_undefined () =
  let _, stats =
    Linker.Link.link ~layout ~allow_undefined:true [ main_frag (); f_frag () ]
  in
  Alcotest.(check (list string)) "g reported" [ "g" ] stats.Linker.Link.undefined

let test_duplicate_global_raises () =
  try
    ignore (Linker.Link.link ~layout [ g_frag (); g_frag () ]);
    Alcotest.fail "expected duplicate"
  with Linker.Link.Link_error (Linker.Link.Duplicate ("g", _, _)) -> ()

let test_weak_loses_to_global () =
  let weak_g =
    let a = Sof.Asm.create "weak_g.o" in
    Sof.Asm.label a ~binding:Sof.Symbol.Weak "g";
    Sof.Asm.instrs a [ Svm.Isa.Movi (0, 1l); Svm.Isa.Ret ];
    Sof.Asm.finish a
  in
  let img, _ = Linker.Link.link ~layout [ main_frag (); f_frag (); weak_g; g_frag () ] in
  let cpu = run_image img in
  let out_addr = Option.get (Linker.Image.find_symbol img "out") in
  Alcotest.(check int) "strong g used" 42 (cpu.Svm.Cpu.mem.Svm.Cpu.load32 out_addr)

let test_weak_used_when_alone () =
  let weak_g =
    let a = Sof.Asm.create "weak_g.o" in
    Sof.Asm.label a ~binding:Sof.Symbol.Weak "g";
    Sof.Asm.instrs a [ Svm.Isa.Movi (0, 5l); Svm.Isa.Ret ];
    Sof.Asm.finish a
  in
  let img, _ = Linker.Link.link ~layout [ main_frag (); f_frag (); weak_g ] in
  let cpu = run_image img in
  let out_addr = Option.get (Linker.Image.find_symbol img "out") in
  Alcotest.(check int) "weak g used" 15 (cpu.Svm.Cpu.mem.Svm.Cpu.load32 out_addr)

let test_local_resolution_is_per_fragment () =
  (* two fragments each with a Local `c` data word holding different
     values; each fragment's reader must see its own *)
  let frag tag value =
    let a = Sof.Asm.create (tag ^ ".o") in
    Sof.Asm.label a ("read_" ^ tag);
    Sof.Asm.lea a 2 "c";
    Sof.Asm.instrs a [ Svm.Isa.Ld (0, 2, 0l); Svm.Isa.Ret ];
    Sof.Asm.data_label a ~binding:Sof.Symbol.Local "c";
    Sof.Asm.data_word a value;
    Sof.Asm.finish a
  in
  let main =
    let a = Sof.Asm.create "m.o" in
    Sof.Asm.label a "_start";
    Sof.Asm.call a "read_a";
    Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
    Sof.Asm.call a "read_b";
    Sof.Asm.instr a (Svm.Isa.Add (6, 5, 0));
    Sof.Asm.instr a Svm.Isa.Halt;
    Sof.Asm.finish a
  in
  let img, _ = Linker.Link.link ~layout [ main; frag "a" 100l; frag "b" 23l ] in
  let cpu = run_image img in
  Alcotest.(check int32) "a's c" 100l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int32) "sum" 123l (Svm.Cpu.get_reg cpu 6)

let test_external_image_binding () =
  (* link the library alone, then link a client against the positioned
     library image: the self-contained shared library path *)
  let lib_img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x140000 }
      [ f_frag (); g_frag () ]
  in
  let img, _ = Linker.Link.link ~layout ~externals:[ lib_img ] [ main_frag () ] in
  (* execute with both images loaded *)
  let mem, buf = Svm.Cpu.flat_mem 0x200000 in
  Linker.Image.load_into_flat lib_img buf;
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  Svm.Cpu.set_reg cpu Svm.Isa.reg_sp 0x1F000l;
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:10_000 cpu);
  let out_addr = Option.get (Linker.Image.find_symbol img "out") in
  Alcotest.(check int) "bound across images" 42 (cpu.Svm.Cpu.mem.Svm.Cpu.load32 out_addr)

let test_reloc_work_counted () =
  let _, stats = Linker.Link.link ~layout [ main_frag (); f_frag (); g_frag () ] in
  (* main: call f, lea out; f: call g, lea f_const = 4 relocations *)
  Alcotest.(check int) "reloc work" 4 stats.Linker.Link.relocs_applied

let test_entry_fallback_to_main () =
  let m =
    let a = Sof.Asm.create "onlymain.o" in
    Sof.Asm.label a "main";
    Sof.Asm.instr a Svm.Isa.Halt;
    Sof.Asm.finish a
  in
  let img, _ = Linker.Link.link ~layout [ m ] in
  Alcotest.(check int) "entry=main" 0x1000 img.Linker.Image.entry

let test_image_extent_and_digest () =
  let img, _ = Linker.Link.link ~layout [ main_frag (); f_frag (); g_frag () ] in
  let lo, hi = Linker.Image.extent img in
  Alcotest.(check int) "lo" 0x1000 lo;
  Alcotest.(check bool) "hi past data" true (hi > 0x8000);
  let img2, _ = Linker.Link.link ~layout [ main_frag (); f_frag (); g_frag () ] in
  Alcotest.(check string) "digest deterministic" (Linker.Image.digest img)
    (Linker.Image.digest img2);
  let img3, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x2000; data_base = 0x8000 }
      [ main_frag (); f_frag (); g_frag () ]
  in
  Alcotest.(check bool) "placement is identity" true
    (Linker.Image.digest img <> Linker.Image.digest img3)

(* -- combine (partial link) -------------------------------------------- *)

let test_combine_then_link () =
  let lib = Linker.Link.combine ~name:"lib.o" [ f_frag (); g_frag () ] in
  Alcotest.(check bool) "f exported" true (Sof.Object_file.defines lib "f");
  Alcotest.(check bool) "g exported" true (Sof.Object_file.defines lib "g");
  (* internal ref f->g is preserved symbolically *)
  let img, _ = Linker.Link.link ~layout [ main_frag (); lib ] in
  let cpu = run_image img in
  let out_addr = Option.get (Linker.Image.find_symbol img "out") in
  Alcotest.(check int) "combined lib works" 42 (cpu.Svm.Cpu.mem.Svm.Cpu.load32 out_addr)

let test_combine_mangles_locals () =
  (* two fragments with same-named locals must not collide *)
  let frag tag value =
    let a = Sof.Asm.create (tag ^ ".o") in
    Sof.Asm.label a ("get_" ^ tag);
    Sof.Asm.lea a 2 "secret";
    Sof.Asm.instrs a [ Svm.Isa.Ld (0, 2, 0l); Svm.Isa.Ret ];
    Sof.Asm.data_label a ~binding:Sof.Symbol.Local "secret";
    Sof.Asm.data_word a value;
    Sof.Asm.finish a
  in
  let lib = Linker.Link.combine ~name:"two.o" [ frag "a" 1l; frag "b" 2l ] in
  let main =
    let a = Sof.Asm.create "m.o" in
    Sof.Asm.label a "_start";
    Sof.Asm.call a "get_a";
    Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
    Sof.Asm.call a "get_b";
    Sof.Asm.instr a (Svm.Isa.Mov (6, 0));
    Sof.Asm.instr a Svm.Isa.Halt;
    Sof.Asm.finish a
  in
  let img, _ = Linker.Link.link ~layout [ main; lib ] in
  let cpu = run_image img in
  Alcotest.(check int32) "a sees 1" 1l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int32) "b sees 2" 2l (Svm.Cpu.get_reg cpu 6)

let test_combine_preserves_ctors () =
  let a = Sof.Asm.create "c1.o" in
  Sof.Asm.label a "init_x";
  Sof.Asm.instr a Svm.Isa.Ret;
  Sof.Asm.ctor a "init_x";
  let c1 = Sof.Asm.finish a in
  let b = Sof.Asm.create "c2.o" in
  Sof.Asm.label b "init_y";
  Sof.Asm.instr b Svm.Isa.Ret;
  Sof.Asm.ctor b "init_y";
  let c2 = Sof.Asm.finish b in
  let lib = Linker.Link.combine ~name:"lib.o" [ c1; c2 ] in
  Alcotest.(check (list string)) "ctors in order" [ "init_x"; "init_y" ]
    lib.Sof.Object_file.ctors

let test_combine_is_associative_behaviour () =
  (* combine [a;b;c] behaves like combine [combine [a;b]; c] when linked *)
  let frags () = [ main_frag (); f_frag (); g_frag () ] in
  let all = Linker.Link.combine ~name:"all.o" (frags ()) in
  let ab =
    match frags () with
    | [ a; b; c ] -> Linker.Link.combine ~name:"abc.o" [ Linker.Link.combine ~name:"ab.o" [ a; b ]; c ]
    | _ -> assert false
  in
  let img1, _ = Linker.Link.link ~layout [ all ] in
  let img2, _ = Linker.Link.link ~layout [ ab ] in
  let run img =
    let cpu = run_image img in
    cpu.Svm.Cpu.mem.Svm.Cpu.load32 (Option.get (Linker.Image.find_symbol img "out"))
  in
  Alcotest.(check int) "same behaviour" (run img1) (run img2)

(* The partial link written plainly: each fragment's sections appended
   (data and bss padded to 4 bytes), its symbols, relocations and
   constructors rebased and appended with [@]. [Link.combine] must
   encode to the same bytes. *)
let reference_combine ~name (frags : Sof.Object_file.t list) : Sof.Object_file.t =
  let pad4 b = Buffer.add_string b (String.make ((4 - (Buffer.length b mod 4)) mod 4) '\000') in
  let text = Buffer.create 256 and data = Buffer.create 256 and bss = ref 0 in
  let symbols = ref [] and relocs = ref [] and ctors = ref [] in
  let undef_seen = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Sof.Object_file.t) ->
      let text_off = Buffer.length text and data_off = Buffer.length data in
      let bss_off = !bss in
      Buffer.add_bytes text f.Sof.Object_file.text;
      Buffer.add_bytes data f.Sof.Object_file.data;
      pad4 data;
      bss := (bss_off + f.Sof.Object_file.bss_size + 3) / 4 * 4;
      let local n =
        List.exists
          (fun (s : Sof.Symbol.t) ->
            s.name = n && Sof.Symbol.is_defined s && s.binding = Sof.Symbol.Local)
          f.Sof.Object_file.symbols
      in
      let mangle n = if local n then Printf.sprintf "L$%d$%s" i n else n in
      let rebase (s : Sof.Symbol.t) =
        match s.kind with
        | Sof.Symbol.Undef when Hashtbl.mem undef_seen s.name -> None
        | Sof.Symbol.Undef ->
            Hashtbl.add undef_seen s.name ();
            Some s
        | k ->
            let off =
              match k with
              | Sof.Symbol.Text -> text_off
              | Sof.Symbol.Data -> data_off
              | Sof.Symbol.Bss -> bss_off
              | _ -> 0
            in
            let name = if s.binding = Sof.Symbol.Local then mangle s.name else s.name in
            Some { s with Sof.Symbol.name; value = off + s.value }
      in
      symbols := !symbols @ List.filter_map rebase f.Sof.Object_file.symbols;
      relocs :=
        !relocs
        @ List.map
            (fun (r : Sof.Reloc.t) ->
              let off =
                match r.target with
                | Sof.Reloc.In_text -> text_off
                | Sof.Reloc.In_data -> data_off
              in
              { r with Sof.Reloc.offset = off + r.offset; symbol = mangle r.symbol })
            f.Sof.Object_file.relocs;
      ctors := !ctors @ List.map mangle f.Sof.Object_file.ctors)
    frags;
  let defined n =
    List.exists (fun (s : Sof.Symbol.t) -> s.name = n && Sof.Symbol.is_defined s) !symbols
  in
  Sof.Object_file.make ~name ~text:(Buffer.to_bytes text) ~data:(Buffer.to_bytes data)
    ~bss_size:!bss ~relocs:!relocs ~ctors:!ctors
    (List.filter
       (fun (s : Sof.Symbol.t) -> Sof.Symbol.is_defined s || not (defined s.name))
       !symbols)

(* [n] fragments, each with a call to the next fragment (resolved inside
   the combination but the last), a call to an external every fragment
   shares, a local constructor, a local datum with a pointer to it,
   0 to 2 bytes of string data and 1 to 5 bytes of local bss, so every
   fragment's data and bss need padding differently. *)
let synthetic_fragments n =
  List.init n (fun i ->
      let a = Sof.Asm.create (Printf.sprintf "s%d.o" i) in
      Sof.Asm.label a (Printf.sprintf "fn%d" i);
      Sof.Asm.call a (Printf.sprintf "fn%d" (i + 1));
      Sof.Asm.call a "ext";
      Sof.Asm.lea a 2 "local";
      Sof.Asm.instr a Svm.Isa.Ret;
      Sof.Asm.label a ~binding:Sof.Symbol.Local "init";
      Sof.Asm.instr a Svm.Isa.Ret;
      Sof.Asm.ctor a "init";
      Sof.Asm.data_label a ~binding:Sof.Symbol.Local "local";
      Sof.Asm.data_word a (Int32.of_int i);
      Sof.Asm.data_word_sym a "local";
      Sof.Asm.data_string a (String.make (i mod 3) 'x');
      Sof.Asm.bss ~binding:Sof.Symbol.Local a "buf" (1 + (i mod 5));
      Sof.Asm.finish a)

let test_combine_matches_reference () =
  let same what frags =
    Alcotest.(check string) what
      (Bytes.to_string (Sof.Codec.encode (reference_combine ~name:"c.o" frags)))
      (Bytes.to_string (Sof.Codec.encode (Linker.Link.combine ~name:"c.o" frags)))
  in
  same "libc members" (List.map snd (Workloads.Libc_gen.objects ()));
  same "500 synthetic fragments" (synthetic_fragments 500)

(* The full link written plainly, resolving names as [Link.link] did
   before its indexes: a relocation searches its fragment's symbol list
   for the fragment's own definition, then the table of exported
   definitions, then the external images; the undefined names are each
   fragment's [Object_file.undefined], resolved a second time. The
   provenance journal is left out. [Link.link] must produce the same
   image, statistics and errors. *)
let reference_link ?entry ?(externals = []) ?(allow_undefined = false)
    ~(layout : Linker.Link.layout) (frags : Sof.Object_file.t list) =
  let open Sof in
  let align4 v = (v + 3) / 4 * 4 in
  let rev_placed, text_size, data_size, bss_size =
    List.fold_left
      (fun (acc, t, d, b) (f : Object_file.t) ->
        ( (f, t, d, b) :: acc,
          t + Bytes.length f.text,
          align4 (d + Bytes.length f.data),
          align4 (b + f.bss_size) ))
      ([], 0, 0, 0) frags
  in
  let placed = List.rev rev_placed in
  let tb = layout.Linker.Link.text_base and db = layout.Linker.Link.data_base in
  let bb = align4 (db + data_size) in
  let error e = raise (Linker.Link.Link_error e) in
  if tb + text_size > db && db + data_size + bss_size > tb then
    error (Linker.Link.Layout_overlap "text/data segments");
  let addr (_, t, d, b) (s : Symbol.t) =
    match s.kind with
    | Symbol.Text -> tb + t + s.value
    | Symbol.Data -> db + d + s.value
    | Symbol.Bss -> bb + b + s.value
    | Symbol.Abs -> s.value
    | Symbol.Undef -> assert false
  in
  let globals = Hashtbl.create 64 in
  List.iter
    (fun (((f : Object_file.t), _, _, _) as p) ->
      List.iter
        (fun (s : Symbol.t) ->
          if Symbol.is_exported s then
            match (Hashtbl.find_opt globals s.name, s.binding) with
            | None, _ | Some (_, _, Symbol.Weak), Symbol.Global ->
                Hashtbl.replace globals s.name (addr p s, f.name, s.binding)
            | Some (_, f1, Symbol.Global), Symbol.Global ->
                error (Linker.Link.Duplicate (s.name, f1, f.name))
            | Some _, _ -> ())
        f.symbols)
    placed;
  let external_syms = Hashtbl.create 64 in
  List.iter
    (fun (img : Linker.Image.t) ->
      List.iter
        (fun (n, a) -> if not (Hashtbl.mem external_syms n) then Hashtbl.add external_syms n a)
        img.Linker.Image.symtab)
    externals;
  let text = Bytes.make text_size '\000' and data = Bytes.make data_size '\000' in
  List.iter
    (fun ((f : Object_file.t), t, d, _) ->
      Bytes.blit f.text 0 text t (Bytes.length f.text);
      Bytes.blit f.data 0 data d (Bytes.length f.data))
    placed;
  let resolve (((f : Object_file.t), _, _, _) as p) name =
    match
      List.find_opt (fun (s : Symbol.t) -> s.name = name && Symbol.is_defined s) f.symbols
    with
    | Some s -> Some (addr p s)
    | None -> (
        match Hashtbl.find_opt globals name with
        | Some (a, _, _) -> Some a
        | None -> Hashtbl.find_opt external_syms name)
  in
  let applied = ref 0 in
  List.iter
    (fun (((f : Object_file.t), t, d, _) as p) ->
      List.iter
        (fun (r : Reloc.t) ->
          match resolve p r.symbol with
          | None -> ()
          | Some a -> (
              incr applied;
              match r.target with
              | Reloc.In_text ->
                  let site = t + r.offset in
                  let v =
                    match r.kind with
                    | Reloc.Abs32 -> a + r.addend
                    | Reloc.Pcrel32 ->
                        a + r.addend - (tb + site - Svm.Isa.imm_offset + Svm.Isa.width)
                  in
                  Bytes.set_int32_le text site (Int32.of_int v)
              | Reloc.In_data ->
                  let site = d + r.offset in
                  let v =
                    match r.kind with
                    | Reloc.Abs32 -> a + r.addend
                    | Reloc.Pcrel32 -> a + r.addend - (db + site)
                  in
                  Bytes.set_int32_le data site (Int32.of_int v)))
        f.relocs)
    placed;
  let missing =
    List.sort_uniq compare
      (List.concat_map
         (fun ((f, _, _, _) as p) ->
           List.filter (fun n -> resolve p n = None) (Object_file.undefined f))
         placed)
  in
  if missing <> [] && not allow_undefined then error (Linker.Link.Undefined missing);
  let global n = Option.map (fun (a, _, _) -> a) (Hashtbl.find_opt globals n) in
  let entry_addr =
    match entry with
    | Some n -> global n
    | None -> ( match global "_start" with Some a -> Some a | None -> global "main")
  in
  let segment seg_name vaddr bytes writable = { Linker.Image.seg_name; vaddr; bytes; writable } in
  ( {
      Linker.Image.name =
        (match frags with [] -> "<empty>" | f :: _ -> f.Object_file.name);
      segments = [ segment "text" tb text false; segment "data" db data true ];
      bss_vaddr = bb;
      bss_size;
      entry = Option.value entry_addr ~default:(-1);
      symtab =
        List.sort compare (Hashtbl.fold (fun n (a, _, _) acc -> (n, a) :: acc) globals []);
      reloc_work = !applied;
    },
    {
      Linker.Link.fragments = List.length frags;
      relocs_applied = !applied;
      symbols_resolved = !applied;
      undefined = missing;
    } )

(* Fragments exercising every resolution rule: explicit undefined
   entries satisfied by another fragment's global, by the fragment's own
   local, by a sibling's local (which does not count), by an external
   image, and by nothing; a local defined in many fragments; names
   defined twice in one fragment (the first definition is the
   fragment's own); weak and global definitions in every order. *)
let resolution_fragments () =
  let frag name body =
    let a = Sof.Asm.create name in
    body a;
    Sof.Asm.finish a
  in
  let ret a = Sof.Asm.instr a Svm.Isa.Ret in
  let def ?binding a n =
    Sof.Asm.label ?binding a n;
    ret a
  in
  let undefs =
    frag "undefs.o" (fun a ->
        List.iter (Sof.Asm.extern a) [ "sat"; "unsat"; "mine"; "sib_local"; "ext_a" ];
        Sof.Asm.label a "_start";
        Sof.Asm.call a "sat";
        Sof.Asm.call a "mine";
        Sof.Asm.call a "unsat_call";
        def ~binding:Sof.Symbol.Local a "mine")
  in
  let provider =
    frag "provider.o" (fun a ->
        def a "sat";
        def ~binding:Sof.Symbol.Local a "sib_local";
        def ~binding:Sof.Symbol.Weak a "w_then_g";
        def a "g_then_w";
        def ~binding:Sof.Symbol.Weak a "w_twice";
        Sof.Asm.call a "w_then_g";
        Sof.Asm.call a "w_twice")
  in
  let mixer =
    frag "mixer.o" (fun a ->
        def a "w_then_g";
        def ~binding:Sof.Symbol.Weak a "g_then_w";
        def ~binding:Sof.Symbol.Weak a "w_twice";
        Sof.Asm.call a "g_then_w";
        Sof.Asm.call a "ext_b")
  in
  let twice =
    frag "twice.o" (fun a ->
        Sof.Asm.call a "dup_local";
        Sof.Asm.call a "local_then_global";
        def ~binding:Sof.Symbol.Local a "dup_local";
        def ~binding:Sof.Symbol.Local a "dup_local";
        def ~binding:Sof.Symbol.Local a "local_then_global";
        def a "local_then_global";
        Sof.Asm.data_label ~binding:Sof.Symbol.Local a "dup_local";
        Sof.Asm.data_word_sym a "dup_local")
  in
  let users =
    List.init 40 (fun i ->
        frag (Printf.sprintf "user%d.o" i) (fun a ->
            Sof.Asm.call a "loop";
            Sof.Asm.call a "local_then_global";
            Sof.Asm.lea a 2 "loop";
            def ~binding:Sof.Symbol.Local a "loop";
            Sof.Asm.data_label ~binding:Sof.Symbol.Local a "cell";
            Sof.Asm.data_word_sym a ~addend:(4 * i) "cell"))
  in
  (undefs :: provider :: mixer :: twice :: users)

(* An image whose symbol table satisfies [names], each at an address
   of its own; a second image repeats the first name elsewhere (the
   first image's definition is kept). *)
let external_images names =
  let image name base names =
    {
      Linker.Image.name;
      segments = [];
      bss_vaddr = 0;
      bss_size = 0;
      entry = -1;
      symtab = List.mapi (fun i n -> (n, base + (16 * i))) names;
      reloc_work = 0;
    }
  in
  [ image "ext1" 0x700000 names; image "ext2" 0x780000 (List.filteri (fun i _ -> i = 0) names) ]

let test_link_matches_reference () =
  let outcome link =
    match link () with
    | img, (st : Linker.Link.stats) ->
        Printf.sprintf "image %s, %d fragments, %d relocs, %d resolved, undefined [%s]"
          (Digest.to_hex (Digest.bytes (Linker.Image.encode img)))
          st.Linker.Link.fragments st.relocs_applied st.symbols_resolved
          (String.concat " " st.undefined)
    | exception Linker.Link.Link_error e -> "Link_error " ^ Linker.Link.error_to_string e
  in
  let big = { Linker.Link.text_base = 0x10000; data_base = 0x200000 } in
  let same ?entry ?(externals = []) ?(layout = big) what frags =
    List.iter
      (fun allow_undefined ->
        Alcotest.(check string)
          (Printf.sprintf "%s (allow_undefined=%b)" what allow_undefined)
          (outcome (fun () -> reference_link ?entry ~externals ~allow_undefined ~layout frags))
          (outcome (fun () -> Linker.Link.link ?entry ~externals ~allow_undefined ~layout frags)))
      [ false; true ]
  in
  let libc = List.map snd (Workloads.Libc_gen.objects ()) in
  same "libc members" libc;
  same "libc members, entry" ~entry:"malloc" libc;
  let synthetic = synthetic_fragments 500 in
  same "500 synthetic fragments" synthetic;
  same "500 synthetic fragments, externals" ~externals:(external_images [ "ext" ]) synthetic;
  let resolution = resolution_fragments () in
  same "resolution rules" resolution;
  same "resolution rules, externals"
    ~externals:(external_images [ "ext_a"; "ext_b"; "unsat"; "sat"; "loop" ])
    resolution;
  same "resolution rules and libc" ~entry:"nowhere" (resolution @ libc);
  same "duplicate global" (g_frag () :: resolution @ [ g_frag () ]);
  same "duplicate global in one fragment"
    [
      (let a = Sof.Asm.create "dup.o" in
       Sof.Asm.label a "d";
       Sof.Asm.label a "d";
       Sof.Asm.instr a Svm.Isa.Ret;
       Sof.Asm.finish a);
    ];
  same "layout overlap" ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x1100 } libc;
  same "no fragments" []

(* -- encoded_size ------------------------------------------------------- *)

let check_encoded_size what (img : Linker.Image.t) =
  Alcotest.(check int) what
    (Bytes.length (Linker.Image.encode img))
    (Linker.Image.encoded_size img)

let blank_image =
  {
    Linker.Image.name = "blank";
    segments = [];
    bss_vaddr = 0;
    bss_size = 0;
    entry = -1;
    symtab = [];
    reloc_work = 0;
  }

let test_encoded_size_edges () =
  check_encoded_size "no segments, entry -1" blank_image;
  check_encoded_size "empty name" { blank_image with Linker.Image.name = "" };
  check_encoded_size "bss only"
    { blank_image with Linker.Image.bss_vaddr = 0x9000; bss_size = 0x1000; entry = 0x1000 };
  check_encoded_size "large symtab"
    {
      blank_image with
      Linker.Image.symtab =
        List.init 5000 (fun i -> (String.make (i mod 40) 's' ^ string_of_int i, i * 4));
    };
  let img, _ = Linker.Link.link ~layout [ main_frag (); f_frag (); g_frag () ] in
  check_encoded_size "linked" img

(* Every image a world builds: its libraries, the interposition demo
   and a static client bound to libc. *)
let test_encoded_size_world_images () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let image (b : Omos.Server.built) = b.Omos.Server.entry.Omos.Cache.image in
  let lib path = image (Omos.Server.build s (Omos.Server.library path)) in
  List.iter (fun p -> check_encoded_size p (lib p)) ("/demo/hello" :: Omos.World.codegen_libs);
  let client =
    Omos.Server.static ~name:"ls.static" ~externals:[ lib "/lib/libc" ]
      (Blueprint.Mgraph.Merge
         (List.map (fun o -> Blueprint.Mgraph.Leaf o) (Omos.World.ls_client w)))
  in
  check_encoded_size "static client" (image (Omos.Server.build s client))

let gen_image : Linker.Image.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = string_size ~gen:printable (0 -- 24) in
  let addr = 0 -- 0x7FFFFFFF in
  let segment =
    map4
      (fun seg_name vaddr len writable ->
        { Linker.Image.seg_name; vaddr; bytes = Bytes.make len 'b'; writable })
      name addr (0 -- 600) bool
  in
  map
    (fun ((name, segments, bss_vaddr, bss_size), (entry, symtab, reloc_work)) ->
      { Linker.Image.name; segments; bss_vaddr; bss_size; entry; symtab; reloc_work })
    (pair
       (quad name (list_size (0 -- 4) segment) addr (0 -- 0x10000))
       (triple (oneof [ return (-1); addr ]) (list_size (0 -- 50) (pair name addr)) (0 -- 10_000)))

let prop_encoded_size =
  QCheck.Test.make ~count:200 ~name:"encoded_size = length of encode"
    (QCheck.make gen_image)
    (fun img -> Linker.Image.encoded_size img = Bytes.length (Linker.Image.encode img))

(* -- properties --------------------------------------------------------- *)

let prop_layout_no_symbol_below_base =
  QCheck.Test.make ~count:50 ~name:"all symbols placed at/above their base"
    (QCheck.int_range 1 40)
    (fun n ->
      let frags =
        List.init n (fun i ->
            let a = Sof.Asm.create (Printf.sprintf "f%d.o" i) in
            Sof.Asm.label a (Printf.sprintf "fn%d" i);
            Sof.Asm.instr a Svm.Isa.Ret;
            Sof.Asm.data_label a (Printf.sprintf "d%d" i);
            Sof.Asm.data_word a (Int32.of_int i);
            Sof.Asm.finish a)
      in
      let img, _ =
        Linker.Link.link ~layout:{ Linker.Link.text_base = 0x4000; data_base = 0x40000 } frags
      in
      List.for_all (fun (_, addr) -> addr >= 0x4000) img.Linker.Image.symtab)

let () =
  Alcotest.run "linker"
    [
      ( "link",
        [
          Alcotest.test_case "link and run" `Quick test_link_and_run;
          Alcotest.test_case "undefined raises" `Quick test_undefined_raises;
          Alcotest.test_case "allow undefined" `Quick test_allow_undefined;
          Alcotest.test_case "duplicate raises" `Quick test_duplicate_global_raises;
          Alcotest.test_case "weak loses" `Quick test_weak_loses_to_global;
          Alcotest.test_case "weak alone" `Quick test_weak_used_when_alone;
          Alcotest.test_case "local per fragment" `Quick test_local_resolution_is_per_fragment;
          Alcotest.test_case "external image" `Quick test_external_image_binding;
          Alcotest.test_case "reloc work" `Quick test_reloc_work_counted;
          Alcotest.test_case "entry fallback" `Quick test_entry_fallback_to_main;
          Alcotest.test_case "extent and digest" `Quick test_image_extent_and_digest;
          Alcotest.test_case "matches reference" `Quick test_link_matches_reference;
        ] );
      ( "combine",
        [
          Alcotest.test_case "combine then link" `Quick test_combine_then_link;
          Alcotest.test_case "mangles locals" `Quick test_combine_mangles_locals;
          Alcotest.test_case "preserves ctors" `Quick test_combine_preserves_ctors;
          Alcotest.test_case "nesting" `Quick test_combine_is_associative_behaviour;
          Alcotest.test_case "matches reference" `Quick test_combine_matches_reference;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "edge cases" `Quick test_encoded_size_edges;
          Alcotest.test_case "world images" `Quick test_encoded_size_world_images;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_layout_no_symbol_below_base; prop_encoded_size ] );
    ]
