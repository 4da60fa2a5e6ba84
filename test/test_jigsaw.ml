(* Tests of the Jigsaw module operators — including executable checks
   that the binding semantics (override rebinding, freeze/hide fixing
   bindings, the paper's Figure 2 interposition pattern) actually hold
   when the module is linked and run. *)

let layout = { Linker.Link.text_base = 0x1000; data_base = 0x8000 }

let sel = Jigsaw.Select.compile

(* A mini "libc": malloc returns 100, free returns 0; util calls malloc
   internally and adds 1. *)
let libc_frag () =
  let a = Sof.Asm.create "libc.o" in
  Sof.Asm.label a "_malloc";
  Sof.Asm.instrs a [ Svm.Isa.Movi (0, 100l); Svm.Isa.Ret ];
  Sof.Asm.label a "_free";
  Sof.Asm.instrs a [ Svm.Isa.Movi (0, 0l); Svm.Isa.Ret ];
  Sof.Asm.label a "_util";
  Sof.Asm.instrs a
    [ Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, -4l);
      Svm.Isa.St (Svm.Isa.reg_sp, Svm.Isa.reg_ra, 0l) ];
  Sof.Asm.call a "_malloc";
  Sof.Asm.instrs a
    [ Svm.Isa.Addi (0, 0, 1l);
      Svm.Isa.Ld (Svm.Isa.reg_ra, Svm.Isa.reg_sp, 0l);
      Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, 4l);
      Svm.Isa.Ret ];
  Sof.Asm.finish a

(* main: r5 := malloc(); r6 := util(); halt *)
let main_frag () =
  let a = Sof.Asm.create "main.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.call a "_malloc";
  Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
  Sof.Asm.call a "_util";
  Sof.Asm.instr a (Svm.Isa.Mov (6, 0));
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.finish a

(* replacement malloc: returns 200 *)
let new_malloc_frag () =
  let a = Sof.Asm.create "test_malloc.o" in
  Sof.Asm.label a "_malloc";
  Sof.Asm.instrs a [ Svm.Isa.Movi (0, 200l); Svm.Isa.Ret ];
  Sof.Asm.finish a

(* wrapper malloc: calls _REAL_malloc and adds 1000 *)
let wrapper_malloc_frag () =
  let a = Sof.Asm.create "wrap_malloc.o" in
  Sof.Asm.label a "_malloc";
  Sof.Asm.instrs a
    [ Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, -4l);
      Svm.Isa.St (Svm.Isa.reg_sp, Svm.Isa.reg_ra, 0l) ];
  Sof.Asm.call a "_REAL_malloc";
  Sof.Asm.instrs a
    [ Svm.Isa.Movi (2, 1000l); Svm.Isa.Add (0, 0, 2);
      Svm.Isa.Ld (Svm.Isa.reg_ra, Svm.Isa.reg_sp, 0l);
      Svm.Isa.Addi (Svm.Isa.reg_sp, Svm.Isa.reg_sp, 4l);
      Svm.Isa.Ret ];
  Sof.Asm.finish a

let run_module (m : Jigsaw.Module_ops.t) =
  let img, _ = Linker.Link.link ~layout (Jigsaw.Module_ops.fragments m) in
  let mem, buf = Svm.Cpu.flat_mem 0x20000 in
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  Svm.Cpu.set_reg cpu Svm.Isa.reg_sp 0x1F000l;
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:10_000 cpu);
  cpu

let r5 cpu = Svm.Cpu.get_reg cpu 5
let r6 cpu = Svm.Cpu.get_reg cpu 6

let mk_module () =
  Jigsaw.Module_ops.merge
    (Jigsaw.Module_ops.of_object (main_frag ()))
    (Jigsaw.Module_ops.of_object (libc_frag ()))

(* -- basic queries ------------------------------------------------------ *)

let test_exports_and_undefined () =
  let m = Jigsaw.Module_ops.of_object (main_frag ()) in
  Alcotest.(check (list string)) "exports" [ "_start" ] (Jigsaw.Module_ops.exports m);
  Alcotest.(check (list string)) "undefined" [ "_malloc"; "_util" ]
    (Jigsaw.Module_ops.undefined m)

let test_merge_resolves () =
  let m = mk_module () in
  Alcotest.(check (list string)) "nothing undefined" [] (Jigsaw.Module_ops.undefined m);
  let cpu = run_module m in
  Alcotest.(check int32) "malloc" 100l (r5 cpu);
  Alcotest.(check int32) "util" 101l (r6 cpu)

let test_merge_duplicate_error () =
  try
    ignore
      (Jigsaw.Module_ops.merge
         (Jigsaw.Module_ops.of_object (libc_frag ()))
         (Jigsaw.Module_ops.of_object (new_malloc_frag ())));
    Alcotest.fail "expected Module_error"
  with Jigsaw.Module_ops.Module_error _ -> ()

(* -- override ----------------------------------------------------------- *)

let test_override_replaces_and_rebinds () =
  (* override libc with new malloc: client AND libc-internal callers
     (util) must both see the new definition *)
  let m =
    Jigsaw.Module_ops.merge
      (Jigsaw.Module_ops.of_object (main_frag ()))
      (Jigsaw.Module_ops.override
         (Jigsaw.Module_ops.of_object (libc_frag ()))
         (Jigsaw.Module_ops.of_object (new_malloc_frag ())))
  in
  let cpu = run_module m in
  Alcotest.(check int32) "client rebound" 200l (r5 cpu);
  Alcotest.(check int32) "internal rebound" 201l (r6 cpu)

(* -- freeze ------------------------------------------------------------- *)

let test_freeze_prevents_rebinding () =
  (* freeze _malloc inside libc first: util's internal call is fixed;
     a later override replaces the public malloc only *)
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let frozen = Jigsaw.Module_ops.freeze ~key:"0" (sel "^_malloc$") libc in
  let m =
    Jigsaw.Module_ops.merge
      (Jigsaw.Module_ops.of_object (main_frag ()))
      (Jigsaw.Module_ops.override frozen
         (Jigsaw.Module_ops.of_object (new_malloc_frag ())))
  in
  let cpu = run_module m in
  Alcotest.(check int32) "client sees new" 200l (r5 cpu);
  Alcotest.(check int32) "internal frozen to old" 101l (r6 cpu)

(* -- hide --------------------------------------------------------------- *)

let test_hide_removes_export_keeps_internal () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let hidden = Jigsaw.Module_ops.hide ~key:"0" (sel "^_malloc$") libc in
  Alcotest.(check bool) "not exported" true
    (not (List.mem "_malloc" (Jigsaw.Module_ops.exports hidden)));
  (* client's _malloc reference is now unbound *)
  let m0 =
    { (Jigsaw.Module_ops.merge (Jigsaw.Module_ops.of_object (main_frag ())) hidden) with
      Jigsaw.Module_ops.label = "test" }
  in
  Alcotest.(check (list string)) "client ref unbound" [ "_malloc" ]
    (Jigsaw.Module_ops.undefined m0);
  (* but merging a new malloc binds the client, while util still uses
     the hidden original *)
  let m = Jigsaw.Module_ops.merge m0 (Jigsaw.Module_ops.of_object (new_malloc_frag ())) in
  let cpu = run_module m in
  Alcotest.(check int32) "client gets new" 200l (r5 cpu);
  Alcotest.(check int32) "util keeps hidden" 101l (r6 cpu)

let test_show_complement () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let shown = Jigsaw.Module_ops.show ~key:"0" (sel "^_malloc$") libc in
  let exports = Jigsaw.Module_ops.exports shown in
  Alcotest.(check bool) "malloc visible" true (List.mem "_malloc" exports);
  Alcotest.(check bool) "free hidden" false (List.mem "_free" exports);
  Alcotest.(check bool) "util hidden" false (List.mem "_util" exports)

(* -- restrict / project -------------------------------------------------- *)

let test_restrict_virtualizes () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let r = Jigsaw.Module_ops.restrict (sel "^_malloc$") libc in
  Alcotest.(check bool) "def removed" true
    (not (List.mem "_malloc" (Jigsaw.Module_ops.exports r)));
  Alcotest.(check bool) "ref still there (from util)" true
    (List.mem "_malloc" (Jigsaw.Module_ops.undefined r))

let test_project_keeps_only_selected () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let p = Jigsaw.Module_ops.project (sel "^_malloc$") libc in
  Alcotest.(check (list string)) "only malloc" [ "_malloc" ] (Jigsaw.Module_ops.exports p)

(* -- copy_as / rename ----------------------------------------------------- *)

let test_copy_as () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let c = Jigsaw.Module_ops.copy_as (sel "^_malloc$") "_REAL_malloc" libc in
  let exports = Jigsaw.Module_ops.exports c in
  Alcotest.(check bool) "original" true (List.mem "_malloc" exports);
  Alcotest.(check bool) "copy" true (List.mem "_REAL_malloc" exports)

let test_rename_with_groups () =
  let libc = Jigsaw.Module_ops.of_object (libc_frag ()) in
  let renamed = Jigsaw.Module_ops.rename (sel "^_\\(.*\\)$") "pkg_\\1" libc in
  let exports = Jigsaw.Module_ops.exports renamed in
  Alcotest.(check bool) "pkg_malloc" true (List.mem "pkg_malloc" exports);
  Alcotest.(check bool) "no _malloc" false (List.mem "_malloc" exports)

let test_rename_refs_only_reroutes () =
  (* Figure 3 pattern: reroute refs to a bad routine to _abort *)
  let bad =
    let a = Sof.Asm.create "bad.o" in
    Sof.Asm.label a "caller";
    Sof.Asm.call a "_undefined_routine";
    Sof.Asm.instr a Svm.Isa.Ret;
    Sof.Asm.finish a
  in
  let m = Jigsaw.Module_ops.of_object bad in
  let m = Jigsaw.Module_ops.rename ~scope:Jigsaw.Module_ops.Refs_only
      (sel "^_undefined_routine$") "_abort" m
  in
  Alcotest.(check (list string)) "now refs abort" [ "_abort" ]
    (Jigsaw.Module_ops.undefined m)

(* -- figure 2: the full interposition pattern ----------------------------- *)

let test_figure2_interposition () =
  (* (hide "_REAL_malloc" (merge (restrict "^_malloc$" (copy_as
     "^_malloc$" "_REAL_malloc" (merge main libc))) wrapper)) *)
  let base = mk_module () in
  let stashed = Jigsaw.Module_ops.copy_as (sel "^_malloc$") "_REAL_malloc" base in
  let virtualized = Jigsaw.Module_ops.restrict (sel "^_malloc$") stashed in
  let merged =
    Jigsaw.Module_ops.merge virtualized
      (Jigsaw.Module_ops.of_object (wrapper_malloc_frag ()))
  in
  let final = Jigsaw.Module_ops.hide ~key:"0" (sel "^_REAL_malloc$") merged in
  let cpu = run_module final in
  (* wrapper = REAL_malloc() + 1000 = 1100; client and util both go
     through the wrapper *)
  Alcotest.(check int32) "client trapped" 1100l (r5 cpu);
  Alcotest.(check int32) "util trapped" 1101l (r6 cpu);
  Alcotest.(check bool) "REAL hidden" true
    (not (List.mem "_REAL_malloc" (Jigsaw.Module_ops.exports final)))

(* -- initializers --------------------------------------------------------- *)

let test_initializers () =
  (* two ctors increment a counter; __init must call both in order *)
  let lib =
    let a = Sof.Asm.create "ctors.o" in
    Sof.Asm.label a "ctor_one";
    Sof.Asm.lea a 2 "counter";
    Sof.Asm.instrs a
      [ Svm.Isa.Ld (3, 2, 0l); Svm.Isa.Addi (3, 3, 1l); Svm.Isa.St (2, 3, 0l); Svm.Isa.Ret ];
    Sof.Asm.ctor a "ctor_one";
    Sof.Asm.label a "ctor_two";
    Sof.Asm.lea a 2 "counter";
    Sof.Asm.instrs a
      [ Svm.Isa.Ld (3, 2, 0l); Svm.Isa.Movi (4, 10l); Svm.Isa.Mul (3, 3, 4);
        Svm.Isa.St (2, 3, 0l); Svm.Isa.Ret ];
    Sof.Asm.ctor a "ctor_two";
    Sof.Asm.data_label a "counter";
    Sof.Asm.data_word a 0l;
    Sof.Asm.finish a
  in
  let main =
    let a = Sof.Asm.create "m.o" in
    Sof.Asm.label a "_start";
    Sof.Asm.call a "__init";
    Sof.Asm.lea a 2 "counter";
    Sof.Asm.instrs a [ Svm.Isa.Ld (5, 2, 0l); Svm.Isa.Halt ];
    Sof.Asm.finish a
  in
  let m =
    Jigsaw.Module_ops.initializers
      (Jigsaw.Module_ops.merge
         (Jigsaw.Module_ops.of_object main)
         (Jigsaw.Module_ops.of_object lib))
  in
  let cpu = run_module m in
  (* (0+1)*10 = 10: order matters *)
  Alcotest.(check int32) "ctors ran in order" 10l (r5 cpu)

(* -- to_object ------------------------------------------------------------ *)

let test_to_object_flattens () =
  let m = mk_module () in
  let o = Jigsaw.Module_ops.to_object ~name:"flat.o" m in
  Alcotest.(check bool) "start" true (Sof.Object_file.defines o "_start");
  Alcotest.(check bool) "malloc" true (Sof.Object_file.defines o "_malloc")

(* -- properties ------------------------------------------------------------ *)

(* algebraic laws over exported namespaces *)
let exports_of m = List.sort compare (Jigsaw.Module_ops.exports m)

let prop_project_is_restrict_complement =
  QCheck.Test.make ~count:30 ~name:"project sel = restrict (complement sel)" QCheck.unit
    (fun () ->
      let m = Jigsaw.Module_ops.of_object (libc_frag ()) in
      let keep = sel "^_malloc$" in
      let projected = Jigsaw.Module_ops.project keep m in
      let complement =
        Jigsaw.Module_ops.restrict (sel "^_\\(free\\|util\\)$") m
      in
      exports_of projected = exports_of complement)

let prop_hide_idempotent =
  QCheck.Test.make ~count:30 ~name:"hide is idempotent on exports" QCheck.unit
    (fun () ->
      let m = Jigsaw.Module_ops.of_object (libc_frag ()) in
      let once = Jigsaw.Module_ops.hide ~key:"0" (sel "^_malloc$") m in
      let twice = Jigsaw.Module_ops.hide ~key:"0" (sel "^_malloc$") once in
      exports_of once = exports_of twice)

let prop_merge_exports_commute =
  QCheck.Test.make ~count:30 ~name:"merge exports commute for disjoint modules"
    QCheck.unit
    (fun () ->
      let a = Jigsaw.Module_ops.of_object (main_frag ()) in
      let b = Jigsaw.Module_ops.of_object (libc_frag ()) in
      exports_of (Jigsaw.Module_ops.merge a b)
      = exports_of (Jigsaw.Module_ops.merge b a))

let prop_override_exports_union =
  QCheck.Test.make ~count:30 ~name:"override exports = union of exports" QCheck.unit
    (fun () ->
      let a = Jigsaw.Module_ops.of_object (libc_frag ()) in
      let b = Jigsaw.Module_ops.of_object (new_malloc_frag ()) in
      let united =
        List.sort_uniq compare
          (Jigsaw.Module_ops.exports a @ Jigsaw.Module_ops.exports b)
      in
      exports_of (Jigsaw.Module_ops.override a b) = united)

let prop_restrict_then_merge_restores =
  QCheck.Test.make ~count:50 ~name:"restrict+merge same def behaves like original"
    QCheck.unit
    (fun () ->
      let m = mk_module () in
      let m' =
        Jigsaw.Module_ops.merge
          (Jigsaw.Module_ops.restrict (sel "^_malloc$") m)
          (Jigsaw.Module_ops.of_object (new_malloc_frag ()))
      in
      let cpu = run_module m' in
      r5 cpu = 200l && r6 cpu = 201l)

let prop_rename_roundtrip_preserves_behaviour =
  QCheck.Test.make ~count:30 ~name:"rename away and back preserves behaviour"
    QCheck.unit
    (fun () ->
      let m = mk_module () in
      let m' =
        Jigsaw.Module_ops.rename (sel "^zz_\\(.*\\)$") "_\\1"
          (Jigsaw.Module_ops.rename (sel "^_\\(.*\\)$") "zz_\\1" m)
      in
      let cpu = run_module m' in
      r5 cpu = 100l && r6 cpu = 101l)

(* merge_list against the pairwise fold it replaces. An operand list is
   1 to 5 operands of 1 to 3 objects each; every object defines unique
   globals, weak names shared across the list and a local. Injections
   then re-define one object's first global, as a global, in an object
   of the same operand, in the same object, or in another operand. *)
type merge_case = {
  defs : (string * Sof.Symbol.binding) list list list;  (** operand, object, defs *)
  injected : (int * int * int * int) list;  (** from (operand, object) to (operand, object) *)
}

let gen_merge_case : merge_case QCheck.Gen.t =
  let open QCheck.Gen in
  let def i j k =
    frequency
      [
        (3, return (Printf.sprintf "g%d_%d_%d" i j k, Sof.Symbol.Global));
        (1, map (fun w -> (Printf.sprintf "w%d" w, Sof.Symbol.Weak)) (0 -- 1));
        (1, return ("l", Sof.Symbol.Local));
      ]
  in
  let obj i j = int_range 0 3 >>= fun n -> flatten_l (List.init n (def i j)) in
  let operand i = int_range 1 3 >>= fun n -> flatten_l (List.init n (obj i)) in
  let* n = frequency [ (1, return 0); (1, return 1); (8, int_range 2 5) ] in
  let* defs = flatten_l (List.init n operand) in
  let* injected = list_size (0 -- 3) (quad (0 -- 4) (0 -- 2) (0 -- 4) (0 -- 2)) in
  return { defs; injected }

let merge_operands (c : merge_case) : Jigsaw.Module_ops.t list =
  let defs = Array.of_list (List.map Array.of_list c.defs) in
  let pick (i, j) =
    let op = defs.(i mod Array.length defs) in
    (i mod Array.length defs, j mod Array.length op)
  in
  if Array.length defs > 0 then
    List.iter
      (fun (i, j, i', j') ->
        let i, j = pick (i, j) and i', j' = pick (i', j') in
        match List.find_opt (fun (_, b) -> b = Sof.Symbol.Global) defs.(i).(j) with
        | Some (n, _) -> defs.(i').(j') <- defs.(i').(j') @ [ (n, Sof.Symbol.Global) ]
        | None -> ())
      c.injected;
  Array.to_list
    (Array.mapi
       (fun i objs ->
         Jigsaw.Module_ops.of_objects ~label:(Printf.sprintf "op%d" i)
           (Array.to_list
              (Array.mapi
                 (fun j ds ->
                   Sof.Object_file.make ~name:(Printf.sprintf "/m%d_%d.o" i j)
                     ~text:Bytes.empty
                     (List.map
                        (fun (n, b) ->
                          Sof.Symbol.make ~binding:b ~kind:Sof.Symbol.Abs ~value:0 n)
                        ds))
                 objs)))
       defs)

let prop_merge_list_is_fold =
  QCheck.Test.make ~count:500 ~long_factor:50 ~name:"merge_list = pairwise fold"
    (QCheck.make
       ~print:(fun c ->
         String.concat " | "
           (List.map
              (fun objs ->
                String.concat "; "
                  (List.map (fun ds -> String.concat "," (List.map fst ds)) objs))
              c.defs)
         ^ Printf.sprintf " (%d injections)" (List.length c.injected))
       gen_merge_case)
    (fun c ->
      let run f =
        let before = Telemetry.Counter.get "jigsaw.ops" in
        let r =
          match f (merge_operands c) with
          | m -> Ok (Jigsaw.Module_ops.label m, Jigsaw.Module_ops.fragments m)
          | exception Jigsaw.Module_ops.Module_error msg -> Error msg
        in
        (r, Telemetry.Counter.get "jigsaw.ops" - before)
      in
      let fold = function
        | [] -> Jigsaw.Module_ops.merge_list []
        | m :: rest -> List.fold_left Jigsaw.Module_ops.merge m rest
      in
      run Jigsaw.Module_ops.merge_list = run fold)

let () =
  Alcotest.run "jigsaw"
    [
      ( "basics",
        [
          Alcotest.test_case "exports/undefined" `Quick test_exports_and_undefined;
          Alcotest.test_case "merge resolves" `Quick test_merge_resolves;
          Alcotest.test_case "merge duplicate" `Quick test_merge_duplicate_error;
          Alcotest.test_case "to_object" `Quick test_to_object_flattens;
        ] );
      ( "binding",
        [
          Alcotest.test_case "override rebinds" `Quick test_override_replaces_and_rebinds;
          Alcotest.test_case "freeze prevents rebinding" `Quick test_freeze_prevents_rebinding;
          Alcotest.test_case "hide" `Quick test_hide_removes_export_keeps_internal;
          Alcotest.test_case "show" `Quick test_show_complement;
          Alcotest.test_case "restrict" `Quick test_restrict_virtualizes;
          Alcotest.test_case "project" `Quick test_project_keeps_only_selected;
          Alcotest.test_case "copy_as" `Quick test_copy_as;
          Alcotest.test_case "rename groups" `Quick test_rename_with_groups;
          Alcotest.test_case "rename refs only" `Quick test_rename_refs_only_reroutes;
        ] );
      ( "composition",
        [
          Alcotest.test_case "figure 2 interposition" `Quick test_figure2_interposition;
          Alcotest.test_case "initializers" `Quick test_initializers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_restrict_then_merge_restores; prop_rename_roundtrip_preserves_behaviour;
            prop_project_is_restrict_complement; prop_hide_idempotent;
            prop_merge_exports_commute; prop_override_exports_union;
            prop_merge_list_is_fold ] );
    ]
