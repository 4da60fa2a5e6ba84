(* Tests of the peephole optimizer: semantics must be identical to the
   debuggable build across the whole behaviour battery (reusing the
   differential program generator), with measurably smaller text. *)

let crt0 () = Workloads.Crt0.obj ()

let run_obj obj =
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x20000 }
      [ crt0 (); obj ]
  in
  let k = Simos.Kernel.create () in
  let out = Buffer.create 64 in
  ignore out;
  let p = Simos.Kernel.create_process k ~args:[ "t" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:obj.Sof.Object_file.name img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  let code = Simos.Kernel.run k p () in
  (code, Simos.Proc.stdout_contents p)

let both src =
  let plain = Minic.Driver.compile ~name:"p.o" src in
  let opt = Minic.Driver.compile ~optimize:true ~name:"o.o" src in
  (plain, opt)

let check_same ?(name = "program") src =
  let plain, opt = both src in
  let c1, o1 = run_obj plain in
  let c2, o2 = run_obj opt in
  Alcotest.(check int) (name ^ ": exit") c1 c2;
  Alcotest.(check string) (name ^ ": output") o1 o2

let test_semantics_preserved_basics () =
  check_same ~name:"arith" "int main() { return (2 + 3 * 4 - 1) % 64; }";
  check_same ~name:"locals"
    "int f(int a, int b) { int s; s = a * 2 + b; return s - 1; } \
     int main() { return f(10, 5); }";
  check_same ~name:"globals" "int g = 7; int main() { g = g + g * 2; return g; }";
  check_same ~name:"arrays"
    "int a[8]; int main() { int i; i = 0; while (i < 8) { a[i] = i * i; i = i + 1; } \
     return a[3] + a[7]; }";
  check_same ~name:"recursion"
    "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } \
     int main() { return fib(11) % 64; }";
  check_same ~name:"shortcircuit"
    "int g = 0; int t() { g = g + 1; return 1; } \
     int main() { int x; x = 0 && t(); x = 1 || t(); return g; }";
  check_same ~name:"strings"
    "int main() { __syscall(1, 1, \"hey\", 3); return 0; }"

let test_semantics_preserved_random () =
  (* reuse shapes similar to the differential generator: nested calls
     and expressions that exercise the push/pop windows heavily *)
  for seed = 1 to 12 do
    let k1 = (seed * 7) mod 23 and k2 = (seed * 13) mod 31 in
    check_same ~name:(Printf.sprintf "gen%d" seed)
      (Printf.sprintf
         "int h(int a, int b) { return a * %d - b * %d + (a & b); } \
          int main() { int a; int b; int c; a = %d; b = %d; c = 0; \
          while (a > 0) { c = c + h(a, b) - h(b, a); a = a - 1; b = b + 1; } \
          return c %% 64; }"
         (k1 + 2) (k2 + 1) (seed + 3) (seed * 2))
  done

let text_size (o : Sof.Object_file.t) = Bytes.length o.Sof.Object_file.text

let test_text_shrinks () =
  let plain, opt = both
      "int f(int a, int b) { return a * 3 + b * 5 - (a & 7) + (b | 1); } \
       int main() { int i; int s; i = 0; s = 0; \
       while (i < 10) { s = s + f(i, s); i = i + 1; } return s % 64; }"
  in
  let p = text_size plain and o = text_size opt in
  Alcotest.(check bool)
    (Printf.sprintf "optimized %d < debuggable %d (>=15%% saved)" o p)
    true
    (float_of_int o <= 0.85 *. float_of_int p)

let test_codegen_size_ratio_matches_paper () =
  (* the paper's codegen: 203 KB optimized vs 289 KB debuggable text —
     a 0.70 ratio. Our optimizer should land in the same region. *)
  let debuggable =
    List.fold_left
      (fun a (_, (o : Sof.Object_file.t)) -> a + text_size o)
      0 (Workloads.Codegen_gen.objects ())
  in
  let optimized =
    List.fold_left
      (fun a o -> a + text_size o)
      0
      (List.map
         (fun f -> Minic.Driver.compile ~optimize:true ~name:"cg.o"
             (Workloads.Codegen_gen.file_source f))
         (List.init Workloads.Codegen_gen.nfiles (fun i -> i)))
  in
  (* compare per-file totals (main excluded on the optimized side) *)
  let debuggable_files =
    List.fold_left
      (fun a (path, (o : Sof.Object_file.t)) ->
        if path = "/obj/codegen/main.o" then a else a + text_size o)
      0 (Workloads.Codegen_gen.objects ())
  in
  ignore debuggable;
  let ratio = float_of_int optimized /. float_of_int debuggable_files in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [0.55, 0.85] (paper: 203/289 = 0.70)" ratio)
    true
    (ratio >= 0.55 && ratio <= 0.85)

let test_optimizer_is_idempotent_on_straightline () =
  (* running the already-optimized object through compile again is not
     possible (no decompiler); instead check the item-level fixed point:
     an optimized function's text contains no push/pop window *)
  let _, opt = both "int main() { int a; a = 1 + 2 + 3 + 4 + 5; return a; }" in
  let instrs = Svm.Encode.disassemble opt.Sof.Object_file.text in
  let rec windows = function
    | Svm.Isa.Addi (s1, _, m) :: Svm.Isa.St (s2, _, _) :: Svm.Isa.Ld (_, s3, _)
      :: Svm.Isa.Addi (s4, _, p) :: _
      when s1 = Svm.Isa.reg_sp && s2 = Svm.Isa.reg_sp && s3 = Svm.Isa.reg_sp
           && s4 = Svm.Isa.reg_sp && m = -4l && p = 4l ->
        true
    | _ :: rest -> windows rest
    | [] -> false
  in
  Alcotest.(check bool) "no residual push/pop windows" false (windows instrs)

let () =
  Alcotest.run "peephole"
    [
      ( "semantics",
        [
          Alcotest.test_case "basics" `Quick test_semantics_preserved_basics;
          Alcotest.test_case "generated" `Quick test_semantics_preserved_random;
        ] );
      ( "size",
        [
          Alcotest.test_case "text shrinks" `Quick test_text_shrinks;
          Alcotest.test_case "codegen ratio vs paper" `Quick test_codegen_size_ratio_matches_paper;
          Alcotest.test_case "no residual windows" `Quick test_optimizer_is_idempotent_on_straightline;
        ] );
    ]
