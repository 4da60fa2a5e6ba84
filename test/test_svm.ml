(* Tests of the SVM virtual machine: encoding round-trips, interpreter
   semantics, and the call/stack conventions the compiler relies on. *)

open Svm

let i32 = Alcotest.int32
let reg r = r

(* -- encode/decode ----------------------------------------------------- *)

let all_sample_instrs : Isa.instr list =
  [
    Isa.Halt; Isa.Nop; Isa.Movi (3, 42l); Isa.Mov (1, 2);
    Isa.Add (1, 2, 3); Isa.Sub (4, 5, 6); Isa.Mul (7, 8, 9);
    Isa.Div (1, 2, 3); Isa.Mod (1, 2, 3); Isa.And_ (1, 2, 3);
    Isa.Or_ (1, 2, 3); Isa.Xor (1, 2, 3); Isa.Shl (1, 2, 3);
    Isa.Shr (1, 2, 3); Isa.Addi (1, 2, -7l); Isa.Cmpeq (1, 2, 3);
    Isa.Cmplt (1, 2, 3); Isa.Cmple (1, 2, 3); Isa.Ld (1, 2, 100l);
    Isa.St (2, 3, -4l); Isa.Ldb (1, 2, 0l); Isa.Stb (2, 3, 1l);
    Isa.Lea (5, 0x1234l); Isa.Jmp 0x4000l; Isa.Jz (1, 16l);
    Isa.Jnz (2, -24l); Isa.Call 0x5000l; Isa.Callr 3; Isa.Jmpr 4;
    Isa.Ret; Isa.Sys 7l;
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let b = Encode.encode i in
      Alcotest.(check int) "width" Isa.width (Bytes.length b);
      let i' = Encode.decode b in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Disasm.instr_to_string i))
        true (i = i'))
    all_sample_instrs

let test_assemble_disassemble () =
  let code = Encode.assemble all_sample_instrs in
  let back = Encode.disassemble code in
  Alcotest.(check int) "count" (List.length all_sample_instrs) (List.length back);
  Alcotest.(check bool) "equal" true (all_sample_instrs = back)

let test_bad_opcode () =
  let b = Bytes.make 8 '\255' in
  Alcotest.check_raises "bad opcode"
    (Encode.Bad_instruction "bad opcode 255")
    (fun () -> ignore (Encode.decode b))

let test_bad_register () =
  Alcotest.check_raises "bad register"
    (Encode.Bad_instruction "bad register r99")
    (fun () -> ignore (Encode.encode (Isa.Mov (99, 0))))

let test_truncated () =
  Alcotest.check_raises "truncated"
    (Encode.Bad_instruction "truncated instruction")
    (fun () -> ignore (Encode.decode (Bytes.create 4)))

(* -- interpreter ------------------------------------------------------- *)

(* Run [instrs] placed at address 0 in a fresh 64 KB flat memory. *)
let run_program ?(fuel = 10_000) ?sys instrs =
  let mem, buf = Cpu.flat_mem 0x10000 in
  let code = Encode.assemble instrs in
  Bytes.blit code 0 buf 0 (Bytes.length code);
  let cpu = Cpu.create ?sys mem in
  Cpu.set_reg cpu Isa.reg_sp 0xFF00l;
  let outcome = Cpu.run ~fuel cpu in
  (cpu, outcome)

let test_arith () =
  let cpu, outcome =
    run_program
      [
        Isa.Movi (1, 20l); Isa.Movi (2, 22l); Isa.Add (3, 1, 2);
        Isa.Sub (4, 3, 1); Isa.Mul (5, 1, 2); Isa.Div (6, 5, 2);
        Isa.Mod (7, 5, 1); Isa.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (outcome = Cpu.Halted);
  Alcotest.check i32 "add" 42l (Cpu.get_reg cpu 3);
  Alcotest.check i32 "sub" 22l (Cpu.get_reg cpu 4);
  Alcotest.check i32 "mul" 440l (Cpu.get_reg cpu 5);
  Alcotest.check i32 "div" 20l (Cpu.get_reg cpu 6);
  Alcotest.check i32 "mod" 0l (Cpu.get_reg cpu 7)

let test_compare_and_branch () =
  (* compute max(7, 12) via branch *)
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 7l); Isa.Movi (2, 12l); Isa.Cmplt (3, 1, 2);
        (* if r3 <> 0 jump over the next instruction *)
        Isa.Jnz (3, 8l); Isa.Mov (2, 1); Isa.Mov (0, 2); Isa.Halt;
      ]
  in
  Alcotest.check i32 "max" 12l (Cpu.get_reg cpu 0)

let test_memory_ops () =
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 0x8000l); Isa.Movi (2, 0x11223344l);
        Isa.St (1, 2, 0l); Isa.Ld (3, 1, 0l); Isa.Ldb (4, 1, 0l);
        Isa.Ldb (5, 1, 3l); Isa.Halt;
      ]
  in
  Alcotest.check i32 "word" 0x11223344l (Cpu.get_reg cpu 3);
  Alcotest.check i32 "byte lo" 0x44l (Cpu.get_reg cpu 4);
  Alcotest.check i32 "byte hi" 0x11l (Cpu.get_reg cpu 5)

let test_call_ret () =
  (* call a function at 0x100 which doubles r1 *)
  let mem, buf = Cpu.flat_mem 0x10000 in
  let main =
    Encode.assemble [ Isa.Movi (1, 21l); Isa.Call 0x100l; Isa.Halt ]
  in
  let f = Encode.assemble [ Isa.Add (1, 1, 1); Isa.Ret ] in
  Bytes.blit main 0 buf 0 (Bytes.length main);
  Bytes.blit f 0 buf 0x100 (Bytes.length f);
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~fuel:100 cpu);
  Alcotest.check i32 "doubled" 42l (Cpu.get_reg cpu 1);
  Alcotest.(check bool) "halted" true (cpu.Cpu.outcome = Cpu.Halted)

let test_syscall () =
  let seen = ref [] in
  let sys (cpu : Cpu.t) n =
    seen := n :: !seen;
    if n = 0 then Cpu.Sys_exit (Int32.to_int (Cpu.get_reg cpu 1))
    else (
      Cpu.set_reg cpu 0 99l;
      Cpu.Sys_continue)
  in
  let cpu, outcome =
    run_program ~sys [ Isa.Sys 5l; Isa.Mov (2, 0); Isa.Movi (1, 3l); Isa.Sys 0l ]
  in
  Alcotest.(check bool) "exited 3" true (outcome = Cpu.Exited 3);
  Alcotest.(check (list int)) "syscalls" [ 0; 5 ] !seen;
  Alcotest.check i32 "sys result visible" 99l (Cpu.get_reg cpu 2)

let test_div_by_zero_traps () =
  Alcotest.check_raises "trap" (Cpu.Trap "division by zero") (fun () ->
      ignore (run_program [ Isa.Movi (1, 1l); Isa.Movi (2, 0l); Isa.Div (3, 1, 2) ]))

let test_unmapped_traps () =
  try
    ignore (run_program [ Isa.Movi (1, 0x7FFFFFFFl); Isa.Ld (2, 1, 0l) ]);
    Alcotest.fail "expected trap"
  with Cpu.Trap _ -> ()

let test_fuel_runs_out () =
  (* infinite loop: jmp 0 *)
  let _, outcome = run_program ~fuel:50 [ Isa.Jmp 0l ] in
  Alcotest.(check bool) "still running" true (outcome = Cpu.Running)

let test_instr_count () =
  let cpu, _ = run_program [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Halt ] in
  Alcotest.(check int) "count" 4 cpu.Cpu.instr_count

let test_shifts_mask () =
  let cpu, _ =
    run_program
      [
        Isa.Movi (1, 1l); Isa.Movi (2, 33l); (* shift amount masked to 1 *)
        Isa.Shl (3, 1, 2); Isa.Halt;
      ]
  in
  Alcotest.check i32 "shl masked" 2l (Cpu.get_reg cpu 3)

let test_read_cstring () =
  let mem, buf = Cpu.flat_mem 0x1000 in
  Bytes.blit_string "hello\000" 0 buf 0x800 6;
  let cpu = Cpu.create mem in
  Alcotest.(check string) "cstring" "hello" (Cpu.read_cstring cpu 0x800)

(* -- property tests ---------------------------------------------------- *)

let arb_instr =
  let open QCheck in
  let r = Gen.int_range 0 (Isa.nregs - 1) in
  let imm = Gen.map Int32.of_int (Gen.int_range (-1000000) 1000000) in
  let gen =
    Gen.oneof
      [
        Gen.return Isa.Halt;
        Gen.return Isa.Nop;
        Gen.return Isa.Ret;
        Gen.map2 (fun a b -> Isa.Movi (a, b)) r imm;
        Gen.map2 (fun a b -> Isa.Mov (a, b)) r r;
        Gen.map3 (fun a b c -> Isa.Add (a, b, c)) r r r;
        Gen.map3 (fun a b c -> Isa.Ld (a, b, c)) r r imm;
        Gen.map3 (fun a b c -> Isa.St (a, b, c)) r r imm;
        Gen.map (fun a -> Isa.Jmp a) imm;
        Gen.map2 (fun a b -> Isa.Jz (a, b)) r imm;
        Gen.map (fun a -> Isa.Call a) imm;
        Gen.map (fun a -> Isa.Sys a) imm;
      ]
  in
  make ~print:(fun i -> Disasm.instr_to_string i) gen

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip" arb_instr (fun i ->
      Encode.decode (Encode.encode i) = i)

let prop_opcode_range =
  QCheck.Test.make ~count:500 ~name:"opcode within range" arb_instr (fun i ->
      Isa.opcode i >= 0 && Isa.opcode i <= Isa.max_opcode)

(* Every register-to-register opcode and [Addi], against an [Int32]
   reference evaluator: (name, instruction computing r3 from r1 and
   operand b, reference). [Addi] takes b as its immediate. *)
let alu_ops : (string * (int32 -> Isa.instr) * (int32 -> int32 -> int32)) list =
  let rr i _ = i in
  let shift f a b = f a (Int32.to_int b land 31) in
  let flag p a b = if p (Int32.compare a b) then 1l else 0l in
  [
    ("add", rr (Isa.Add (3, 1, 2)), Int32.add);
    ("sub", rr (Isa.Sub (3, 1, 2)), Int32.sub);
    ("mul", rr (Isa.Mul (3, 1, 2)), Int32.mul);
    ("div", rr (Isa.Div (3, 1, 2)), Int32.div);
    ("mod", rr (Isa.Mod (3, 1, 2)), Int32.rem);
    ("and", rr (Isa.And_ (3, 1, 2)), Int32.logand);
    ("or", rr (Isa.Or_ (3, 1, 2)), Int32.logor);
    ("xor", rr (Isa.Xor (3, 1, 2)), Int32.logxor);
    ("shl", rr (Isa.Shl (3, 1, 2)), shift Int32.shift_left);
    ("shr", rr (Isa.Shr (3, 1, 2)), shift Int32.shift_right_logical);
    ("cmpeq", rr (Isa.Cmpeq (3, 1, 2)), flag (fun c -> c = 0));
    ("cmplt", rr (Isa.Cmplt (3, 1, 2)), flag (fun c -> c < 0));
    ("cmple", rr (Isa.Cmple (3, 1, 2)), flag (fun c -> c <= 0));
    ("addi", (fun b -> Isa.Addi (3, 1, b)), Int32.add);
  ]

(* Operands biased towards the edges of the 32-bit range and towards
   shift counts past 31. *)
let gen_operand : int32 QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0l; 1l; -1l; Int32.min_int; Int32.max_int ]);
        (1, map Int32.of_int (int_range 0 63));
        (3, int32);
      ])

let arb_alu =
  QCheck.make
    ~print:(fun (k, a, b) ->
      let name, _, _ = List.nth alu_ops k in
      Printf.sprintf "%s %ld %ld" name a b)
    QCheck.Gen.(triple (int_bound (List.length alu_ops - 1)) gen_operand gen_operand)

let prop_alu_matches_int32 =
  QCheck.Test.make ~count:3000 ~name:"alu matches Int32 reference" arb_alu (fun (k, a, b) ->
      let _, instr, reference = List.nth alu_ops k in
      let want = try Some (reference a b) with Division_by_zero -> None in
      let got =
        try
          let cpu, _ =
            run_program [ Isa.Movi (1, a); Isa.Movi (2, b); instr b; Isa.Halt ]
          in
          (* the raw register holds the value sign-extended *)
          if cpu.Cpu.regs.(3) <> Int32.to_int (Cpu.get_reg cpu 3) then
            QCheck.Test.fail_report "register not sign-extended";
          Some (Cpu.get_reg cpu 3)
        with Cpu.Trap _ -> None
      in
      got = want)

let () =
  Alcotest.run "svm"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip all" `Quick test_roundtrip;
          Alcotest.test_case "assemble/disassemble" `Quick test_assemble_disassemble;
          Alcotest.test_case "bad opcode" `Quick test_bad_opcode;
          Alcotest.test_case "bad register" `Quick test_bad_register;
          Alcotest.test_case "truncated" `Quick test_truncated;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "compare+branch" `Quick test_compare_and_branch;
          Alcotest.test_case "memory" `Quick test_memory_ops;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "syscall" `Quick test_syscall;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_traps;
          Alcotest.test_case "unmapped access" `Quick test_unmapped_traps;
          Alcotest.test_case "fuel" `Quick test_fuel_runs_out;
          Alcotest.test_case "instr count" `Quick test_instr_count;
          Alcotest.test_case "shift masking" `Quick test_shifts_mask;
          Alcotest.test_case "read_cstring" `Quick test_read_cstring;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_opcode_range; prop_alu_matches_int32 ] );
    ]

(* silence unused warnings for helpers *)
let _ = reg
