(* Tests of the SVM virtual machine: encoding round-trips, interpreter
   semantics, the call/stack conventions the compiler relies on, and
   differential properties and tests that hold [Cpu.run] to a
   reference interpreter: on flat memory and on writable mapped text,
   whose code runs word by word, and on shared text, run from blocks
   translated here or by another address space. *)

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

(* The decoder rejects every register the encoder rejects, and running
   such an instruction raises before it is counted. *)
let test_decode_bad_register () =
  let b = Encode.encode (Isa.Mov (1, 0)) in
  Bytes.set_uint8 b 1 99;
  let bad = Encode.Bad_instruction "bad register r99" in
  Alcotest.check_raises "decode" bad (fun () -> ignore (Encode.decode b));
  let mem, buf = Cpu.flat_mem 0x1000 in
  Bytes.blit b 0 buf 0 Isa.width;
  let cpu = Cpu.create mem in
  Alcotest.check_raises "run" bad (fun () -> ignore (Cpu.run cpu));
  Alcotest.(check int) "not counted" 0 cpu.Cpu.instr_count;
  Alcotest.(check int) "pc stays" 0 cpu.Cpu.pc

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

(* A guest length past the end of memory faults before the host
   allocates for it: about twice the bytes actually read at most. *)
let test_read_bytes_allocation () =
  let big, big_buf = Cpu.flat_mem 0x3000 in
  Bytes.iteri (fun i _ -> Bytes.set_uint8 big_buf i (i * 7 land 0xff)) big_buf;
  Alcotest.(check string) "read past the first doubling" (Bytes.sub_string big_buf 0x10 0x2ff0)
    (Bytes.to_string (Cpu.read_bytes (Cpu.create big) 0x10 0x2ff0));
  let mem, buf = Cpu.flat_mem 0x1000 in
  Bytes.blit_string "hello" 0 buf 0x10 5;
  let cpu = Cpu.create mem in
  Alcotest.(check string) "valid read" "hello" (Bytes.to_string (Cpu.read_bytes cpu 0x10 5));
  let before = Gc.allocated_bytes () in
  Alcotest.check_raises "faults at the end" (Cpu.Trap "memory access out of range: 0x1000")
    (fun () -> ignore (Cpu.read_bytes cpu 0 0x10000000));
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let bound = 2 * 0x1000 / (Sys.word_size / 8) in
  if words > float_of_int bound then
    Alcotest.failf "allocated %.0f words for 4 KB of memory (bound %d)" words bound

(* -- reference interpreter ---------------------------------------------- *)

(* The interpreter [Cpu.run] replaced: decode each instruction into an
   [Isa.instr], then match on it. It lives only here, as the reference
   for the differential property below. [fetch] returns the instruction
   at an address, with the faults and charges of the memory's fetch. *)
module Reference = struct
  let wrap v = (v lsl 31) asr 31
  let addr v = v land 0xFFFFFFFF
  let divisor v = if v = 0 then raise (Cpu.Trap "division by zero") else v

  let step (fetch : int -> Isa.instr) (cpu : Cpu.t) : unit =
    match cpu.Cpu.outcome with
    | Cpu.Halted | Cpu.Exited _ -> ()
    | Cpu.Running -> (
        let i = fetch cpu.pc in
        let next = cpu.pc + Isa.width in
        cpu.instr_count <- cpu.instr_count + 1;
        let r = cpu.regs and m = cpu.mem in
        cpu.pc <- next;
        match i with
        | Isa.Halt -> cpu.outcome <- Cpu.Halted
        | Isa.Nop -> ()
        | Isa.Movi (rd, imm) | Isa.Lea (rd, imm) -> r.(rd) <- Int32.to_int imm
        | Isa.Mov (rd, rs1) -> r.(rd) <- r.(rs1)
        | Isa.Add (rd, a, b) -> r.(rd) <- wrap (r.(a) + r.(b))
        | Isa.Sub (rd, a, b) -> r.(rd) <- wrap (r.(a) - r.(b))
        | Isa.Mul (rd, a, b) -> r.(rd) <- wrap (r.(a) * r.(b))
        | Isa.Div (rd, a, b) -> r.(rd) <- wrap (r.(a) / divisor r.(b))
        | Isa.Mod (rd, a, b) -> r.(rd) <- r.(a) mod divisor r.(b)
        | Isa.And_ (rd, a, b) -> r.(rd) <- r.(a) land r.(b)
        | Isa.Or_ (rd, a, b) -> r.(rd) <- r.(a) lor r.(b)
        | Isa.Xor (rd, a, b) -> r.(rd) <- r.(a) lxor r.(b)
        | Isa.Shl (rd, a, b) -> r.(rd) <- wrap (r.(a) lsl (r.(b) land 31))
        | Isa.Shr (rd, a, b) -> r.(rd) <- wrap (addr r.(a) lsr (r.(b) land 31))
        | Isa.Addi (rd, a, imm) -> r.(rd) <- wrap (r.(a) + Int32.to_int imm)
        | Isa.Cmpeq (rd, a, b) -> r.(rd) <- (if r.(a) = r.(b) then 1 else 0)
        | Isa.Cmplt (rd, a, b) -> r.(rd) <- (if r.(a) < r.(b) then 1 else 0)
        | Isa.Cmple (rd, a, b) -> r.(rd) <- (if r.(a) <= r.(b) then 1 else 0)
        | Isa.Ld (rd, a, imm) -> r.(rd) <- m.load32 (addr (r.(a) + Int32.to_int imm))
        | Isa.St (a, s, imm) -> m.store32 (addr (r.(a) + Int32.to_int imm)) r.(s)
        | Isa.Ldb (rd, a, imm) -> r.(rd) <- m.load8 (addr (r.(a) + Int32.to_int imm))
        | Isa.Stb (a, s, imm) -> m.store8 (addr (r.(a) + Int32.to_int imm)) (r.(s) land 0xff)
        | Isa.Jmp imm -> cpu.pc <- addr (Int32.to_int imm)
        | Isa.Br imm -> cpu.pc <- next + Int32.to_int imm
        | Isa.Jz (a, imm) -> if r.(a) = 0 then cpu.pc <- next + Int32.to_int imm
        | Isa.Jnz (a, imm) -> if r.(a) <> 0 then cpu.pc <- next + Int32.to_int imm
        | Isa.Call imm ->
            r.(Isa.reg_ra) <- wrap next;
            cpu.pc <- addr (Int32.to_int imm)
        | Isa.Callr a ->
            let target = addr r.(a) in
            r.(Isa.reg_ra) <- wrap next;
            cpu.pc <- target
        | Isa.Jmpr a -> cpu.pc <- addr r.(a)
        | Isa.Ret -> cpu.pc <- addr r.(Isa.reg_ra)
        | Isa.Sys imm -> (
            match cpu.sys cpu (Int32.to_int imm) with
            | Cpu.Sys_continue -> ()
            | Cpu.Sys_exit code -> cpu.outcome <- Cpu.Exited code))

  let run (fetch : int -> Isa.instr) ~fuel (cpu : Cpu.t) : Cpu.outcome =
    let rec go budget =
      match cpu.Cpu.outcome with
      | Cpu.Running when budget > 0 ->
          step fetch cpu;
          go (budget - 1)
      | o -> o
    in
    go fuel

  (* flat memory: a range check, no alignment check *)
  let flat_fetch (buf : Bytes.t) (a : int) : Isa.instr =
    if a < 0 || a + Isa.width > Bytes.length buf then
      raise (Cpu.Trap (Printf.sprintf "memory access out of range: 0x%x" a));
    Encode.decode_at buf a

  (* mapped memory: find the region and charge the page through [load8],
     then fault a misaligned or out-of-range instruction *)
  let mapped_fetch (space : Simos.Addr_space.t) (a : int) : Isa.instr =
    ignore (Simos.Addr_space.load8 space a);
    let r =
      List.find
        (fun (r : Simos.Addr_space.region) -> a >= r.lo && a < r.hi)
        (Simos.Addr_space.regions space)
    in
    let off = a - r.lo and bytes = Simos.Addr_space.contents r in
    if off land (Isa.width - 1) <> 0 || off + Isa.width > Bytes.length bytes then
      raise
        (Simos.Addr_space.Fault (Printf.sprintf "misaligned or out-of-range fetch at 0x%x" a));
    Encode.decode_at bytes off
end

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

(* -- differential property: Cpu.run against the reference ---------------- *)

(* Both memories hold the program at [text], two data pages at [data]
   and the stack below [stack_top]. Mapped memory has a read-only text
   page read from disk, writable data pages charging user time on first
   touch, an unmapped gap, and a two-page stack. *)
let text = 0x1000
let data = 0x2000
let stack_lo = 0x5000
let stack_top = 0x7000
let data_init = Bytes.init 0x2000 (fun i -> Char.chr (i land 0xff))

type case = { words : string list; (* 8 bytes each *) regs : int array; fuel : int }

(* Values near page and region edges, page-sized strides, aligned code
   addresses, short branch displacements, small and misaligned offsets,
   zero, and anything at all. *)
let gen_code = QCheck.Gen.map (fun k -> text + (8 * k)) (QCheck.Gen.int_range 0 70)
let gen_displacement = QCheck.Gen.map (fun k -> 8 * k) (QCheck.Gen.int_range (-8) 8)

let gen_value : int QCheck.Gen.t =
  let open QCheck.Gen in
  let near_page pages =
    map2 (fun page d -> (page * 0x1000) + d) pages (oneofl [ -8; -4; -3; -1; 0; 1; 3; 4; 7; 8 ])
  in
  frequency
    [
      (3, near_page (int_range 0 8));
      (1, near_page (int_range (-2) 2));
      (2, gen_code);
      (1, gen_displacement);
      (3, int_range (-12) 12);
      (1, oneof [ oneofl [ 0x7FFFFFFF; -0x80000000; -1 ]; map Int32.to_int int32 ]);
    ]

(* Branches mostly stay in the program, so that runs get long. *)
let gen_imm (op : int) : int QCheck.Gen.t =
  let open QCheck.Gen in
  match op with
  | 24 | 25 | 31 (* jz, jnz, br *) -> frequency [ (3, gen_displacement); (1, gen_value) ]
  | 23 | 26 (* jmp, call *) -> frequency [ (3, gen_code); (1, gen_value) ]
  | _ -> gen_value

(* Mostly valid instructions with any register in any field; some with
   an opcode or register just out of range; some raw random bytes. *)
let gen_word : string QCheck.Gen.t =
  let open QCheck.Gen in
  let word op rd rs1 rs2 imm =
    let b = Bytes.create Isa.width in
    Bytes.set_uint8 b 0 op;
    Bytes.set_uint8 b 1 rd;
    Bytes.set_uint8 b 2 rs1;
    Bytes.set_uint8 b 3 rs2;
    Bytes.set_int32_le b 4 (Int32.of_int imm);
    Bytes.to_string b
  in
  let fields op reg =
    op >>= fun op ->
    reg >>= fun rd ->
    reg >>= fun rs1 ->
    reg >>= fun rs2 -> map (word op rd rs1 rs2) (gen_imm op)
  in
  (* loads and stores (opcodes 18-21) make up about a third *)
  frequency
    [
      (48, fields (int_range 0 Isa.max_opcode) (int_range 0 (Isa.nregs - 1)));
      (12, fields (int_range 18 21) (int_range 0 (Isa.nregs - 1)));
      (2, fields (int_range 0 40) (int_range 0 20));
      (1, string_size ~gen:char (return Isa.width));
    ]

(* Registers start at 0 half the time, so that a base register plus an
   edge immediate often lands on the edge; [ra] mostly holds a code
   address. *)
let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 64) gen_word >>= fun words ->
  array_size (return Isa.nregs) (frequency [ (1, return 0); (1, gen_value) ]) >>= fun regs ->
  frequency [ (3, gen_code); (1, gen_value) ] >>= fun ra ->
  int_range 1 500 >|= fun fuel ->
  regs.(Isa.reg_sp) <- stack_top - 16;
  regs.(Isa.reg_ra) <- ra;
  { words; regs; fuel }

let print_case (c : case) =
  let word w =
    let b = Bytes.of_string w in
    let hex =
      String.concat "" (List.init Isa.width (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))
    in
    match Encode.decode b with
    | i -> Printf.sprintf "%s  %s" hex (Disasm.instr_to_string i)
    | exception Encode.Bad_instruction m -> Printf.sprintf "%s  (%s)" hex m
  in
  Printf.sprintf "fuel %d regs [%s]\n%s" c.fuel
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "0x%x") c.regs)))
    (String.concat "\n" (List.map word c.words))

let arb_case =
  QCheck.make ~print:print_case
    ~shrink:(fun c -> QCheck.Iter.map (fun words -> { c with words }) (QCheck.Shrink.list c.words))
    gen_case

(* Syscalls also exercise the host-side accessors: [n land 3] exits,
   writes 4 bytes at r2, measures the string at r2, or returns [n]. *)
let sys (cpu : Cpu.t) n =
  let r2 = Int32.to_int (Cpu.get_reg cpu 2) land 0xFFFFFFFF in
  match n land 3 with
  | 0 -> Cpu.Sys_exit (Int32.to_int (Cpu.get_reg cpu 1) land 0xff)
  | 1 ->
      Cpu.write_bytes cpu r2 (Bytes.of_string "sys!");
      Cpu.Sys_continue
  | 2 ->
      Cpu.set_reg cpu 0 (Int32.of_int (String.length (Cpu.read_cstring cpu r2)));
      Cpu.Sys_continue
  | _ ->
      Cpu.set_reg cpu 0 (Int32.of_int n);
      Cpu.Sys_continue

let start ?(sys = sys) ?(at = text) (c : case) (mem : Cpu.mem) =
  let cpu = Cpu.create ~sys mem in
  Array.iteri (fun i v -> Cpu.set_reg cpu i (Int32.of_int v)) c.regs;
  cpu.pc <- at;
  cpu

(* A fresh machine for [c]: the CPU, the reference's fetch, and a
   summary of the memory and whatever else the memory accounts. *)
let flat_machine (c : case) =
  let mem, buf = Cpu.flat_mem stack_top in
  Bytes.blit_string (String.concat "" c.words) 0 buf text (Isa.width * List.length c.words);
  Bytes.blit data_init 0 buf data (Bytes.length data_init);
  (start c mem, Reference.flat_fetch buf, fun () -> Digest.to_hex (Digest.bytes buf))

(* The text page of [c]: its words, then zeros (halt). *)
let text_page (c : case) : Bytes.t =
  let code = Bytes.make 0x1000 '\000' in
  Bytes.blit_string (String.concat "" c.words) 0 code 0 (Isa.width * List.length c.words);
  code

(* A fresh space holding [code] at [at], the data pages and the stack,
   and a summary of what it accounts. The text is shared and runs from
   the translations [tr], or is a private writable copy when [tr] is
   [None]. *)
let mapped_space ?(at = text) ~(code : Bytes.t) (tr : Cpu.translations option) =
  let phys = Simos.Phys.create () and clock = Simos.Clock.create () in
  let space = Simos.Addr_space.create ~phys ~clock ~cost:Simos.Cost.hpux () in
  let backing = Simos.Addr_space.disk_backing ~bytes:(Bytes.length code) in
  (match tr with
  | Some tr ->
      Simos.Addr_space.map_shared space ~vaddr:at ~bytes:code ~code:tr
        ~frames:(Simos.Phys.alloc phys ~bytes:(Bytes.length code))
        ~backing ~label:"text" ()
  | None ->
      Simos.Addr_space.map_private space ~vaddr:at ~init:code ~backing
        ~size:(Bytes.length code) ~label:"text" ());
  Simos.Addr_space.map_private space ~vaddr:data ~init:data_init ~touch_user_cost:0.5
    ~size:(Bytes.length data_init) ~label:"data" ();
  Simos.Addr_space.map_private space ~vaddr:stack_lo ~size:(stack_top - stack_lo)
    ~label:"stack" ();
  let summary () =
    let soft, disk = Simos.Addr_space.fault_stats space in
    let bytes =
      List.map
        (fun r -> Bytes.to_string (Simos.Addr_space.contents r))
        (Simos.Addr_space.regions space)
    in
    Printf.sprintf "faults %d/%d clock %h %h %h memory %s" soft disk clock.Simos.Clock.user
      clock.system clock.io
      (Digest.to_hex (Digest.string (String.concat "" bytes)))
  in
  (space, summary)

let mapped_on ?at ~code tr (c : case) =
  let space, summary = mapped_space ?at ~code tr in
  (start ?at c (Simos.Addr_space.mem space), Reference.mapped_fetch space, summary)

let mapped_machine (c : case) =
  let code = text_page c in
  mapped_on ~code (Some (Cpu.translations code)) c

(* Text in a private writable region, whose code runs word by word. *)
let writable_machine (c : case) = mapped_on ~code:(text_page c) None c

let expected_exn = function
  | Cpu.Trap _ | Encode.Bad_instruction _ | Simos.Addr_space.Fault _ -> true
  | _ -> false

(* The second of two spaces that map one text segment: the first runs
   [c], translating the blocks it enters, and the second runs from
   those translations. *)
let shared_machine (c : case) =
  let code = text_page c in
  let tr = Some (Cpu.translations code) in
  let first, _, _ = mapped_on ~code tr c in
  (try ignore (Cpu.run ~fuel:c.fuel first) with e when expected_exn e -> ());
  mapped_on ~code tr c

(* Everything a run decides: how it ended (outcome, or the exception's
   constructor and message), registers, pc, count, and the memory. *)
let observe (cpu : Cpu.t) run summary =
  let ending =
    match run cpu with
    | Cpu.Running -> "running"
    | Cpu.Halted -> "halted"
    | Cpu.Exited code -> Printf.sprintf "exited %d" code
    | exception e when expected_exn e -> Printexc.to_string e
  in
  Printf.sprintf "%s pc 0x%x count %d regs [%s] %s" ending cpu.pc cpu.instr_count
    (String.concat " " (Array.to_list (Array.map string_of_int cpu.regs)))
    (summary ())

(* Runs [c] on a fresh [machine] once for each fuel in turn, under
   [Cpu.run], and on another under the reference: the first machine's
   CPU, and the two lists of observations. *)
let observations machine (c : case) (fuels : int list) =
  let runs run =
    let cpu, fetch, summary = machine c in
    (cpu, List.map (fun fuel -> observe cpu (run fetch ~fuel) summary) fuels)
  in
  let cpu, got = runs (fun _ ~fuel -> Cpu.run ~fuel) in
  let _, want = runs Reference.run in
  (cpu, got, want)

(* [c] run under [Cpu.run] as under the reference, in one run of all
   its fuel or in runs of [fuels] in turn. *)
let agrees ?fuels machine (c : case) =
  let _, got, want = observations machine c (Option.value fuels ~default:[ c.fuel ]) in
  got = want
  || QCheck.Test.fail_reportf "run:\n%s\nreference:\n%s" (String.concat "\n" got)
       (String.concat "\n" want)

let prop_run_matches_reference =
  QCheck.Test.make ~count:2000 ~long_factor:50 ~name:"run matches the reference interpreter"
    arb_case (fun c -> agrees flat_machine c && agrees mapped_machine c)

(* Blocks another space translated, and code in writable mapped
   memory, run as the reference does. *)
let prop_shared_matches_reference =
  QCheck.Test.make ~count:2000 ~long_factor:50
    ~name:"shared translations and writable text match the reference" arb_case (fun c ->
      agrees shared_machine c && agrees writable_machine c)

(* -- private memory against an eager model ------------------------------ *)

(* A shared text page at [m_text] holding the program, three private
   data pages whose initial bytes stop short of their end, a gap, and a
   two-page stack. The program makes a list of 8- and 32-bit loads and
   stores through the CPU and its windows; a model that holds each
   region as one flat buffer, made whole at map time, says what each
   access returns, faults and charges. *)
let m_text = 0x1000
let m_data = 0x2000
let m_data_size = 0x3000
let m_stack = 0x6000
let m_stack_size = 0x2000

type access = { store : bool; wide : bool; at : int; value : int }
type mcase = { init_len : int; init_seed : int; accesses : access list }

let m_init (c : mcase) : Bytes.t =
  let st = Random.State.make [| c.init_seed |] in
  Bytes.init c.init_len (fun _ -> Char.chr (Random.State.int st 256))

(* Aligned and unaligned addresses in a region (text included, so
   stores into it fault), addresses within four bytes of a page's or a
   region's edge (straddling a page, running past a region's end into a
   gap or the next region), and any address around the map. *)
let gen_access : access QCheck.Gen.t =
  let open QCheck.Gen in
  let region = oneofl [ (m_text, 0x1000); (m_data, m_data_size); (m_stack, m_stack_size) ] in
  let at =
    frequency
      [
        (3, region >>= fun (lo, size) -> map (fun k -> lo + (4 * k)) (int_range 0 ((size / 4) - 1)));
        (2, region >>= fun (lo, size) -> map (fun k -> lo + k) (int_range 0 (size - 1)));
        (3, map2 (fun page d -> (page * 0x1000) + d) (int_range 1 8) (int_range (-4) 3));
        (1, int_range 0 0x9000);
      ]
  in
  bool >>= fun store ->
  bool >>= fun wide ->
  at >>= fun at -> map (fun v -> { store; wide; at; value = Int32.to_int v }) int32

(* Three instructions per access keep 150 of them and a halt within the
   text page. *)
let gen_mcase : mcase QCheck.Gen.t =
  let open QCheck.Gen in
  frequency [ (1, oneofl [ 0; 1; 0xFFF; 0x1000; 0x1001; 0x2000; 0x2FFF ]); (3, int_range 0 0x2FFF) ]
  >>= fun init_len ->
  int >>= fun init_seed ->
  map (fun accesses -> { init_len; init_seed; accesses }) (list_size (int_range 1 150) gen_access)

let print_mcase (c : mcase) =
  Printf.sprintf "init %d bytes (seed %d)\n%s" c.init_len c.init_seed
    (String.concat "\n"
       (List.map
          (fun a ->
            Printf.sprintf "%s%d 0x%x%s"
              (if a.store then "store" else "load")
              (if a.wide then 32 else 8)
              a.at
              (if a.store then Printf.sprintf " <- %d" a.value else ""))
          c.accesses))

let arb_mcase =
  QCheck.make ~print:print_mcase
    ~shrink:(fun c ->
      QCheck.Iter.map (fun accesses -> { c with accesses }) (QCheck.Shrink.list c.accesses))
    gen_mcase

(* Each access: r1 = its address, then a store of r2, or a load into
   r3 that syscall 0 logs. *)
let m_program (c : mcase) : Bytes.t =
  let instrs (a : access) =
    Isa.Movi (1, Int32.of_int a.at)
    ::
    (if a.store then
       [ Isa.Movi (2, Int32.of_int a.value); (if a.wide then Isa.St (1, 2, 0l) else Isa.Stb (1, 2, 0l)) ]
     else [ (if a.wide then Isa.Ld (3, 1, 0l) else Isa.Ldb (3, 1, 0l)); Isa.Sys 0l ])
  in
  let code = Encode.assemble (List.concat_map instrs c.accesses @ [ Isa.Halt ]) in
  let page = Bytes.make 0x1000 '\000' in
  Bytes.blit code 0 page 0 (Bytes.length code);
  page

(* What a run decides: the log of loaded values and fault messages,
   fault counts and clock, and each region's final bytes. *)
let m_summary log (soft, disk) (user, system, io) regions =
  Printf.sprintf "%s\nfaults %d/%d clock %h %h %h\n%s" (String.concat "; " (List.rev log)) soft disk
    user system io
    (String.concat " "
       (List.map (fun (label, b) -> label ^ ":" ^ Digest.to_hex (Digest.bytes b)) regions))

let run_private (c : mcase) : string =
  let code = m_program c and init = m_init c in
  let phys = Simos.Phys.create () and clock = Simos.Clock.create () in
  let space = Simos.Addr_space.create ~phys ~clock ~cost:Simos.Cost.hpux () in
  Simos.Addr_space.map_shared space ~vaddr:m_text ~bytes:code ~code:(Cpu.translations code)
    ~frames:(Simos.Phys.alloc phys ~bytes:0x1000)
    ~backing:(Simos.Addr_space.disk_backing ~bytes:0x1000) ~label:"text" ();
  Simos.Addr_space.map_private space ~vaddr:m_data ~init
    ~backing:(Simos.Addr_space.disk_backing ~bytes:c.init_len) ~touch_user_cost:0.5
    ~size:m_data_size ~label:"data" ();
  Simos.Addr_space.map_private space ~vaddr:m_stack ~size:m_stack_size ~label:"stack" ();
  let log = ref [] in
  let sys cpu _ =
    log := Int32.to_string (Cpu.get_reg cpu 3) :: !log;
    Cpu.Sys_continue
  in
  let cpu = Cpu.create ~sys (Simos.Addr_space.mem space) in
  cpu.pc <- m_text;
  (* a faulting access leaves pc past it, so the run goes on from there *)
  let rec go () =
    match Cpu.run cpu with
    | Cpu.Halted -> ()
    | _ -> log := "no halt" :: !log
    | exception Simos.Addr_space.Fault m ->
        log := m :: !log;
        go ()
  in
  go ();
  m_summary !log
    (Simos.Addr_space.fault_stats space)
    (clock.user, clock.system, clock.io)
    (List.map
       (fun (r : Simos.Addr_space.region) -> (r.label, Simos.Addr_space.contents r))
       (Simos.Addr_space.regions space))

(* One region of the model: its bytes, whole, and its first-touch
   charges. *)
type mregion = {
  label : string;
  lo : int;
  flat : Bytes.t;
  writable : bool;
  user_cost : float;
  on_disk : int; (* pages read from disk at first touch *)
  touched : bool array;
}

let model_private (c : mcase) : string =
  let cost = Simos.Cost.hpux in
  let region label lo flat writable user_cost on_disk =
    { label; lo; flat; writable; user_cost; on_disk; touched = Array.make 3 false }
  in
  let data = Bytes.make m_data_size '\000' in
  Bytes.blit (m_init c) 0 data 0 c.init_len;
  let text = region "text" m_text (m_program c) false 0.0 1 in
  let regions =
    [
      text;
      region "data" m_data data true 0.5 (max 1 ((c.init_len + 0xFFF) / 0x1000));
      region "stack" m_stack (Bytes.make m_stack_size '\000') true 0.0 0;
    ]
  in
  let soft = ref 0 and disk = ref 0 and user = ref 0.0 and system = ref 0.0 and io = ref 0.0 in
  let touch r off =
    let page = off / 0x1000 in
    if not r.touched.(page) then begin
      r.touched.(page) <- true;
      if r.user_cost > 0.0 then user := !user +. r.user_cost;
      system := !system +. cost.Simos.Cost.soft_fault;
      if page < r.on_disk then begin
        incr disk;
        io := !io +. cost.Simos.Cost.disk_read_page
      end
      else incr soft
    end
  in
  let fault fmt = Printf.ksprintf (fun m -> raise (Simos.Addr_space.Fault m)) fmt in
  let find a =
    match List.find_opt (fun r -> a >= r.lo && a < r.lo + Bytes.length r.flat) regions with
    | Some r -> r
    | None -> fault "unmapped address 0x%x" a
  in
  let log = ref [] and r3 = ref 0l in
  (* the first fetch *)
  touch text 0;
  List.iter
    (fun a ->
      (try
         let r = find a.at in
         let off = a.at - r.lo in
         let size = if a.wide then 4 else 1 in
         if a.store && not r.writable then fault "write to read-only %s at 0x%x" r.label a.at;
         if off + size > Bytes.length r.flat then
           fault "%s32 spans end of %s at 0x%x" (if a.store then "store" else "load") r.label a.at;
         touch r off;
         match (a.store, a.wide) with
         | true, true -> Bytes.set_int32_le r.flat off (Int32.of_int a.value)
         | true, false -> Bytes.set_uint8 r.flat off (a.value land 0xff)
         | false, true -> r3 := Bytes.get_int32_le r.flat off
         | false, false -> r3 := Int32.of_int (Bytes.get_uint8 r.flat off)
       with Simos.Addr_space.Fault m -> log := m :: !log);
      (* a faulting load leaves r3 as it was *)
      if not a.store then log := Int32.to_string !r3 :: !log)
    c.accesses;
  m_summary !log (!soft, !disk) (!user, !system, !io)
    (List.map (fun r -> (r.label, r.flat)) regions)

let prop_private_memory_matches_model =
  QCheck.Test.make ~count:500 ~long_factor:50
    ~name:"private memory matches an eager model" arb_mcase (fun c ->
      let got = run_private c and want = model_private c in
      got = want || QCheck.Test.fail_reportf "run:   %s\nmodel: %s" got want)

(* -- translated execution against the reference ------------------------ *)

let case_of ?(regs = []) (words : string list) : case =
  let r = Array.make Isa.nregs 0 in
  r.(Isa.reg_sp) <- stack_top - 16;
  List.iter (fun (i, v) -> r.(i) <- v) regs;
  { words; regs = r; fuel = 0 }

let words_of = List.map (fun i -> Bytes.to_string (Encode.encode i))

(* [observations] on [machine], each of which must be the reference's.
   Returns the machine's CPU. *)
let against_reference ?(machine = mapped_machine) (c : case) (fuels : int list) : Cpu.t =
  let cpu, got, want = observations machine c fuels in
  Alcotest.(check (list string)) "as the reference" want got;
  cpu

let check_stop (cpu : Cpu.t) ~count ~pc =
  Alcotest.(check (pair int int)) "count, pc" (count, pc) (cpu.Cpu.instr_count, cpu.Cpu.pc)

(* One block of eight: fuel stops it after 3, then after 5, then the
   rest runs to the exit. *)
let test_fuel_mid_block () =
  let c =
    case_of
      (words_of
         ((Isa.Movi (1, 1l) :: List.init 6 (fun _ -> Isa.Addi (1, 1, 1l))) @ [ Isa.Sys 0l ]))
  in
  check_stop (against_reference c [ 3 ]) ~count:3 ~pc:(text + 24);
  check_stop (against_reference c [ 3; 2 ]) ~count:5 ~pc:(text + 40);
  let cpu = against_reference c [ 3; 2; 100 ] in
  check_stop cpu ~count:8 ~pc:(text + 64);
  Alcotest.(check bool) "exited 7" true (cpu.Cpu.outcome = Cpu.Exited 7)

(* A fault in the fourth instruction of a block: an unmapped load, a
   store to the read-only text, a division by zero. Each is counted,
   with pc past it. *)
let test_fault_mid_block () =
  List.iter
    (fun faulting ->
      let c =
        case_of ~regs:[ (1, 0x4800) ]
          (words_of
             [
               Isa.Addi (2, 2, 5l); Isa.Addi (2, 2, 5l); Isa.Addi (3, 3, 1l); faulting;
               Isa.Addi (2, 2, 5l); Isa.Halt;
             ])
      in
      check_stop (against_reference c [ 100 ]) ~count:4 ~pc:(text + 32))
    [ Isa.Ld (3, 1, 0l); Isa.St (0, 2, Int32.of_int text); Isa.Div (4, 2, 0) ]

(* A word with a bad opcode or register ends the block before it, and
   raises uncounted when reached, with pc at it. *)
let test_invalid_after_valid () =
  List.iter
    (fun (bad : string) ->
      let c =
        case_of
          (words_of [ Isa.Movi (1, 5l); Isa.Addi (1, 1, 1l) ] @ [ bad ] @ words_of [ Isa.Halt ])
      in
      check_stop (against_reference c [ 100 ]) ~count:2 ~pc:(text + 16))
    [ "\040\000\000\000\000\000\000\000"; "\003\016\000\000\000\000\000\000" ]

(* A loop, pc-relative branches and syscalls: the same bytes run the
   same way at any address. *)
let position_independent =
  words_of
    [
      Isa.Movi (1, 3l); Isa.Addi (2, 2, 7l); Isa.Addi (1, 1, -1l); Isa.Jnz (1, -24l);
      Isa.Sys 3l; Isa.Br 8l; Isa.Movi (4, 99l); Isa.Mov (1, 2); Isa.Sys 0l;
    ]

(* One segment, mapped at two addresses by two spaces that share its
   translations: each runs as the reference does at its address. *)
let test_shared_two_addresses () =
  let c = case_of position_independent in
  let code = text_page c in
  let tr = Some (Cpu.translations code) in
  List.iter
    (fun at ->
      let cpu = against_reference ~machine:(mapped_on ~at ~code tr) c [ 1000 ] in
      check_stop cpu ~count:14 ~pc:(at + 72);
      Alcotest.(check bool) "exited 21" true (cpu.Cpu.outcome = Cpu.Exited 21))
    [ text; 0x9000 ]

(* Straight-line code across the two pages of a segment read from disk:
   the block entered at the start stops at the end of the first page,
   so the second page's first touch is charged when its first word is
   fetched, whatever the fuel. *)
let test_block_stops_at_page_end () =
  let c = case_of (words_of (List.init 511 (fun _ -> Isa.Nop) @ [ Isa.Addi (1, 1, 9l) ])) in
  let code = Bytes.make 0x2000 '\000' in
  Bytes.blit (text_page c) 0 code 0 0x1000;
  Bytes.blit (Encode.encode (Isa.Sys 0l)) 0 code 0x1000 Isa.width;
  let at = 0x9000 in
  let machine = mapped_on ~at ~code (Some (Cpu.translations code)) in
  check_stop (against_reference ~machine c [ 511; 1; 1 ]) ~count:513 ~pc:(at + 0x1008);
  let cpu = against_reference ~machine c [ 1000 ] in
  Alcotest.(check bool) "exited 9" true (cpu.Cpu.outcome = Cpu.Exited 9)

(* Syscall 7 unmaps the text and maps other bytes, with their own
   translations, at the same address. The first segment's translations
   already hold a block at the instruction after the syscall (a space
   whose syscall 7 changes nothing ran it), and must not be used. *)
let test_remap_between_blocks () =
  let first =
    case_of (words_of [ Isa.Movi (1, 1l); Isa.Sys 7l; Isa.Addi (1, 1, 10l); Isa.Sys 0l ])
  in
  let other =
    text_page (case_of (words_of [ Isa.Nop; Isa.Nop; Isa.Addi (1, 1, 100l); Isa.Sys 0l ]))
  in
  let other_tr = Cpu.translations other in
  let code = text_page first in
  let tr = Some (Cpu.translations code) in
  let unchanged, _, _ = mapped_on ~code tr first in
  Alcotest.(check bool) "unchanged map: exited 11" true (Cpu.run unchanged = Cpu.Exited 11);
  let machine c =
    let space, summary = mapped_space ~code tr in
    let sys (cpu : Cpu.t) n =
      if n <> 7 then sys cpu n
      else begin
        Simos.Addr_space.unmap space ~lo:text;
        Simos.Addr_space.map_shared space ~vaddr:text ~bytes:other ~code:other_tr
          ~frames:(Simos.Phys.alloc (Simos.Phys.create ()) ~bytes:0x1000)
          ~backing:(Simos.Addr_space.disk_backing ~bytes:0x1000) ~label:"other" ();
        Cpu.Sys_continue
      end
    in
    (start ~sys c (Simos.Addr_space.mem space), Reference.mapped_fetch space, summary)
  in
  let cpu = against_reference ~machine first [ 100 ] in
  Alcotest.(check bool) "remapped: exited 101" true (cpu.Cpu.outcome = Cpu.Exited 101)

(* Writable memory, flat or mapped: a loop runs [x] as a nop, stores
   "movi r5, 42" over it, and runs it again. *)
let test_self_modifying () =
  let x = text + 24 in
  let c =
    case_of
      (words_of
         [
           Isa.Movi (1, 0x502l) (* the low word of movi r5 *); Isa.Movi (2, 42l);
           Isa.Movi (3, 2l); Isa.Nop (* x *); Isa.St (0, 1, Int32.of_int x);
           Isa.St (0, 2, Int32.of_int (x + 4)); Isa.Addi (3, 3, -1l); Isa.Jnz (3, -40l);
           Isa.Halt;
         ])
  in
  List.iter
    (fun machine ->
      let cpu = against_reference ~machine c [ 100 ] in
      Alcotest.check i32 "r5" 42l (Cpu.get_reg cpu 5);
      check_stop cpu ~count:14 ~pc:(text + 72))
    [ flat_machine; writable_machine ]

(* -- fused groups ---------------------------------------------------- *)

let sp = Isa.reg_sp
let push ?(s = sp) ?(j = 0l) ?(i = -4l) a = [ Isa.Addi (s, s, i); Isa.St (s, a, j) ]
let pop ?(s = sp) ?(j = 0l) ?(i = 4l) b = [ Isa.Ld (b, s, j); Isa.Addi (s, s, i) ]

let compares =
  [
    (fun d a b -> Isa.Cmpeq (d, a, b)); (fun d a b -> Isa.Cmplt (d, a, b));
    (fun d a b -> Isa.Cmple (d, a, b));
  ]

(* Each branch on a register, with whether a nonzero register takes it. *)
let branches = [ (false, fun r d -> Isa.Jz (r, d)); (true, fun r d -> Isa.Jnz (r, d)) ]

(* A push whose store falls off the stack's low end, run as one op: the
   fault counts both of its instructions, with pc past the store and sp
   lowered. *)
let test_push_faults () =
  let c =
    case_of ~regs:[ (sp, stack_lo); (1, 7) ]
      (words_of (push 1 @ [ Isa.Movi (2, 1l); Isa.Halt ]))
  in
  let cpu = against_reference c [ 100 ] in
  check_stop cpu ~count:2 ~pc:(text + 16);
  Alcotest.(check int) "sp lowered" (stack_lo - 4) cpu.Cpu.regs.(sp)

(* Fuel that ends between the two instructions of a push, then of a
   pop: each stop is the reference's, and the run goes on from there. *)
let test_fuel_inside_group () =
  let c =
    case_of ~regs:[ (1, 5) ]
      (words_of
         ((Isa.Movi (3, 9l) :: push 1) @ pop 2 @ [ Isa.Cmpeq (3, 1, 2); Isa.Jnz (3, 8l) ]
         @ [ Isa.Movi (1, 0l); Isa.Sys 0l ]))
  in
  let top = stack_top - 16 in
  let cpu = against_reference c [ 2 ] in
  check_stop cpu ~count:2 ~pc:(text + 16);
  Alcotest.(check int) "sp lowered, nothing stored yet" (top - 4) cpu.Cpu.regs.(sp);
  let cpu = against_reference c [ 2; 2 ] in
  check_stop cpu ~count:4 ~pc:(text + 32);
  Alcotest.(check (pair int int)) "r2 loaded, sp not yet raised" (5, top - 4)
    (cpu.Cpu.regs.(2), cpu.Cpu.regs.(sp));
  let cpu = against_reference c [ 2; 2; 1; 100 ] in
  check_stop cpu ~count:8 ~pc:(text + 72);
  Alcotest.(check bool) "exited 5" true (cpu.Cpu.outcome = Cpu.Exited 5)

(* Each compare with [jz] and [jnz] as a block's last two
   instructions, on operands that make it true and false: the run exits
   where the reference's does, and where r3, the flag, sends it. *)
let test_compare_and_branch_fused () =
  List.iter
    (fun cmp ->
      List.iter
        (fun (taken_on, br) ->
          List.iter
            (fun (a, b) ->
              let c =
                case_of ~regs:[ (1, a); (2, b) ]
                  (words_of
                     [
                       cmp 3 1 2; br 3 16l; Isa.Movi (1, 1l); Isa.Sys 0l; Isa.Movi (1, 2l);
                       Isa.Sys 0l;
                     ])
              in
              let cpu = against_reference c [ 100 ] in
              let flag = cpu.Cpu.regs.(3) <> 0 in
              Alcotest.(check bool) "exited where the flag sends it" true
                (cpu.Cpu.outcome = Cpu.Exited (if flag = taken_on then 2 else 1)))
            [ (1, 1); (1, 2); (2, 1) ])
        branches)
    compares

(* A block whose link points at the block after it, on a page that a
   syscall in the block then remaps: syscall 7 remaps the text on its
   second call only, so the link is set when it does. The next entry
   fetches from the new region, paying its first touch, and runs the
   new bytes, not the linked block. *)
let test_remap_under_link () =
  let c =
    case_of
      (words_of [ Isa.Addi (1, 1, 1l); Isa.Sys 7l; Isa.Addi (1, 1, 10l); Isa.Br (-32l) ])
  in
  let other =
    text_page (case_of (words_of [ Isa.Nop; Isa.Nop; Isa.Addi (1, 1, 100l); Isa.Sys 0l ]))
  in
  let other_tr = Cpu.translations other in
  let code = text_page c in
  let tr = Some (Cpu.translations code) in
  let machine c =
    let space, summary = mapped_space ~code tr in
    let calls = ref 0 in
    let sys (cpu : Cpu.t) n =
      if n <> 7 then sys cpu n
      else begin
        incr calls;
        if !calls = 2 then begin
          Simos.Addr_space.unmap space ~lo:text;
          Simos.Addr_space.map_shared space ~vaddr:text ~bytes:other ~code:other_tr
            ~frames:(Simos.Phys.alloc (Simos.Phys.create ()) ~bytes:0x1000)
            ~backing:(Simos.Addr_space.disk_backing ~bytes:0x1000) ~label:"other" ()
        end;
        Cpu.Sys_continue
      end
    in
    (start ~sys c (Simos.Addr_space.mem space), Reference.mapped_fetch space, summary)
  in
  let cpu = against_reference ~machine c [ 100 ] in
  Alcotest.(check bool) "exited 112" true (cpu.Cpu.outcome = Cpu.Exited 112)

(* -- fused groups against the reference, at random ------------------ *)

(* Programs made of the groups [Cpu.run] fuses, with random registers
   (the two sides of a group the same or not, S among the operands),
   displacements and steps, some broken by a field that does not match,
   between random words. [sp] starts at the stack's low edge, across its
   page boundary, at its top edge, or in the data or the read-only
   text, so that a fused store may fault or straddle two pages. A run is
   cut into fuel slices, often of a few instructions, so that fuel ends
   inside groups and blocks are entered inside them. *)
type sliced = { c : case; slices : int list }

let gen_group : string list QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = frequency [ (2, return sp); (4, int_range 0 3); (1, int_range 0 15) ] in
  let some s = frequency [ (1, return s); (3, reg) ] in
  let disp = oneofl [ 0l; 0l; 0l; 4l; -4l; 8l; 2l; 6l ] in
  let step = oneofl [ -4l; -4l; 4l; 4l; -8l; 8l; 0l; -2l ] in
  let pushes =
    reg >>= fun s ->
    some s >>= fun a ->
    disp >>= fun j ->
    step >|= fun i -> push ~s ~j ~i a
  in
  let pops =
    reg >>= fun s ->
    some s >>= fun b ->
    disp >>= fun j ->
    step >|= fun i -> pop ~s ~j ~i b
  in
  let push_imm_pop =
    frequency [ (3, return sp); (1, reg) ] >>= fun s ->
    some s >>= fun a ->
    some s >>= fun b ->
    frequency [ (2, return a); (3, return b); (1, reg) ] >>= fun x ->
    disp >>= fun j ->
    frequency [ (5, return j); (1, disp) ] >>= fun j' ->
    step >>= fun i ->
    step >>= fun i' ->
    map Int32.of_int gen_value >>= fun k ->
    oneofl [ (fun x k -> Isa.Movi (x, k)); (fun x k -> Isa.Lea (x, k)) ] >|= fun set ->
    push ~s ~j ~i a @ [ set x k ] @ pop ~s ~j:j' ~i:i' b
  in
  let compare_and_branch =
    reg >>= fun d ->
    reg >>= fun a ->
    reg >>= fun b ->
    frequency [ (4, return d); (1, reg) ] >>= fun tested ->
    map Int32.of_int gen_displacement >>= fun disp ->
    oneofl compares >>= fun cmp ->
    oneofl branches >|= fun (_, br) -> [ cmp d a b; br tested disp ]
  in
  frequency
    [
      (3, map words_of pushes);
      (3, map words_of pops);
      (4, map words_of push_imm_pop);
      (2, map words_of compare_and_branch);
      (2, map (fun w -> [ w ]) gen_word);
    ]

let gen_sliced : sliced QCheck.Gen.t =
  let open QCheck.Gen in
  map List.concat (list_size (int_range 1 12) gen_group) >>= fun words ->
  array_size (return Isa.nregs) (frequency [ (1, return 0); (2, gen_value) ]) >>= fun regs ->
  oneofl
    [
      stack_lo; stack_lo + 2; stack_lo + 4; stack_lo + 0x1000 - 2; stack_lo + 0x1000;
      stack_top - 2; stack_top - 16; data + 0x2000 - 2; text + 8;
    ]
  >>= fun sp0 ->
  list_size (int_range 1 8)
    (frequency [ (3, int_range 1 4); (2, int_range 5 40); (1, return 1000) ])
  >|= fun slices ->
  regs.(sp) <- sp0;
  regs.(Isa.reg_ra) <- text;
  { c = { words; regs; fuel = List.fold_left ( + ) 0 slices }; slices }

let arb_sliced =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "slices [%s] %s"
        (String.concat " " (List.map string_of_int s.slices))
        (print_case s.c))
    ~shrink:(fun s ->
      QCheck.Iter.map
        (fun words -> { s with c = { s.c with words } })
        (QCheck.Shrink.list s.c.words))
    gen_sliced

let prop_fused_groups_match_reference =
  QCheck.Test.make ~long_factor:50 ~name:"fused groups match the reference" arb_sliced
    (fun s ->
      let fuels = s.slices in
      agrees ~fuels mapped_machine s.c && agrees ~fuels shared_machine s.c
      && agrees ~fuels writable_machine s.c)

let () =
  Alcotest.run "svm"
    [
      ( "encode",
        [
          Alcotest.test_case "roundtrip all" `Quick test_roundtrip;
          Alcotest.test_case "assemble/disassemble" `Quick test_assemble_disassemble;
          Alcotest.test_case "bad opcode" `Quick test_bad_opcode;
          Alcotest.test_case "bad register" `Quick test_bad_register;
          Alcotest.test_case "decode bad register" `Quick test_decode_bad_register;
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
          Alcotest.test_case "read_bytes allocation" `Quick test_read_bytes_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_opcode_range;
            prop_alu_matches_int32;
            prop_run_matches_reference;
            prop_shared_matches_reference;
            prop_private_memory_matches_model;
            prop_fused_groups_match_reference;
          ] );
      ( "translated",
        [
          Alcotest.test_case "fuel ends a block partway" `Quick test_fuel_mid_block;
          Alcotest.test_case "fault mid-block" `Quick test_fault_mid_block;
          Alcotest.test_case "invalid word after valid ones" `Quick test_invalid_after_valid;
          Alcotest.test_case "a block stops at its page's end" `Quick
            test_block_stops_at_page_end;
          Alcotest.test_case "one segment at two addresses" `Quick test_shared_two_addresses;
          Alcotest.test_case "text remapped between blocks" `Quick test_remap_between_blocks;
          Alcotest.test_case "self-modifying writable code" `Quick test_self_modifying;
          Alcotest.test_case "a fused push faults at the stack's end" `Quick test_push_faults;
          Alcotest.test_case "fuel ends inside a group" `Quick test_fuel_inside_group;
          Alcotest.test_case "compare-and-branch taken and not" `Quick
            test_compare_and_branch_fused;
          Alcotest.test_case "text remapped under a block's link" `Quick test_remap_under_link;
        ] );
    ]

(* silence unused warnings for helpers *)
let _ = reg
