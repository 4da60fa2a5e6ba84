(** Instruction set of SVM, the simulated 32-bit machine.

    SVM stands in for the PA-RISC / i386 processors of the paper. It is a
    small RISC-like machine chosen so that linking is meaningful: code
    references data and other code through 32-bit absolute immediates
    (patched by [Abs32] relocations) and through pc-relative branch
    displacements (patched by [Pcrel32] relocations).

    Every instruction occupies {!width} bytes:
    byte 0 = opcode, byte 1 = rd, byte 2 = rs1, byte 3 = rs2,
    bytes 4..7 = 32-bit little-endian immediate. *)

(** Number of general-purpose registers. *)
let nregs = 16

(** Register conventions. *)
let reg_ret = 0 (* return value *)

let reg_acc = 1 (* primary scratch / expression accumulator *)
let reg_tmp = 2 (* secondary scratch *)
let reg_arg0 = 1 (* syscall arguments live in r1..r4 *)

let reg_fp = 13
let reg_sp = 14
let reg_ra = 15

(** Instruction width in bytes. *)
let width = 8

type reg = int

(** The instruction set. [imm] fields are signed 32-bit values. Absolute
    control transfers ([Jmp], [Call], [Lea]) are the relocation targets;
    conditional branches are pc-relative (offset from the {e following}
    instruction). *)
type instr =
  | Halt
  | Nop
  | Movi of reg * int32 (* rd := imm *)
  | Mov of reg * reg (* rd := rs1 *)
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Mul of reg * reg * reg
  | Div of reg * reg * reg
  | Mod of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor of reg * reg * reg
  | Shl of reg * reg * reg
  | Shr of reg * reg * reg
  | Addi of reg * reg * int32 (* rd := rs1 + imm *)
  | Cmpeq of reg * reg * reg (* rd := rs1 = rs2 *)
  | Cmplt of reg * reg * reg (* rd := rs1 < rs2 (signed) *)
  | Cmple of reg * reg * reg
  | Ld of reg * reg * int32 (* rd := mem32[rs1 + imm] *)
  | St of reg * reg * int32 (* mem32[rs1 + imm] := rs2  (rd unused) *)
  | Ldb of reg * reg * int32 (* rd := mem8[rs1 + imm] *)
  | Stb of reg * reg * int32 (* mem8[rs1 + imm] := rs2 *)
  | Lea of reg * int32 (* rd := imm (address; Abs32 reloc site) *)
  | Jmp of int32 (* pc := imm (absolute; Abs32 reloc site) *)
  | Jz of reg * int32 (* if rs1 = 0 then pc := pc + 8 + imm *)
  | Jnz of reg * int32
  | Call of int32 (* ra := pc + 8; pc := imm (Abs32 reloc site) *)
  | Callr of reg (* ra := pc + 8; pc := rs1 *)
  | Jmpr of reg (* pc := rs1 *)
  | Ret (* pc := ra *)
  | Sys of int32 (* invoke syscall #imm; args r1..r4, result r0 *)
  | Br of int32 (* pc := pc + 8 + imm (unconditional, pc-relative) *)

let opcode = function
  | Halt -> 0
  | Nop -> 1
  | Movi _ -> 2
  | Mov _ -> 3
  | Add _ -> 4
  | Sub _ -> 5
  | Mul _ -> 6
  | Div _ -> 7
  | Mod _ -> 8
  | And_ _ -> 9
  | Or_ _ -> 10
  | Xor _ -> 11
  | Shl _ -> 12
  | Shr _ -> 13
  | Addi _ -> 14
  | Cmpeq _ -> 15
  | Cmplt _ -> 16
  | Cmple _ -> 17
  | Ld _ -> 18
  | St _ -> 19
  | Ldb _ -> 20
  | Stb _ -> 21
  | Lea _ -> 22
  | Jmp _ -> 23
  | Jz _ -> 24
  | Jnz _ -> 25
  | Call _ -> 26
  | Callr _ -> 27
  | Jmpr _ -> 28
  | Ret -> 29
  | Sys _ -> 30
  | Br _ -> 31

let max_opcode = 31

(** Byte offset of the immediate field within an encoded instruction —
    the locus a relocation patches. *)
let imm_offset = 4
