(** Instruction set of SVM, the simulated 32-bit machine.

    SVM stands in for the PA-RISC / i386 processors of the paper. It is a
    small RISC-like machine chosen so that linking is meaningful: code
    references data and other code through 32-bit absolute immediates
    (patched by [Abs32] relocations) and through pc-relative branch
    displacements (patched by [Pcrel32] relocations).

    Every instruction occupies {!width} bytes:
    byte 0 = opcode, byte 1 = rd, byte 2 = rs1, byte 3 = rs2,
    bytes 4..7 = 32-bit little-endian immediate. *)

val nregs : int
val reg_ret : int
val reg_acc : int
val reg_tmp : int
val reg_arg0 : int
val reg_fp : int
val reg_sp : int
val reg_ra : int
val width : int
type reg = int
type instr =
    Halt
  | Nop
  | Movi of reg * int32
  | Mov of reg * reg
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
  | Addi of reg * reg * int32
  | Cmpeq of reg * reg * reg
  | Cmplt of reg * reg * reg
  | Cmple of reg * reg * reg
  | Ld of reg * reg * int32
  | St of reg * reg * int32
  | Ldb of reg * reg * int32
  | Stb of reg * reg * int32
  | Lea of reg * int32
  | Jmp of int32
  | Jz of reg * int32
  | Jnz of reg * int32
  | Call of int32
  | Callr of reg
  | Jmpr of reg
  | Ret
  | Sys of int32
  | Br of int32
val opcode : instr -> int
val max_opcode : int
val imm_offset : int
