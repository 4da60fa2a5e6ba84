(** Binary encoding and decoding of SVM instructions. *)

exception Bad_instruction of string

let check_reg r =
  if r < 0 || r >= Isa.nregs then
    raise (Bad_instruction (Printf.sprintf "bad register r%d" r))

(* Split an instruction into its four encoded fields. *)
let fields (i : Isa.instr) : int * int * int * int32 =
  match i with
  | Halt | Nop | Ret -> (0, 0, 0, 0l)
  | Movi (rd, imm) | Lea (rd, imm) -> (rd, 0, 0, imm)
  | Mov (rd, rs1) -> (rd, rs1, 0, 0l)
  | Add (rd, rs1, rs2)
  | Sub (rd, rs1, rs2)
  | Mul (rd, rs1, rs2)
  | Div (rd, rs1, rs2)
  | Mod (rd, rs1, rs2)
  | And_ (rd, rs1, rs2)
  | Or_ (rd, rs1, rs2)
  | Xor (rd, rs1, rs2)
  | Shl (rd, rs1, rs2)
  | Shr (rd, rs1, rs2)
  | Cmpeq (rd, rs1, rs2)
  | Cmplt (rd, rs1, rs2)
  | Cmple (rd, rs1, rs2) -> (rd, rs1, rs2, 0l)
  | Addi (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | Ld (rd, rs1, imm) | Ldb (rd, rs1, imm) -> (rd, rs1, 0, imm)
  | St (rs1, rs2, imm) | Stb (rs1, rs2, imm) -> (0, rs1, rs2, imm)
  | Jmp imm | Call imm | Sys imm | Br imm -> (0, 0, 0, imm)
  | Jz (rs1, imm) | Jnz (rs1, imm) -> (0, rs1, 0, imm)
  | Callr rs1 | Jmpr rs1 -> (0, rs1, 0, 0l)

(** [encode_at buf off i] writes the 8-byte encoding of [i] into [buf]
    at offset [off]. *)
let encode_at (buf : Bytes.t) (off : int) (i : Isa.instr) : unit =
  let rd, rs1, rs2, imm = fields i in
  check_reg rd;
  check_reg rs1;
  check_reg rs2;
  Bytes.set_uint8 buf off (Isa.opcode i);
  Bytes.set_uint8 buf (off + 1) rd;
  Bytes.set_uint8 buf (off + 2) rs1;
  Bytes.set_uint8 buf (off + 3) rs2;
  Bytes.set_int32_le buf (off + Isa.imm_offset) imm

(** [encode i] returns the 8-byte encoding of [i]. *)
let encode (i : Isa.instr) : Bytes.t =
  let buf = Bytes.create Isa.width in
  encode_at buf 0 i;
  buf

(** [check_fields op rd rs1 rs2] raises {!Bad_instruction} unless [op]
    is an opcode and the three register fields name registers, checking
    in that order. Unused register fields must hold a register too, as
    the encoder writes 0 there. *)
let check_fields op rd rs1 rs2 =
  if op < 0 || op > Isa.max_opcode then
    raise (Bad_instruction (Printf.sprintf "bad opcode %d" op));
  check_reg rd;
  check_reg rs1;
  check_reg rs2

(** [decode_fields op rd rs1 rs2 imm] rebuilds the instruction from its
    raw fields. Raises {!Bad_instruction} on an unknown opcode or a bad
    register, as {!check_fields}. *)
let decode_fields op rd rs1 rs2 (imm : int32) : Isa.instr =
  check_fields op rd rs1 rs2;
  match op with
  | 0 -> Halt
  | 1 -> Nop
  | 2 -> Movi (rd, imm)
  | 3 -> Mov (rd, rs1)
  | 4 -> Add (rd, rs1, rs2)
  | 5 -> Sub (rd, rs1, rs2)
  | 6 -> Mul (rd, rs1, rs2)
  | 7 -> Div (rd, rs1, rs2)
  | 8 -> Mod (rd, rs1, rs2)
  | 9 -> And_ (rd, rs1, rs2)
  | 10 -> Or_ (rd, rs1, rs2)
  | 11 -> Xor (rd, rs1, rs2)
  | 12 -> Shl (rd, rs1, rs2)
  | 13 -> Shr (rd, rs1, rs2)
  | 14 -> Addi (rd, rs1, imm)
  | 15 -> Cmpeq (rd, rs1, rs2)
  | 16 -> Cmplt (rd, rs1, rs2)
  | 17 -> Cmple (rd, rs1, rs2)
  | 18 -> Ld (rd, rs1, imm)
  | 19 -> St (rs1, rs2, imm)
  | 20 -> Ldb (rd, rs1, imm)
  | 21 -> Stb (rs1, rs2, imm)
  | 22 -> Lea (rd, imm)
  | 23 -> Jmp imm
  | 24 -> Jz (rs1, imm)
  | 25 -> Jnz (rs1, imm)
  | 26 -> Call imm
  | 27 -> Callr rs1
  | 28 -> Jmpr rs1
  | 29 -> Ret
  | 30 -> Sys imm
  | 31 -> Br imm
  | _ -> assert false (* check_fields admits opcodes 0-31 only *)

(** [decode_at buf off] decodes the instruction stored at [off]. *)
let decode_at (buf : Bytes.t) (off : int) : Isa.instr =
  if off + Isa.width > Bytes.length buf then
    raise (Bad_instruction "truncated instruction");
  let op = Bytes.get_uint8 buf off in
  let rd = Bytes.get_uint8 buf (off + 1) in
  let rs1 = Bytes.get_uint8 buf (off + 2) in
  let rs2 = Bytes.get_uint8 buf (off + 3) in
  let imm = Bytes.get_int32_le buf (off + Isa.imm_offset) in
  decode_fields op rd rs1 rs2 imm

let decode (buf : Bytes.t) : Isa.instr = decode_at buf 0

(** [assemble instrs] encodes a whole instruction sequence. *)
let assemble (instrs : Isa.instr list) : Bytes.t =
  let buf = Bytes.create (List.length instrs * Isa.width) in
  List.iteri (fun idx i -> encode_at buf (idx * Isa.width) i) instrs;
  buf

(** [disassemble buf] decodes a code section back into instructions.
    The buffer length must be a multiple of {!Isa.width}. *)
let disassemble (buf : Bytes.t) : Isa.instr list =
  let n = Bytes.length buf in
  if n mod Isa.width <> 0 then
    raise (Bad_instruction "code size not a multiple of instruction width");
  let rec go off acc =
    if off >= n then List.rev acc else go (off + Isa.width) (decode_at buf off :: acc)
  in
  go 0 []
