(** Binary encoding and decoding of SVM instructions. *)

exception Bad_instruction of string
val check_reg : int -> unit
val fields : Isa.instr -> int * int * int * int32
val check_fields : int -> int -> int -> int -> unit
val encode_at : Bytes.t -> int -> Isa.instr -> unit
val encode : Isa.instr -> Bytes.t
val decode_fields :
  int -> Isa.reg -> Isa.reg -> Isa.reg -> int32 -> Isa.instr
val decode_at : Bytes.t -> int -> Isa.instr
val decode : Bytes.t -> Isa.instr
val assemble : Isa.instr list -> Bytes.t
val disassemble : Bytes.t -> Isa.instr list
