(** A small structured assembler producing SOF object files.

    Used by the minic code generator, the server's stub/wrapper
    synthesizers (PLT entries, partial-image stubs, monitoring
    trampolines), and tests. The builder is imperative: emit labels,
    instructions (optionally carrying a relocation against a symbol),
    data items, and bss reservations, then {!finish}. *)

type t = {
  name : string;
  text : Buffer.t;
  data : Buffer.t;
  mutable bss_size : int;
  mutable symbols : Symbol.t list; (* reversed *)
  mutable relocs : Reloc.t list; (* reversed *)
  mutable ctors : string list; (* reversed *)
}

val create : string -> t

(** Current text/data emission offsets. *)
val here_text : t -> int

val here_data : t -> int

(** Place a text label at the current text position. *)
val label : ?binding:Symbol.binding -> t -> string -> unit

(** Declare an external symbol explicitly (normally implicit via use). *)
val extern : t -> string -> unit

(** Emit one instruction / several instructions. *)
val instr : t -> Svm.Isa.instr -> unit

val instrs : t -> Svm.Isa.instr list -> unit

(** Emit an instruction whose immediate field is a relocation site. *)
val instr_reloc : t -> Svm.Isa.instr -> Reloc.kind -> string -> int -> unit

(** [call a sym] emits [call sym] (absolute, relocated). *)
val call : t -> string -> unit

(** [jmp_sym a sym] emits [jmp sym] (absolute, relocated). *)
val jmp_sym : t -> string -> unit

(** [lea a rd sym] loads the address of [sym] (+[addend]) into [rd]. *)
val lea : ?addend:int -> t -> int -> string -> unit

(** Place a data label at the current data position. *)
val data_label : ?binding:Symbol.binding -> t -> string -> unit

val data_word : t -> int32 -> unit

(** Emit a data word holding the address of [sym] (data relocation). *)
val data_word_sym : ?addend:int -> t -> string -> unit

(** Emit a NUL-terminated string, padded to word alignment. *)
val data_string : t -> string -> unit

(** Reserve [size] bytes of bss under a name (word-aligned). *)
val bss : ?binding:Symbol.binding -> t -> string -> int -> unit

(** Register a function as a static initializer (run before main). *)
val ctor : t -> string -> unit

(** Record the size of an already-placed symbol. *)
val set_symbol_size : t -> string -> int -> unit

(** Emit an absolute constant symbol. *)
val abs_symbol : ?binding:Symbol.binding -> t -> string -> int -> unit

(** Finish and validate the object file. Relocation symbols without a
    definition get an undefined symbol entry automatically. *)
val finish : t -> Object_file.t
