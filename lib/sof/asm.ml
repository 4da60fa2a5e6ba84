(** A small structured assembler producing SOF object files.

    Used by the minic code generator, by the stub/wrapper synthesizers
    in the server (partial-image stubs, monitoring wrappers, PLT entries
    of the baseline dynamic scheme), and by tests. The builder is
    imperative: emit labels, instructions (optionally carrying a
    relocation against a symbol), data items, and bss reservations, then
    {!finish}. *)

type t = {
  name : string;
  text : Buffer.t;
  data : Buffer.t;
  mutable bss_size : int;
  mutable symbols : Symbol.t list; (* reversed *)
  mutable relocs : Reloc.t list; (* reversed *)
  mutable ctors : string list; (* reversed *)
}

let create (name : string) : t =
  {
    name;
    text = Buffer.create 256;
    data = Buffer.create 64;
    bss_size = 0;
    symbols = [];
    relocs = [];
    ctors = [];
  }

let here_text (a : t) = Buffer.length a.text
let here_data (a : t) = Buffer.length a.data

let add_symbol (a : t) (s : Symbol.t) = a.symbols <- s :: a.symbols

(** Place a text label at the current text position. *)
let label ?(binding = Symbol.Global) (a : t) (name : string) : unit =
  add_symbol a (Symbol.make ~binding ~kind:Symbol.Text ~value:(here_text a) name)

(** Declare an external symbol explicitly (normally implicit via use). *)
let extern (a : t) (name : string) : unit = add_symbol a (Symbol.undef name)

(** Emit one instruction. *)
let instr (a : t) (i : Svm.Isa.instr) : unit =
  Buffer.add_bytes a.text (Svm.Encode.encode i)

let instrs (a : t) (is : Svm.Isa.instr list) : unit = List.iter (instr a) is

(* Emit an instruction whose immediate field is a relocation site. *)
let instr_reloc (a : t) (i : Svm.Isa.instr) (kind : Reloc.kind) (sym : string)
    (addend : int) : unit =
  let offset = here_text a + Svm.Isa.imm_offset in
  a.relocs <- Reloc.make ~addend ~target:Reloc.In_text ~offset ~kind sym :: a.relocs;
  instr a i

(** [call a sym] emits [call sym] (absolute, relocated). *)
let call (a : t) (sym : string) : unit =
  instr_reloc a (Svm.Isa.Call 0l) Reloc.Abs32 sym 0

(** [jmp_sym a sym] emits [jmp sym] (absolute, relocated). *)
let jmp_sym (a : t) (sym : string) : unit =
  instr_reloc a (Svm.Isa.Jmp 0l) Reloc.Abs32 sym 0

(** [lea a rd sym] loads the address of [sym] into [rd]. *)
let lea ?(addend = 0) (a : t) (rd : int) (sym : string) : unit =
  instr_reloc a (Svm.Isa.Lea (rd, 0l)) Reloc.Abs32 sym addend

(** Forward/backward local branches by label, fixed up at [finish]
    time, would complicate the builder; the code generators compute
    branch displacements themselves. Helpers below cover the common
    patterns. *)

(** Place a data label at the current data position. *)
let data_label ?(binding = Symbol.Global) (a : t) (name : string) : unit =
  add_symbol a (Symbol.make ~binding ~kind:Symbol.Data ~value:(here_data a) name)

let data_word (a : t) (v : int32) : unit = Buffer.add_int32_le a.data v

(** Emit a data word holding the address of [sym] (data relocation). *)
let data_word_sym ?(addend = 0) (a : t) (sym : string) : unit =
  let offset = here_data a in
  a.relocs <-
    Reloc.make ~addend ~target:Reloc.In_data ~offset ~kind:Reloc.Abs32 sym :: a.relocs;
  data_word a 0l

(** Emit a NUL-terminated string in the data section. *)
let data_string (a : t) (s : string) : unit =
  Buffer.add_string a.data s;
  Buffer.add_char a.data '\000';
  (* keep words aligned for subsequent word data *)
  while Buffer.length a.data mod 4 <> 0 do
    Buffer.add_char a.data '\000'
  done

(** Reserve [size] bytes of bss under [name]. *)
let bss ?(binding = Symbol.Global) (a : t) (name : string) (size : int) : unit =
  add_symbol a (Symbol.make ~binding ~size ~kind:Symbol.Bss ~value:a.bss_size name);
  a.bss_size <- a.bss_size + ((size + 3) / 4 * 4)

(** Register [name] as a static initializer (run before main). *)
let ctor (a : t) (name : string) : unit = a.ctors <- name :: a.ctors

(** [set_symbol_size a name size] records the size of an
    already-placed symbol (e.g. a function, once its body is known). *)
let set_symbol_size (a : t) (name : string) (size : int) : unit =
  a.symbols <-
    List.map
      (fun (s : Symbol.t) -> if s.name = name then { s with Symbol.size } else s)
      a.symbols

(** Emit an absolute constant symbol. *)
let abs_symbol ?(binding = Symbol.Global) (a : t) (name : string) (value : int) : unit =
  add_symbol a (Symbol.make ~binding ~kind:Symbol.Abs ~value name)

(** Finish and validate the object file. Relocation symbols without a
    definition or explicit [extern] get an undefined symbol entry
    automatically. *)
let finish (a : t) : Object_file.t =
  let present = Hashtbl.create 16 in
  List.iter (fun (s : Symbol.t) -> Hashtbl.replace present s.name ()) a.symbols;
  List.iter
    (fun (r : Reloc.t) ->
      if not (Hashtbl.mem present r.symbol) then (
        Hashtbl.replace present r.symbol ();
        add_symbol a (Symbol.undef r.symbol)))
    a.relocs;
  Object_file.make ~name:a.name
    ~data:(Buffer.to_bytes a.data)
    ~bss_size:a.bss_size
    ~relocs:(List.rev a.relocs)
    ~ctors:(List.rev a.ctors)
    ~text:(Buffer.to_bytes a.text)
    (List.rev a.symbols)
