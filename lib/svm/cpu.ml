(** The SVM processor: an interpreter that runs code straight from the
    bytes of memory.

    The CPU is parameterized over a {!mem} record so the same loop runs
    against a flat test memory or against [simos] page tables (where
    loads can fault, get charged to the simulated clock, and share
    physical frames between processes). *)

exception Trap of string

(* Addresses [lo, hi) are [bytes] at offset [address - base], and
   need no call to the environment (see cpu.mli). *)
type window = {
  mutable bytes : Bytes.t;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
  mutable writable : bool;
}

(* The environment's two windows, and the calls that serve what they
   do not (see cpu.mli). *)
type mem = {
  code : window;
  data : window;
  fill_code : int -> unit;
  load8 : int -> int;
  store8 : int -> int -> unit;
  load32 : int -> int;
  store32 : int -> int -> unit;
}

(** [flat_mem size] is a simple linear memory for tests and standalone
    program runs. Both windows cover all of it, and an instruction may
    be fetched at any in-range address, aligned or not. *)
let flat_mem (size : int) : mem * Bytes.t =
  let buf = Bytes.make size '\000' in
  let check addr n =
    if addr < 0 || addr + n > size then
      raise (Trap (Printf.sprintf "memory access out of range: 0x%x" addr))
  in
  let whole () = { bytes = buf; base = 0; lo = 0; hi = size; writable = true } in
  let mem =
    {
      code = whole ();
      data = whole ();
      fill_code = (fun a -> check a Isa.width);
      load8 = (fun a -> check a 1; Bytes.get_uint8 buf a);
      store8 = (fun a v -> check a 1; Bytes.set_uint8 buf a (v land 0xff));
      load32 = (fun a -> check a 4; Int32.to_int (Bytes.get_int32_le buf a));
      store32 = (fun a v -> check a 4; Bytes.set_int32_le buf a (Int32.of_int v));
    }
  in
  (mem, buf)

(** Result of a syscall as decided by the environment. *)
type sys_result = Sys_continue | Sys_exit of int

type outcome = Running | Halted | Exited of int

type t = {
  regs : int array;
  mutable pc : int;
  mutable instr_count : int;
  mutable outcome : outcome;
  mem : mem;
  sys : t -> int -> sys_result;
}

let create ?(sys = fun _ _ -> Sys_continue) (mem : mem) : t =
  {
    regs = Array.make Isa.nregs 0;
    pc = 0;
    instr_count = 0;
    outcome = Running;
    mem;
    sys;
  }

let get_reg (cpu : t) (r : int) : int32 = Int32.of_int cpu.regs.(r)
let set_reg (cpu : t) (r : int) (v : int32) : unit = cpu.regs.(r) <- Int32.to_int v

(* The encoding's constants as literals: dune's dev profile compiles
   with -opaque, so reading them from [Isa] would cost a load each. *)
let width = 8
let reg_ra = 15
let () = assert (width = Isa.width && reg_ra = Isa.reg_ra && Isa.imm_offset = 4)

(* Bits of an instruction's low word (the opcode byte and the three
   register bytes) that are clear in every valid instruction: opcodes
   are below 32 and registers below 16. *)
let invalid_bits = 0xF0F0F0E0
let () = assert (Isa.max_opcode = 31 && Isa.nregs = 16)

(* Registers hold 32-bit values sign-extended into an OCaml int, so
   signed comparison and the bitwise operations need no fix-up; results
   that can leave the 32-bit range wrap through [wrap]. *)
let[@inline] wrap (v : int) : int = (v lsl 31) asr 31

(* A register or immediate read as an unsigned 32-bit address. *)
let[@inline] addr (v : int) : int = v land 0xFFFFFFFF

let[@inline] divisor (v : int) : int =
  if v = 0 then raise (Trap "division by zero") else v

(* Data accesses: through the data window when it serves the whole
   access, through the environment otherwise. *)
let[@inline] read8 (m : mem) (a : int) : int =
  let d = m.data in
  if a >= d.lo && a < d.hi then Bytes.get_uint8 d.bytes (a - d.base) else m.load8 a

let[@inline] write8 (m : mem) (a : int) (v : int) : unit =
  let d = m.data in
  if d.writable && a >= d.lo && a < d.hi then Bytes.set_uint8 d.bytes (a - d.base) v
  else m.store8 a v

let[@inline] read32 (m : mem) (a : int) : int =
  let d = m.data in
  if a >= d.lo && a + 4 <= d.hi then Int32.to_int (Bytes.get_int32_le d.bytes (a - d.base))
  else m.load32 a

let[@inline] write32 (m : mem) (a : int) (v : int) : unit =
  let d = m.data in
  if d.writable && a >= d.lo && a + 4 <= d.hi then
    Bytes.set_int32_le d.bytes (a - d.base) (Int32.of_int v)
  else m.store32 a v

let[@inline] running (cpu : t) = match cpu.outcome with Running -> true | _ -> false

(* Each instruction is fetched, checked, counted and then executed, so
   a fault in its data access leaves it counted and [pc] past it. *)
let run ?(fuel = max_int) (cpu : t) : outcome =
  let r = cpu.regs and m = cpu.mem in
  let code = m.code in
  let budget = ref fuel in
  while !budget > 0 && running cpu do
    decr budget;
    let pc = cpu.pc in
    if not (pc >= code.lo && pc + width <= code.hi && (pc - code.base) land (width - 1) = 0)
    then m.fill_code pc;
    let b = code.bytes and off = pc - code.base in
    (* one read: opcode and registers in the low word, the immediate in
       the high one *)
    let word = Bytes.get_int64_le b off in
    let w = Int64.to_int word land 0xFFFFFFFF in
    if w land invalid_bits <> 0 then
      Encode.check_fields (w land 0xff) ((w lsr 8) land 0xff) ((w lsr 16) land 0xff)
        ((w lsr 24) land 0xff);
    let imm = Int64.to_int (Int64.shift_right word 32) in
    let rd = (w lsr 8) land 0xf and s1 = (w lsr 16) land 0xf and s2 = (w lsr 24) land 0xf in
    let next = pc + width in
    cpu.instr_count <- cpu.instr_count + 1;
    cpu.pc <- next;
    match w land 0xff with
    | 0 (* halt *) -> cpu.outcome <- Halted
    | 1 (* nop *) -> ()
    | 2 (* movi *) | 22 (* lea *) -> r.(rd) <- imm
    | 3 (* mov *) -> r.(rd) <- r.(s1)
    | 4 (* add *) -> r.(rd) <- wrap (r.(s1) + r.(s2))
    | 5 (* sub *) -> r.(rd) <- wrap (r.(s1) - r.(s2))
    | 6 (* mul *) -> r.(rd) <- wrap (r.(s1) * r.(s2))
    (* truncating, as Int32.div: only min_int / -1 leaves the range *)
    | 7 (* div *) -> r.(rd) <- wrap (r.(s1) / divisor r.(s2))
    | 8 (* mod *) -> r.(rd) <- r.(s1) mod divisor r.(s2)
    | 9 (* and *) -> r.(rd) <- r.(s1) land r.(s2)
    | 10 (* or *) -> r.(rd) <- r.(s1) lor r.(s2)
    | 11 (* xor *) -> r.(rd) <- r.(s1) lxor r.(s2)
    | 12 (* shl *) -> r.(rd) <- wrap (r.(s1) lsl (r.(s2) land 31))
    | 13 (* shr *) -> r.(rd) <- wrap (addr r.(s1) lsr (r.(s2) land 31))
    | 14 (* addi *) -> r.(rd) <- wrap (r.(s1) + imm)
    | 15 (* cmpeq *) -> r.(rd) <- (if r.(s1) = r.(s2) then 1 else 0)
    | 16 (* cmplt *) -> r.(rd) <- (if r.(s1) < r.(s2) then 1 else 0)
    | 17 (* cmple *) -> r.(rd) <- (if r.(s1) <= r.(s2) then 1 else 0)
    | 18 (* ld *) -> r.(rd) <- read32 m (addr (r.(s1) + imm))
    | 19 (* st *) -> write32 m (addr (r.(s1) + imm)) r.(s2)
    | 20 (* ldb *) -> r.(rd) <- read8 m (addr (r.(s1) + imm))
    | 21 (* stb *) -> write8 m (addr (r.(s1) + imm)) (r.(s2) land 0xff)
    | 23 (* jmp *) -> cpu.pc <- addr imm
    | 24 (* jz *) -> if r.(s1) = 0 then cpu.pc <- next + imm
    | 25 (* jnz *) -> if r.(s1) <> 0 then cpu.pc <- next + imm
    | 26 (* call *) ->
        r.(reg_ra) <- wrap next;
        cpu.pc <- addr imm
    | 27 (* callr *) ->
        let target = addr r.(s1) in
        r.(reg_ra) <- wrap next;
        cpu.pc <- target
    | 28 (* jmpr *) -> cpu.pc <- addr r.(s1)
    | 29 (* ret *) -> cpu.pc <- addr r.(reg_ra)
    | 30 (* sys *) -> (
        match cpu.sys cpu imm with
        | Sys_continue -> ()
        | Sys_exit code -> cpu.outcome <- Exited code)
    | 31 (* br *) -> cpu.pc <- next + imm
    | _ -> assert false (* invalid_bits admits opcodes 0-31 only *)
  done;
  cpu.outcome

(** Convenience accessors for the simulated C-like ABI. *)

(** Read a NUL-terminated string from memory at [addr]. *)
let read_cstring (cpu : t) (addr : int) : string =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = read8 cpu.mem a in
    if c = 0 then Buffer.contents buf
    else (
      Buffer.add_char buf (Char.chr c);
      go (a + 1))
  in
  go addr

(** Read [len] raw bytes from memory starting at [addr]. The result
    doubles only once a byte past it has been read, so a length past the
    mapped memory faults before the host allocates for it. *)
let read_bytes (cpu : t) (addr : int) (len : int) : Bytes.t =
  let buf = ref (Bytes.create (min len 4096)) in
  for i = 0 to len - 1 do
    let c = Char.chr (read8 cpu.mem (addr + i)) in
    if i = Bytes.length !buf then buf := Bytes.extend !buf 0 (min i (len - i));
    Bytes.set !buf i c
  done;
  !buf

(** Write raw bytes into memory starting at [addr]. *)
let write_bytes (cpu : t) (addr : int) (b : Bytes.t) : unit =
  Bytes.iteri (fun i c -> write8 cpu.mem (addr + i) (Char.code c)) b
