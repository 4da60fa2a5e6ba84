(** The SVM processor: a fetch-decode-execute interpreter.

    The CPU is parameterized over a {!mem} record so the same core runs
    against a flat test memory or against [simos] page tables (where
    loads can fault, get charged to the simulated clock, and share
    physical frames between processes). *)

exception Trap of string

(** Memory interface supplied by the environment. Addresses are
    non-negative ints (32-bit address space). Implementations may raise
    {!Trap} on unmapped accesses. [load32] returns the word
    sign-extended; [store32] stores the low 32 bits of its argument.
    [fetch] returns the decoded instruction at an address; environments
    typically back it with a per-page decode cache. *)
type mem = {
  load8 : int -> int;
  store8 : int -> int -> unit;
  load32 : int -> int;
  store32 : int -> int -> unit;
  fetch : int -> Isa.instr;
}

(** [flat_mem size] is a simple linear memory for tests and standalone
    program runs. *)
let flat_mem (size : int) : mem * Bytes.t =
  let buf = Bytes.make size '\000' in
  let check addr n =
    if addr < 0 || addr + n > size then
      raise (Trap (Printf.sprintf "memory access out of range: 0x%x" addr))
  in
  let mem =
    {
      load8 = (fun a -> check a 1; Bytes.get_uint8 buf a);
      store8 = (fun a v -> check a 1; Bytes.set_uint8 buf a (v land 0xff));
      load32 = (fun a -> check a 4; Int32.to_int (Bytes.get_int32_le buf a));
      store32 = (fun a v -> check a 4; Bytes.set_int32_le buf a (Int32.of_int v));
      fetch =
        (fun a ->
          check a Isa.width;
          Encode.decode_at buf a);
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

(* Registers hold 32-bit values sign-extended into an OCaml int, so
   signed comparison and the bitwise operations need no fix-up; results
   that can leave the 32-bit range wrap through [wrap]. *)
let[@inline] wrap (v : int) : int = (v lsl 31) asr 31

(* A register or immediate read as an unsigned 32-bit address. *)
let[@inline] addr (v : int) : int = v land 0xFFFFFFFF

let[@inline] divisor (v : int) : int =
  if v = 0 then raise (Trap "division by zero") else v

(** Execute one instruction. No-op once the CPU has halted or exited. *)
let step (cpu : t) : unit =
  match cpu.outcome with
  | Halted | Exited _ -> ()
  | Running -> (
      let i = cpu.mem.fetch cpu.pc in
      let next = cpu.pc + Isa.width in
      cpu.instr_count <- cpu.instr_count + 1;
      let r = cpu.regs in
      cpu.pc <- next;
      match i with
      | Isa.Halt -> cpu.outcome <- Halted
      | Isa.Nop -> ()
      | Isa.Movi (rd, imm) | Isa.Lea (rd, imm) -> r.(rd) <- Int32.to_int imm
      | Isa.Mov (rd, rs1) -> r.(rd) <- r.(rs1)
      | Isa.Add (rd, a, b) -> r.(rd) <- wrap (r.(a) + r.(b))
      | Isa.Sub (rd, a, b) -> r.(rd) <- wrap (r.(a) - r.(b))
      | Isa.Mul (rd, a, b) -> r.(rd) <- wrap (r.(a) * r.(b))
      (* truncating, as Int32.div: only min_int / -1 leaves the range *)
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
      | Isa.Ld (rd, a, imm) -> r.(rd) <- cpu.mem.load32 (addr (r.(a) + Int32.to_int imm))
      | Isa.St (a, s, imm) -> cpu.mem.store32 (addr (r.(a) + Int32.to_int imm)) r.(s)
      | Isa.Ldb (rd, a, imm) -> r.(rd) <- cpu.mem.load8 (addr (r.(a) + Int32.to_int imm))
      | Isa.Stb (a, s, imm) ->
          cpu.mem.store8 (addr (r.(a) + Int32.to_int imm)) (r.(s) land 0xff)
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
          | Sys_continue -> ()
          | Sys_exit code -> cpu.outcome <- Exited code))

(** [run ~fuel cpu] steps until the CPU halts, exits, or [fuel]
    instructions have executed. Returns the final outcome ([Running]
    means the fuel ran out). *)
let run ?(fuel = max_int) (cpu : t) : outcome =
  let rec go budget =
    match cpu.outcome with
    | Running when budget > 0 ->
        step cpu;
        go (budget - 1)
    | o -> o
  in
  go fuel

(** Convenience accessors for the simulated C-like ABI. *)

(** Read a NUL-terminated string from memory at [addr]. *)
let read_cstring (cpu : t) (addr : int) : string =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = cpu.mem.load8 a in
    if c = 0 then Buffer.contents buf
    else (
      Buffer.add_char buf (Char.chr c);
      go (a + 1))
  in
  go addr

(** Read [len] raw bytes from memory starting at [addr]. *)
let read_bytes (cpu : t) (addr : int) (len : int) : Bytes.t =
  Bytes.init len (fun i -> Char.chr (cpu.mem.load8 (addr + i)))

(** Write raw bytes into memory starting at [addr]. *)
let write_bytes (cpu : t) (addr : int) (b : Bytes.t) : unit =
  Bytes.iteri (fun i c -> cpu.mem.store8 (addr + i) (Char.code c)) b
