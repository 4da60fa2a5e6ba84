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
    program runs; also returns its backing buffer. *)
val flat_mem : int -> mem * Bytes.t

(** Result of a syscall as decided by the environment. *)
type sys_result = Sys_continue | Sys_exit of int

type outcome = Running | Halted | Exited of int

type t = {
  regs : int array;
      (** each register's 32-bit value, sign-extended; use {!get_reg} and
          {!set_reg} outside the interpreter *)
  mutable pc : int;
  mutable instr_count : int;
  mutable outcome : outcome;
  mem : mem;
  sys : t -> int -> sys_result;
}

val create : ?sys:(t -> int -> sys_result) -> mem -> t
val get_reg : t -> int -> int32
val set_reg : t -> int -> int32 -> unit

(** Execute one instruction. No-op once the CPU has halted or exited.
    @raise Trap on division by zero or a memory fault. *)
val step : t -> unit

(** [run ~fuel cpu] steps until the CPU halts, exits, or [fuel]
    instructions have executed ([Running] means the fuel ran out). *)
val run : ?fuel:int -> t -> outcome

(** Read a NUL-terminated string from memory at an address. *)
val read_cstring : t -> int -> string

(** Read raw bytes from memory. *)
val read_bytes : t -> int -> int -> Bytes.t

(** Write raw bytes into memory. *)
val write_bytes : t -> int -> Bytes.t -> unit
