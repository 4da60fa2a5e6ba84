(** The SVM processor: an interpreter that runs code straight from the
    bytes of memory, a block at a time where the code cannot change.

    The CPU is parameterized over a {!mem} record so the same loop runs
    against a flat test memory or against [simos] page tables (where
    loads can fault, get charged to the simulated clock, and share
    physical frames between processes). *)

exception Trap of string

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

(** Memory interface supplied by the environment, which owns all three
    windows. Addresses are non-negative ints (32-bit address space).
    The interpreter fetches from [code]; a load or store goes through
    [data] (the page of the latest data miss) if it serves the whole
    access, else through [data2] (the page of the miss before it). An
    access that no window serves goes to the environment instead:
    - [fill_code pc] faults unless an instruction can be fetched at
      [pc], charging what a fetch costs, then points [code] at bytes
      that hold all {!Isa.width} bytes at [pc], and sets its [page];
    - the accessors perform the access, with whatever faults and
      charges the environment imposes, and may re-point [data] after
      moving what it served into [data2]. [load32] returns the word
      sign-extended; [store32] stores the low 32 bits.

    Implementations may raise {!Trap}, or their own exception, on
    unmapped accesses. An environment whose map changes empties all
    three windows. *)
and mem = {
  code : window;
  data : window;
  data2 : window;
  fill_code : int -> unit;
  load8 : int -> int;
  store8 : int -> int -> unit;
  load32 : int -> int;
  store32 : int -> int -> unit;
}

(** A range of memory the interpreter reads and writes without calling
    its environment: addresses [\[lo, hi)] are the bytes of [bytes] at
    offset [address - base]. Every address in a window can be accessed
    with no fault and no charge; stores go through only if [writable].
    [page] matters for the code window only: it is [Words] over memory
    a store may change, and otherwise the {!page} of the segment's
    {!translations} that the window covers, starting at [lo]. *)
and window = {
  mutable bytes : Bytes.t;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
  mutable writable : bool;
  mutable page : page;
}

(** How the code under a window runs. [Words]: each instruction is read
    as it is fetched and runs as that very word says, so code in
    writable memory runs as it stands when fetched, whatever stored to
    it. [Blocks]: from the blocks translated on that page of a
    read-only segment. *)
and page = Words | Blocks of blocks

(** The blocks entered so far on one page of a segment. *)
and blocks

(** The translations of one read-only segment's code, shared by every
    address space that maps the segment, at any address. A block runs
    from its entry up to and including the first control transfer,
    [halt] or [sys]; it stops before an invalid word and at the end of
    its page, so that entering it touches one page, as one fetch does.
    Each instruction becomes one op, shared by every equal word of the
    segment; ops hold no address. *)
and translations

(** [translations bytes]: none yet, for a segment holding [bytes]. The
    bytes must not change while the translations are in use. *)
val translations : Bytes.t -> translations

(** Whether these are translations of exactly these bytes. *)
val translates : translations -> Bytes.t -> bool

(** [page tr n] is the [Blocks] page of the segment's [n]th
    [4096]-byte page (counted from its start), made on first use. *)
val page : translations -> int -> page

(** [flat_mem size] is a simple linear memory for tests and standalone
    program runs; also returns its backing buffer. All three windows
    cover all of it, and an instruction may be fetched at any in-range
    address, aligned or not. Its code is [Words]. *)
val flat_mem : int -> mem * Bytes.t

val create : ?sys:(t -> int -> sys_result) -> mem -> t
val get_reg : t -> int -> int32
val set_reg : t -> int -> int32 -> unit

(** [run ~fuel cpu] executes instructions until the CPU halts, exits, or
    [fuel] instructions have executed ([Running] means the fuel ran
    out). Does nothing once the CPU has halted or exited. Whichever way
    the code runs, each instruction is charged and faults as one fetch,
    one check of its fields and one execution would: an instruction
    that raises is counted, with [pc] past it, unless it could not be
    fetched or decoded; fuel may stop a block at any instruction; and a
    syscall runs with [pc] and [instr_count] up to date.
    @raise Trap on division by zero, or on a fault in flat memory
    @raise Simos.Addr_space.Fault on a fault in mapped memory
    @raise Encode.Bad_instruction on an unknown opcode or a register
    field above r15
    @raise Invalid_argument if [regs] does not hold {!Isa.nregs}
    registers *)
val run : ?fuel:int -> t -> outcome

(** Read a NUL-terminated string from memory at an address. *)
val read_cstring : t -> int -> string

(** Read raw bytes from memory. The result grows as bytes are read, so
    a length that runs off mapped memory faults after allocating about
    twice the bytes read at most. *)
val read_bytes : t -> int -> int -> Bytes.t

(** Write raw bytes into memory. *)
val write_bytes : t -> int -> Bytes.t -> unit
