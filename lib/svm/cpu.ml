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
  mutable pc : int;
  mutable instr_count : int;
  mutable outcome : outcome;
  mem : mem;
  sys : t -> int -> sys_result;
}

(* The environment's three windows, and the calls that serve what they
   do not (see cpu.mli). *)
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

(* Addresses [lo, hi) are [bytes] at offset [address - base], and
   need no call to the environment (see cpu.mli). *)
and window = {
  mutable bytes : Bytes.t;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
  mutable writable : bool;
  mutable page : page;
}

and page = Words | Blocks of blocks

(* The blocks entered on one page of a segment. [starts] holds, per
   8-byte slot of the page, one more than the index in [entered] of the
   block entered at that slot, or 0. *)
and blocks = {
  starts : Bytes.t;
  mutable entered : (t -> unit) array array;
  mutable count : int;
  seg : translations;
}

(* A segment's pages (each [Words] until a block is entered on it) and
   its instructions' ops, one per distinct word. *)
and translations = {
  code_bytes : Bytes.t;
  pages : page array;
  ops : (int, t -> unit) Hashtbl.t;
}

(* The encoding's constants as literals: dune's dev profile compiles
   with -opaque, so reading them from [Isa] would cost a load each. *)
let width = 8
let reg_ra = 15
let () = assert (width = Isa.width && reg_ra = Isa.reg_ra && Isa.imm_offset = 4)

(* Bits of an instruction's low word (the opcode byte and the three
   register bytes) that are clear in every valid instruction: opcodes
   are below 32 and registers below 16. So a valid low word is below
   2^28. *)
let invalid_bits = 0xF0F0F0E0
let () = assert (Isa.max_opcode = 31 && Isa.nregs = 16)

(* A page holds [slots] instructions, so its block numbers fit the
   16-bit entries of [starts]. *)
let page_shift = 12
let slots = 1 lsl (page_shift - 3)
let () = assert (width = 8 && slots <= 0xFFFF)

let translations (bytes : Bytes.t) : translations =
  {
    code_bytes = bytes;
    pages = Array.make (max 1 ((Bytes.length bytes + (1 lsl page_shift) - 1) lsr page_shift)) Words;
    ops = Hashtbl.create 64;
  }

let translates (tr : translations) (bytes : Bytes.t) : bool = tr.code_bytes == bytes

let page (tr : translations) (n : int) : page =
  match tr.pages.(n) with
  | Blocks _ as p -> p
  | Words ->
      let p =
        Blocks { starts = Bytes.make (2 * slots) '\000'; entered = [||]; count = 0; seg = tr }
      in
      tr.pages.(n) <- p;
      p

(** [flat_mem size] is a simple linear memory for tests and standalone
    program runs. All three windows cover all of it, and an instruction
    may be fetched at any in-range address, aligned or not. *)
let flat_mem (size : int) : mem * Bytes.t =
  let buf = Bytes.make size '\000' in
  let check addr n =
    if addr < 0 || addr + n > size then
      raise (Trap (Printf.sprintf "memory access out of range: 0x%x" addr))
  in
  let whole () = { bytes = buf; base = 0; lo = 0; hi = size; writable = true; page = Words } in
  let mem =
    {
      code = whole ();
      data = whole ();
      data2 = whole ();
      fill_code = (fun a -> check a Isa.width);
      load8 = (fun a -> check a 1; Bytes.get_uint8 buf a);
      store8 = (fun a v -> check a 1; Bytes.set_uint8 buf a (v land 0xff));
      load32 = (fun a -> check a 4; Int32.to_int (Bytes.get_int32_le buf a));
      store32 = (fun a v -> check a 4; Bytes.set_int32_le buf a (Int32.of_int v));
    }
  in
  (mem, buf)

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

(* Data accesses: through the data window when it serves the whole
   access, then through the second data window, and through the
   environment otherwise. *)
let[@inline] read8 (m : mem) (a : int) : int =
  let d = m.data and e = m.data2 in
  if a >= d.lo && a < d.hi then Bytes.get_uint8 d.bytes (a - d.base)
  else if a >= e.lo && a < e.hi then Bytes.get_uint8 e.bytes (a - e.base)
  else m.load8 a

let[@inline] write8 (m : mem) (a : int) (v : int) : unit =
  let d = m.data and e = m.data2 in
  if d.writable && a >= d.lo && a < d.hi then Bytes.set_uint8 d.bytes (a - d.base) v
  else if e.writable && a >= e.lo && a < e.hi then Bytes.set_uint8 e.bytes (a - e.base) v
  else m.store8 a v

let[@inline] read32 (m : mem) (a : int) : int =
  let d = m.data and e = m.data2 in
  if a >= d.lo && a + 4 <= d.hi then Int32.to_int (Bytes.get_int32_le d.bytes (a - d.base))
  else if a >= e.lo && a + 4 <= e.hi then
    Int32.to_int (Bytes.get_int32_le e.bytes (a - e.base))
  else m.load32 a

let[@inline] write32 (m : mem) (a : int) (v : int) : unit =
  let d = m.data and e = m.data2 in
  if d.writable && a >= d.lo && a + 4 <= d.hi then
    Bytes.set_int32_le d.bytes (a - d.base) (Int32.of_int v)
  else if e.writable && a >= e.lo && a + 4 <= e.hi then
    Bytes.set_int32_le e.bytes (a - e.base) (Int32.of_int v)
  else m.store32 a v

(* Register access in ops, unchecked: register numbers are below 16,
   and [run] runs ops only on a CPU with 16 registers. *)
let[@inline] ( .!() ) (r : int array) (n : int) : int = Array.unsafe_get r n
let[@inline] ( .!()<- ) (r : int array) (n : int) (v : int) : unit = Array.unsafe_set r n v

let halt cpu = cpu.outcome <- Halted
let nop _ = ()

(* The instruction with valid low word [w] and immediate [imm], as an
   op on the CPU: the one statement of each instruction's semantics.
   An op runs with [pc] already past its instruction, so [cpu.pc] is
   the following instruction's address; none captures an address. *)
let op (w : int) (imm : int) : t -> unit =
  let rd = (w lsr 8) land 0xf and s1 = (w lsr 16) land 0xf and s2 = (w lsr 24) land 0xf in
  match w land 0xff with
  | 0 (* halt *) -> halt
  | 1 (* nop *) -> nop
  | 2 (* movi *) | 22 (* lea *) -> fun cpu -> cpu.regs.!(rd) <- imm
  | 3 (* mov *) -> fun { regs = r; _ } -> r.!(rd) <- r.!(s1)
  | 4 (* add *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) + r.!(s2))
  | 5 (* sub *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) - r.!(s2))
  | 6 (* mul *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) * r.!(s2))
  (* truncating, as Int32.div: only min_int / -1 leaves the range *)
  | 7 (* div *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) / divisor r.!(s2))
  | 8 (* mod *) -> fun { regs = r; _ } -> r.!(rd) <- r.!(s1) mod divisor r.!(s2)
  | 9 (* and *) -> fun { regs = r; _ } -> r.!(rd) <- r.!(s1) land r.!(s2)
  | 10 (* or *) -> fun { regs = r; _ } -> r.!(rd) <- r.!(s1) lor r.!(s2)
  | 11 (* xor *) -> fun { regs = r; _ } -> r.!(rd) <- r.!(s1) lxor r.!(s2)
  | 12 (* shl *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) lsl (r.!(s2) land 31))
  | 13 (* shr *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (addr r.!(s1) lsr (r.!(s2) land 31))
  | 14 (* addi *) -> fun { regs = r; _ } -> r.!(rd) <- wrap (r.!(s1) + imm)
  | 15 (* cmpeq *) -> fun { regs = r; _ } -> r.!(rd) <- (if r.!(s1) = r.!(s2) then 1 else 0)
  | 16 (* cmplt *) -> fun { regs = r; _ } -> r.!(rd) <- (if r.!(s1) < r.!(s2) then 1 else 0)
  | 17 (* cmple *) -> fun { regs = r; _ } -> r.!(rd) <- (if r.!(s1) <= r.!(s2) then 1 else 0)
  | 18 (* ld *) -> fun { regs = r; mem; _ } -> r.!(rd) <- read32 mem (addr (r.!(s1) + imm))
  | 19 (* st *) -> fun { regs = r; mem; _ } -> write32 mem (addr (r.!(s1) + imm)) r.!(s2)
  | 20 (* ldb *) -> fun { regs = r; mem; _ } -> r.!(rd) <- read8 mem (addr (r.!(s1) + imm))
  | 21 (* stb *) ->
      fun { regs = r; mem; _ } -> write8 mem (addr (r.!(s1) + imm)) (r.!(s2) land 0xff)
  | 23 (* jmp *) ->
      let target = addr imm in
      fun cpu -> cpu.pc <- target
  | 24 (* jz *) -> fun cpu -> if cpu.regs.!(s1) = 0 then cpu.pc <- cpu.pc + imm
  | 25 (* jnz *) -> fun cpu -> if cpu.regs.!(s1) <> 0 then cpu.pc <- cpu.pc + imm
  | 26 (* call *) ->
      let target = addr imm in
      fun cpu ->
        cpu.regs.!(reg_ra) <- wrap cpu.pc;
        cpu.pc <- target
  | 27 (* callr *) ->
      fun cpu ->
        let target = addr cpu.regs.!(s1) in
        cpu.regs.!(reg_ra) <- wrap cpu.pc;
        cpu.pc <- target
  | 28 (* jmpr *) -> fun cpu -> cpu.pc <- addr cpu.regs.!(s1)
  | 29 (* ret *) -> fun cpu -> cpu.pc <- addr cpu.regs.!(reg_ra)
  | 30 (* sys *) -> (
      fun cpu ->
        match cpu.sys cpu imm with
        | Sys_continue -> ()
        | Sys_exit code -> cpu.outcome <- Exited code)
  | 31 (* br *) -> fun cpu -> cpu.pc <- cpu.pc + imm
  | _ -> assert false (* invalid_bits admits opcodes 0-31 only *)

(* Control transfers, [halt] and [sys] end a block: whatever follows
   them runs only after the loop has looked at [pc] and the outcome. *)
let[@inline] ends_block (opcode : int) : bool = opcode = 0 || opcode >= 23

(* The low word of the instruction at [off]. *)
let[@inline] low_word (b : Bytes.t) (off : int) : int =
  Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let[@inline] immediate (b : Bytes.t) (off : int) : int =
  Int32.to_int (Bytes.get_int32_le b (off + 4))

let invalid (w : int) : 'a =
  Encode.check_fields (w land 0xff) ((w lsr 8) land 0xff) ((w lsr 16) land 0xff)
    ((w lsr 24) land 0xff);
  assert false (* some field is out of range *)

(* A valid instruction word as one int. *)
let[@inline] key (w : int) (imm : int) : int = w lor ((imm land 0xFFFFFFFF) lsl 28)

(* The ops of the words of writable memory that one run has fetched,
   by address, each with the word it was made from. A fetch takes the
   op only if the word it reads is that word, so no store can leave a
   stale op behind. *)
type recent = { keys : int array; found : (t -> unit) array }

let recent_size = 256
let recent () = { keys = Array.make recent_size (-1); found = Array.make recent_size nop }

(* The segment's op for the valid word at [off]. *)
let shared_op (tr : translations) (b : Bytes.t) (off : int) : t -> unit =
  let w = low_word b off and imm = immediate b off in
  let key = key w imm in
  match Hashtbl.find tr.ops key with
  | o -> o
  | exception Not_found ->
      let o = op w imm in
      Hashtbl.add tr.ops key o;
      o

(* Translate the block entered at [pc] on the page [p] under [code]:
   the words from [pc] through the first that ends a block, stopping
   before an invalid word and at the window's end (its page's end). A
   block whose first word is invalid raises instead, uncounted. *)
let translate (p : blocks) (code : window) (pc : int) (slot : int) : (t -> unit) array =
  let b = code.bytes and off = pc - code.base and stop = code.hi - code.base in
  let rec length n =
    let o = off + (n * width) in
    if o + width > stop then n
    else
      let w = low_word b o in
      if w land invalid_bits <> 0 then n
      else if ends_block (w land 0xff) then n + 1
      else length (n + 1)
  in
  let n = length 0 in
  if n = 0 then invalid (low_word b off);
  let ops = Array.init n (fun i -> shared_op p.seg b (off + (i * width))) in
  if p.count = Array.length p.entered then begin
    let grown = Array.make (max 4 (2 * p.count)) ops in
    Array.blit p.entered 0 grown 0 p.count;
    p.entered <- grown
  end;
  p.entered.(p.count) <- ops;
  p.count <- p.count + 1;
  Bytes.set_uint16_ne p.starts (slot * 2) p.count;
  ops

let[@inline] running (cpu : t) = match cpu.outcome with Running -> true | _ -> false

(* Each block is entered through the code window as one fetch: a miss
   calls [fill_code], which charges the page and faults what cannot be
   fetched, before any word is read. On a page of translations the
   block runs from them. On [Words] (writable memory, whose code a
   store may change) each word is read as it is fetched and runs the op
   made from that very word. *)
let run ?(fuel = max_int) (cpu : t) : outcome =
  if Array.length cpu.regs <> Isa.nregs then
    invalid_arg "Cpu.run: regs must hold 16 registers";
  let m = cpu.mem in
  let code = m.code in
  let budget = ref fuel and words = ref None in
  while !budget > 0 && running cpu do
    let pc = cpu.pc in
    if not (pc >= code.lo && pc + width <= code.hi && (pc - code.base) land (width - 1) = 0)
    then m.fill_code pc;
    match code.page with
    | Blocks p ->
        let slot = (pc - code.lo) lsr 3 in
        let n = Bytes.get_uint16_ne p.starts (slot * 2) in
        (* n <= p.count, and blocks are not empty *)
        let ops = if n = 0 then translate p code pc slot else Array.unsafe_get p.entered (n - 1) in
        let n = Array.length ops and b = !budget in
        let k = if n <= b then n else b in
        budget := b - k;
        (* Each op may raise; the one that does is counted, with [pc]
           past it. [pc] and the count are written back before the last
           op runs, so a control transfer reads its successor's address
           in [pc] and a syscall sees the machine as it is. *)
        let count = cpu.instr_count in
        let i = ref 0 in
        (try
           while !i < k - 1 do
             (Array.unsafe_get ops !i) cpu;
             incr i
           done
         with e ->
           cpu.pc <- pc + ((!i + 1) * width);
           cpu.instr_count <- count + !i + 1;
           raise e);
        cpu.pc <- pc + (k * width);
        cpu.instr_count <- count + k;
        (Array.unsafe_get ops (k - 1)) cpu
    | Words ->
        let c =
          match !words with
          | Some c -> c
          | None ->
              let c = recent () in
              words := Some c;
              c
        in
        let word = Bytes.get_int64_le code.bytes (pc - code.base) in
        let w = Int64.to_int word land 0xFFFFFFFF in
        if w land invalid_bits <> 0 then invalid w;
        let imm = Int64.to_int (Int64.shift_right word 32) in
        let k = key w imm and i = (pc lsr 3) land (recent_size - 1) in
        let op =
          if Array.unsafe_get c.keys i = k then Array.unsafe_get c.found i
          else begin
            let o = op w imm in
            c.keys.(i) <- k;
            c.found.(i) <- o;
            o
          end
        in
        decr budget;
        cpu.instr_count <- cpu.instr_count + 1;
        cpu.pc <- pc + width;
        op cpu
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
