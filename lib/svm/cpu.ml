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
  mutable entered : block array;
  mutable count : int;
  seg : translations;
}

(* A block's ops, each one instruction or one fused group of them (see
   [group]), and its [length] in instructions. [raised] holds one 16-bit
   entry per op: how many of the block's instructions count when that
   op raises. [next] is the block that ran after this one last, entered
   at segment offset [next_off] on this block's page (-1: none yet). *)
and block = {
  ops : (t -> unit) array;
  length : int;
  raised : Bytes.t;
  mutable next_off : int;
  mutable next : block;
}

(* A segment's pages (each [Words] until a block is entered on it) and
   its ops: one per distinct word, and one per distinct fused group,
   keyed by the group's bytes. *)
and translations = {
  code_bytes : Bytes.t;
  pages : page array;
  word_ops : (int, t -> unit) Hashtbl.t;
  group_ops : (string, t -> unit) Hashtbl.t;
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
    word_ops = Hashtbl.create 64;
    group_ops = Hashtbl.create 16;
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

(* Window bytes read and written without a bounds check: a window's
   [lo, hi) lies within its bytes (see cpu.mli), so every access a
   window serves is in range. Little-endian, as [Bytes.get_int32_le]. *)
external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external big_endian : unit -> bool = "%big_endian"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32 (b : Bytes.t) (i : int) : int =
  Int32.to_int (if big_endian () then swap32 (unsafe_get32 b i) else unsafe_get32 b i)

let[@inline] set32 (b : Bytes.t) (i : int) (v : int) : unit =
  let v = Int32.of_int v in
  unsafe_set32 b i (if big_endian () then swap32 v else v)

let[@inline] get8 (b : Bytes.t) (i : int) : int = Char.code (Bytes.unsafe_get b i)
let[@inline] set8 (b : Bytes.t) (i : int) (v : int) : unit =
  Bytes.unsafe_set b i (Char.unsafe_chr v)

(* Data accesses: through the data window when it serves the whole
   access, then through the second data window, and through the
   environment otherwise. *)
let[@inline] read8 (m : mem) (a : int) : int =
  let d = m.data and e = m.data2 in
  if a >= d.lo && a < d.hi then get8 d.bytes (a - d.base)
  else if a >= e.lo && a < e.hi then get8 e.bytes (a - e.base)
  else m.load8 a

let[@inline] write8 (m : mem) (a : int) (v : int) : unit =
  let d = m.data and e = m.data2 in
  if d.writable && a >= d.lo && a < d.hi then set8 d.bytes (a - d.base) v
  else if e.writable && a >= e.lo && a < e.hi then set8 e.bytes (a - e.base) v
  else m.store8 a v

let[@inline] read32 (m : mem) (a : int) : int =
  let d = m.data and e = m.data2 in
  if a >= d.lo && a + 4 <= d.hi then get32 d.bytes (a - d.base)
  else if a >= e.lo && a + 4 <= e.hi then get32 e.bytes (a - e.base)
  else m.load32 a

let[@inline] write32 (m : mem) (a : int) (v : int) : unit =
  let d = m.data and e = m.data2 in
  if d.writable && a >= d.lo && a + 4 <= d.hi then set32 d.bytes (a - d.base) v
  else if e.writable && a >= e.lo && a + 4 <= e.hi then set32 e.bytes (a - e.base) v
  else m.store32 a v

(* Register access in ops, unchecked: register numbers are below 16,
   and [run] runs ops only on a CPU with 16 registers. *)
let[@inline] ( .!() ) (r : int array) (n : int) : int = Array.unsafe_get r n
let[@inline] ( .!()<- ) (r : int array) (n : int) (v : int) : unit = Array.unsafe_set r n v

(* The one statement of each instruction's semantics, over registers
   [r], memory [m] or the whole CPU; [op] and the fused groups call
   these. [pc] is already past the instruction, so a branch computes
   its target from [cpu.pc] and a call stores [cpu.pc]. *)
let[@inline] movi r rd imm = r.!(rd) <- imm
let[@inline] addi r rd s1 imm = r.!(rd) <- wrap (r.!(s1) + imm)
let[@inline] cmpeq r rd s1 s2 = r.!(rd) <- (if r.!(s1) = r.!(s2) then 1 else 0)
let[@inline] cmplt r rd s1 s2 = r.!(rd) <- (if r.!(s1) < r.!(s2) then 1 else 0)
let[@inline] cmple r rd s1 s2 = r.!(rd) <- (if r.!(s1) <= r.!(s2) then 1 else 0)
let[@inline] ld m r rd s1 imm = r.!(rd) <- read32 m (addr (r.!(s1) + imm))

(* [st]'s access: store [v] at [s1] + [imm]. *)
let[@inline] store m r s1 imm v = write32 m (addr (r.!(s1) + imm)) v
let[@inline] st m r s1 s2 imm = store m r s1 imm r.!(s2)
let[@inline] jz cpu s1 imm = if cpu.regs.!(s1) = 0 then cpu.pc <- cpu.pc + imm
let[@inline] jnz cpu s1 imm = if cpu.regs.!(s1) <> 0 then cpu.pc <- cpu.pc + imm

(* The fields of a valid instruction's low word. *)
let[@inline] opcode (w : int) : int = w land 0xff
let[@inline] rd (w : int) : int = (w lsr 8) land 0xf
let[@inline] rs1 (w : int) : int = (w lsr 16) land 0xf
let[@inline] rs2 (w : int) : int = (w lsr 24) land 0xf

let halt cpu = cpu.outcome <- Halted
let nop _ = ()

(* The instruction with valid low word [w] and immediate [imm], as an
   op on the CPU. An op runs with [pc] already past its instruction;
   none captures an address. *)
let op (w : int) (imm : int) : t -> unit =
  let rd = rd w and s1 = rs1 w and s2 = rs2 w in
  match opcode w with
  | 0 (* halt *) -> halt
  | 1 (* nop *) -> nop
  | 2 (* movi *) | 22 (* lea *) -> fun { regs = r; _ } -> movi r rd imm
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
  | 14 (* addi *) -> fun { regs = r; _ } -> addi r rd s1 imm
  | 15 (* cmpeq *) -> fun { regs = r; _ } -> cmpeq r rd s1 s2
  | 16 (* cmplt *) -> fun { regs = r; _ } -> cmplt r rd s1 s2
  | 17 (* cmple *) -> fun { regs = r; _ } -> cmple r rd s1 s2
  | 18 (* ld *) -> fun { regs = r; mem; _ } -> ld mem r rd s1 imm
  | 19 (* st *) -> fun { regs = r; mem; _ } -> st mem r s1 s2 imm
  | 20 (* ldb *) -> fun { regs = r; mem; _ } -> r.!(rd) <- read8 mem (addr (r.!(s1) + imm))
  | 21 (* stb *) ->
      fun { regs = r; mem; _ } -> write8 mem (addr (r.!(s1) + imm)) (r.!(s2) land 0xff)
  | 23 (* jmp *) ->
      let target = addr imm in
      fun cpu -> cpu.pc <- target
  | 24 (* jz *) -> fun cpu -> jz cpu s1 imm
  | 25 (* jnz *) -> fun cpu -> jnz cpu s1 imm
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
  match Hashtbl.find tr.word_ops key with
  | o -> o
  | exception Not_found ->
      let o = op w imm in
      Hashtbl.add tr.word_ops key o;
      o

(* The fused groups, each run as one op. [S] is any register, the
   stack pointer in the code MiniC emits:
   - push: [addi S,S,i; st [S+j],A];
   - pop: [ld B,[S+j]; addi S,S,i];
   - push-immediate-pop: a push, [movi] or [lea] of X <> S, then a pop
     of the slot just stored: [ld B,[S+j]; addi S,S,i'];
   - compare-and-branch: [cmpeq], [cmplt] or [cmple] into C, then [jz]
     or [jnz] on C.
   [group b o last] is how many instructions the op at [o] runs, in a
   block whose last instruction is at [last]: 5 or 2 for a group, 1
   for a lone instruction. Only a compare-and-branch, which cannot
   raise, takes in the block's last instruction, and only as the
   block's last two; so the last op is either, and counts the whole
   block if it raises. *)
let group (b : Bytes.t) (o : int) (last : int) : int =
  if o = last then 1
  else
    let w = low_word b o and w1 = low_word b (o + width) in
    if o + width = last then
      match (opcode w, opcode w1) with
      | (15 | 16 | 17), (24 | 25) when rs1 w1 = rd w -> 2
      | _ -> 1
    else
      match (opcode w, opcode w1) with
      | 14, 19 when rd w = rs1 w && rs1 w1 = rd w ->
          let s = rd w in
          if o + (4 * width) < last then
            let w2 = low_word b (o + (2 * width))
            and w3 = low_word b (o + (3 * width))
            and w4 = low_word b (o + (4 * width)) in
            if
              (opcode w2 = 2 || opcode w2 = 22)
              && rd w2 <> s && opcode w3 = 18 && rs1 w3 = s
              && immediate b (o + (3 * width)) = immediate b (o + width)
              && opcode w4 = 14 && rd w4 = s && rs1 w4 = s
            then 5
            else 2
          else 2
      | 18, 14 when rd w1 = rs1 w && rs1 w1 = rs1 w -> 2
      | _ -> 1

(* How many of the [g] instructions at [o] count when their op raises.
   In a group only the store or the load can raise: the second
   instruction of a push or a push-immediate-pop (whose load reads the
   slot its store has just written, so it cannot fault or charge), the
   first of a pop. A compare-and-branch cannot raise. *)
let raise_count (b : Bytes.t) (o : int) (g : int) : int =
  if g = 1 || opcode (low_word b o) = 18 then 1 else 2

(* The op of the group of [g] > 1 instructions at [o]. *)
let fused_op (b : Bytes.t) (o : int) (g : int) : t -> unit =
  let w = low_word b o and imm = immediate b o in
  let w1 = low_word b (o + width) and imm1 = immediate b (o + width) in
  match opcode w with
  | 14 when g = 5 ->
      let s = rd w and a = rs2 w1 and j = imm1 in
      let x = rd (low_word b (o + (2 * width))) and k = immediate b (o + (2 * width)) in
      let b' = rd (low_word b (o + (3 * width))) and i' = immediate b (o + (4 * width)) in
      fun { regs = r; mem; _ } ->
        addi r s s imm;
        let v = r.!(a) in
        store mem r s j v;
        movi r x k;
        (* the load of the slot just stored reads [v] *)
        r.!(b') <- v;
        addi r s s i'
  | 14 ->
      let s = rd w and a = rs2 w1 and j = imm1 in
      fun { regs = r; mem; _ } ->
        addi r s s imm;
        st mem r s a j
  | 18 ->
      let b' = rd w and s = rs1 w in
      fun { regs = r; mem; _ } ->
        ld mem r b' s imm;
        addi r s s imm1
  | c -> (
      let d = rd w and s1 = rs1 w and s2 = rs2 w in
      match (c, opcode w1) with
      | 15, 24 -> fun cpu -> cmpeq cpu.regs d s1 s2; jz cpu d imm1
      | 15, _ -> fun cpu -> cmpeq cpu.regs d s1 s2; jnz cpu d imm1
      | 16, 24 -> fun cpu -> cmplt cpu.regs d s1 s2; jz cpu d imm1
      | 16, _ -> fun cpu -> cmplt cpu.regs d s1 s2; jnz cpu d imm1
      | _, 24 -> fun cpu -> cmple cpu.regs d s1 s2; jz cpu d imm1
      | _ -> fun cpu -> cmple cpu.regs d s1 s2; jnz cpu d imm1)

(* The segment's op for the group of [g] instructions at [off]. *)
let shared_group (tr : translations) (b : Bytes.t) (off : int) (g : int) : t -> unit =
  if g = 1 then shared_op tr b off
  else
    let key = Bytes.sub_string b off (g * width) in
    match Hashtbl.find tr.group_ops key with
    | o -> o
    | exception Not_found ->
        let o = fused_op b off g in
        Hashtbl.add tr.group_ops key o;
        o

(* Never entered: its link matches no offset. *)
let rec no_block = { ops = [||]; length = 0; raised = Bytes.empty; next_off = -1; next = no_block }

(* Translate the block entered at [pc] on the page [p] under [code]:
   the words from [pc] through the first that ends a block, stopping
   before an invalid word and at the window's end (its page's end),
   grouped into ops. A block whose first word is invalid raises
   instead, uncounted. *)
let translate (p : blocks) (code : window) (pc : int) (slot : int) : block =
  let b = code.bytes and off = pc - code.base and stop = code.hi - code.base in
  let rec length n =
    let o = off + (n * width) in
    if o + width > stop then n
    else
      let w = low_word b o in
      if w land invalid_bits <> 0 then n
      else if ends_block (opcode w) then n + 1
      else length (n + 1)
  in
  let n = length 0 in
  if n = 0 then invalid (low_word b off);
  let last = off + ((n - 1) * width) in
  let rec count o k = if o > last then k else count (o + (group b o last * width)) (k + 1) in
  let k = count off 0 in
  let ops = Array.make k nop and raised = Bytes.create (2 * k) in
  let rec fill o i before =
    if o <= last then begin
      let g = group b o last in
      ops.(i) <- shared_group p.seg b o g;
      Bytes.set_uint16_ne raised (2 * i) (before + raise_count b o g);
      fill (o + (g * width)) (i + 1) (before + g)
    end
  in
  fill off 0 0;
  let block = { ops; length = n; raised; next_off = -1; next = no_block } in
  if p.count = Array.length p.entered then begin
    let grown = Array.make (max 4 (2 * p.count)) block in
    Array.blit p.entered 0 grown 0 p.count;
    p.entered <- grown
  end;
  p.entered.(p.count) <- block;
  p.count <- p.count + 1;
  Bytes.set_uint16_ne p.starts (slot * 2) p.count;
  block

let[@inline] running (cpu : t) = match cpu.outcome with Running -> true | _ -> false

(* Each block is entered through the code window as one fetch: a miss
   calls [fill_code], which charges the page and faults what cannot be
   fetched, before any word is read. On a page of translations the
   block runs from them: found through the link of the block before it
   when that block is on the page the window serves, else through the
   page's start table. On [Words] (writable memory, whose code a store
   may change) each word is read as it is fetched and runs the op made
   from that very word. *)
let run ?(fuel = max_int) (cpu : t) : outcome =
  if Array.length cpu.regs <> Isa.nregs then
    invalid_arg "Cpu.run: regs must hold 16 registers";
  let m = cpu.mem in
  let code = m.code in
  let budget = ref fuel and words = ref None in
  (* the block that ran last, and the window's page it ran from *)
  let prev = ref no_block and prev_page = ref Words in
  while !budget > 0 && running cpu do
    let pc = cpu.pc in
    if not (pc >= code.lo && pc + width <= code.hi && (pc - code.base) land (width - 1) = 0)
    then m.fill_code pc;
    match code.page with
    | Blocks p as page ->
        let off = pc - code.base in
        let before = !prev in
        let block =
          if before.next_off = off && page == !prev_page then before.next
          else begin
            let slot = (pc - code.lo) lsr 3 in
            let n = Bytes.get_uint16_ne p.starts (slot * 2) in
            (* n <= p.count *)
            let block =
              if n = 0 then translate p code pc slot else Array.unsafe_get p.entered (n - 1)
            in
            if page == !prev_page then begin
              before.next <- block;
              before.next_off <- off
            end;
            block
          end
        in
        prev := block;
        prev_page := page;
        let n = block.length and left = !budget in
        if n <= left then begin
          budget := left - n;
          (* Each op may raise; the one that does counts as many
             instructions as [raised] says, with [pc] past the last of
             them. [pc] and the count are written back before the last
             op runs, so a control transfer reads its successor's
             address in [pc] and a syscall sees the machine as it is. *)
          let ops = block.ops in
          let last = Array.length ops - 1 in
          let count = cpu.instr_count in
          let i = ref 0 in
          (try
             while !i < last do
               (Array.unsafe_get ops !i) cpu;
               incr i
             done
           with e ->
             let k = Bytes.get_uint16_ne block.raised (2 * !i) in
             cpu.pc <- pc + (k * width);
             cpu.instr_count <- count + k;
             raise e);
          cpu.pc <- pc + (n * width);
          cpu.instr_count <- count + n;
          (Array.unsafe_get ops last) cpu
        end
        else begin
          (* fewer instructions of fuel than the block holds: one at a
             time, each from its own word's op *)
          budget := 0;
          for k = 1 to left do
            let o = shared_op p.seg code.bytes (off + ((k - 1) * width)) in
            cpu.pc <- pc + (k * width);
            cpu.instr_count <- cpu.instr_count + 1;
            o cpu
          done
        end
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
