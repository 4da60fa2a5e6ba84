(** The kernel of the simulated OS: processes, the one syscall table
    every syscall number is served from, the traditional exec path, and
    the hooks OMOS plugs into.

    Address-space layout convention for executables: text/data wherever
    the linker put them; a 256 KB anonymous heap at {!heap_base}; a
    256 KB stack ending at {!stack_top}. Writable and anonymous memory
    is demand-zero: the host makes each page when the process first
    reads or writes it. *)

exception Exec_error of string

val heap_base : int
val heap_size : int
val stack_top : int
val stack_size : int

(** An image cached for mapping, held by whoever cached it: the kernel
    for an exec'd path ([execs]), the server for a cache entry, a
    dynamic load for one mapping. Its mappings share each segment's
    source residency and, for a read-only segment, its bytes, frames
    and translations ({!Svm.Cpu.translations}); each maps a writable
    segment privately, referencing its bytes and copying a page at the
    page's first access, and runs its code word by word. *)
type mappable

type t = {
  fs : Fs.t;
  phys : Phys.t;
  clock : Clock.t;
  cost : Cost.t;
  mutable next_pid : int;
  execs : (string, Bytes.t * mappable) Hashtbl.t;
      (* exec'd path -> the file bytes last read there and their image *)
  read_cached : (string, unit) Hashtbl.t; (* file data in the buffer cache *)
  mutable syscalls : syscall array;
      (* syscall number -> its handler; set through {!register_syscall} *)
  interpreters :
    (string, t -> params:string list -> args:string list -> Proc.t) Hashtbl.t;
  mutable syscall_count : int;
  mutable reap_hooks : (Proc.t -> unit) list; (* run by [reap], newest first *)
}

(** A syscall handler: it reads its arguments from the CPU's registers,
    leaves its result in r0, and says whether the process goes on. *)
and syscall = t -> Proc.t -> Svm.Cpu.t -> Svm.Cpu.sys_result

(** [create ()] builds a kernel with the given cost personality
    (default {!Cost.hpux}): empty filesystem, no processes, and the
    kernel's own syscalls (every {!Syscall} number below
    {!Syscall.omos_base}) in its table. *)
val create : ?cost:Cost.t -> unit -> t

(** [register_syscall k n f] makes [f] the handler of syscall [n],
    replacing any handler [n] had: the scheme runtime, the monitor and
    the dynamic loader register their {!Syscall.omos_base}-range numbers
    this way. Every syscall charges the cost model's [syscall_overhead] and
    counts in [syscall_count] before its handler runs; one at or above
    {!Syscall.omos_base} runs inside a [kernel.upcall] span. A number
    with no handler returns -1 in r0 and continues.
    @raise Invalid_argument if [n] is negative. *)
val register_syscall : t -> int -> syscall -> unit

(** Charge simulated time (microseconds) to the respective clock
    bucket. *)
val charge_sys : t -> float -> unit

val charge_io : t -> float -> unit
val charge_user : t -> float -> unit

(** Create a process with an empty address space — the "empty task" the
    integrated exec hands to OMOS. *)
val create_process : t -> args:string list -> Proc.t

(** Map heap and stack, attach a CPU at [entry]. Completes any exec
    path. *)
val finish_exec : t -> Proc.t -> entry:int -> unit

(** [cache_image k ~label ?from_disk img] caches [img] for mapping,
    allocating each read-only segment's frames and holding one
    reference to them. [from_disk] marks segment sources as needing
    demand loads on first-ever touch. *)
val cache_image : t -> label:string -> ?from_disk:bool -> Linker.Image.t -> mappable

(** Drop the reference {!cache_image} holds. Mappings still in place
    keep theirs; a released mappable must not be mapped again. *)
val release : t -> mappable -> unit

(** Map a cached image into a process: read-only segments shared,
    writable segments private, bss anonymous, each region labelled
    [label#segment]. [touch_user_cost] charges extra user time per
    first page touch (deferred-relocation modelling). *)
val map_image : t -> Proc.t -> ?touch_user_cost:float -> mappable -> unit

(** Register a [#!]-script interpreter by path. The handler receives
    the script's parameter words and the exec arguments and must return
    a ready process (charging its own costs). *)
val register_interpreter :
  t -> string -> (t -> params:string list -> args:string list -> Proc.t) -> unit

(** The traditional exec: open the executable, parse it (cost
    proportional to file size), map it. The image is cached per path
    and decoded again only when the file's bytes change. A file
    starting with [#!] dispatches to its registered interpreter, or
    execs an interpreter binary in place of argv[0], at most four
    levels deep. *)
val exec : t -> path:string -> args:string list -> Proc.t

(** Run a process to completion, charging its instructions as user
    time. Returns the exit code.
    @raise Exec_error if the process halts without exiting or runs out
    of fuel. *)
val run : t -> Proc.t -> ?fuel:int -> unit -> int

(** [on_reap k f] runs [f] on every process {!reap} tears down, before
    its address space goes, so that whatever the process holds outside
    the kernel (a dynamic loader's arena reservations) is freed too. *)
val on_reap : t -> (Proc.t -> unit) -> unit

(** Tear down a finished process: run the reap hooks, then release its
    address space. *)
val reap : t -> Proc.t -> unit
