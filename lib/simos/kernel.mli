(** The kernel of the simulated OS: processes, syscalls, the
    traditional exec path, and the hooks OMOS plugs into.

    Address-space layout convention for executables: text/data wherever
    the linker put them; a 256 KB anonymous heap at {!heap_base}; a
    256 KB stack ending at {!stack_top}. *)

exception Exec_error of string

val heap_base : int
val heap_size : int
val stack_top : int
val stack_size : int

(** A file-backed segment in the OS page cache: every process mapping
    the same key shares its source's residency. A read-only segment
    ([Shared]) also shares its bytes, its frames and the translations
    of its code, which persist as long as the entry
    ({!Svm.Cpu.translations}). A writable segment ([Private]) holds its
    source's residency only: each process maps a private copy, with
    its own frames, and runs it word by word. *)
type cached_seg =
  | Shared of {
      bytes : Bytes.t;
      frames : Phys.frame_group;
      backing : Addr_space.backing_state;
      code : Svm.Cpu.translations;
    }
  | Private of Addr_space.backing_state

type t = {
  fs : Fs.t;
  phys : Phys.t;
  clock : Clock.t;
  cost : Cost.t;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  page_cache : (string, cached_seg) Hashtbl.t; (* key: path#segment *)
  exec_sources : (string, Bytes.t) Hashtbl.t;
      (* exec'd path -> the file bytes its page-cache entries came from *)
  read_cached : (string, unit) Hashtbl.t; (* file data in the buffer cache *)
  mutable upcall : (t -> Proc.t -> Svm.Cpu.t -> int -> Svm.Cpu.sys_result) option;
  interpreters :
    (string, t -> params:string list -> args:string list -> Proc.t) Hashtbl.t;
  mutable syscall_count : int;
}

(** [create ()] builds a kernel with the given cost personality
    (default {!Cost.hpux}): empty filesystem, no processes. *)
val create : ?cost:Cost.t -> unit -> t

(** Install the handler for syscalls at or above {!Syscall.omos_base}
    (the OMOS server and scheme runtimes use this). *)
val set_upcall :
  t -> (t -> Proc.t -> Svm.Cpu.t -> int -> Svm.Cpu.sys_result) -> unit

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

(** Map an image into a process: read-only segments shared through the
    page cache under [key], writable segments private, bss anonymous.
    [fresh_from_disk] marks segment sources as needing demand loads on
    first-ever touch; [touch_user_cost] charges extra user time per
    first page touch (deferred-relocation modelling). *)
val map_image :
  t ->
  Proc.t ->
  key:string ->
  ?fresh_from_disk:bool ->
  ?touch_user_cost:float ->
  Linker.Image.t ->
  unit

(** Drop the page-cache entries of every segment mapped under [key],
    releasing the cache's hold on their frames. Mappings still in place
    keep theirs; the next {!map_image} under [key] caches afresh. The
    server calls it for an evicted image it had mapped, {!exec} for a
    path whose file changed. *)
val drop_cached : t -> key:string -> unit

(** Register a [#!]-script interpreter by path. The handler receives
    the script's parameter words and the exec arguments and must return
    a ready process (charging its own costs). *)
val register_interpreter :
  t -> string -> (t -> params:string list -> args:string list -> Proc.t) -> unit

(** The traditional exec: open the executable, parse it (cost
    proportional to file size), map it. Segments are cached under the
    path; when the file's contents differ from those they were cached
    from, they are dropped first. A file starting with [#!]
    dispatches to its registered interpreter instead. *)
val exec : t -> path:string -> args:string list -> Proc.t

(** Run a process to completion, charging its instructions as user
    time. Returns the exit code.
    @raise Exec_error if the process halts without exiting or runs out
    of fuel. *)
val run : t -> Proc.t -> ?fuel:int -> unit -> int

(** Tear down a finished process's address space. *)
val reap : t -> Proc.t -> unit
