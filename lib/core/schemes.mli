(** The shared-library schemes under comparison (paper §4, Table 1).

    Four ways to turn "client + libraries" into a running process:
    traditional static linking, the traditional dynamic scheme
    (SunOS/HP-UX-style PLT stubs and lazy binding), OMOS self-contained
    libraries (bootstrap or integrated exec), and OMOS partial-image
    libraries. All run the same client code on the same simulated OS;
    they differ only in linking/loading mechanics. *)

exception Scheme_error of string

(** Which lazy-binding runtime a process uses. *)
type flavor = Plt | Omos_stub

(** Per-process lazy-binding state. *)
type proc_rt = {
  flavor : flavor;
  imports : Stubs.import array;
  mutable resolve : string -> int option;
  slot_addr : string -> int;
  lib_paths : string list;
  expected_version : string;
  mutable libs_mapped : bool;
  mutable binds : int;
}

(** Interface version of a library set: a digest of the exported names.
    Recorded in partial-image clients and checked at load time — the
    versioning safety the paper says "should be implemented" (§4.2). *)
val interface_version : Linker.Image.t list -> string

(** The scheme runtime: owns per-process lazy-binding state (pid →
    state, for the processes the dynamic and partial-image schemes
    launched and the kernel has not reaped) and the bind-trap syscalls.
    One per kernel. *)
type t = { server : Server.t; table : (int, proc_rt) Hashtbl.t }

(** Create the runtime for the server's kernel: register its bind traps
    ({!Simos.Syscall.plt_bind}, {!Simos.Syscall.omos_load_library}) in
    the kernel's syscall table, and a reap hook ({!Simos.Kernel.on_reap})
    that drops a process's [table] entry. *)
val runtime : Server.t -> t

(** A ready-to-run program under some scheme. *)
type program = {
  prog_name : string;
  scheme : string;
  launch : args:string list -> Simos.Proc.t;
      (** start one invocation; run it with {!Simos.Kernel.run} *)
  dispatch_bytes : int;
      (** memory overhead of dispatch machinery (stubs + slots) *)
  eager_relocs : int;
      (** eager relocation work charged per invocation (dynamic scheme) *)
  imports : int;  (** number of lazily bindable imports *)
}

(** Wrap objects as a [Merge] of leaves. *)
val graph_of_objs : Sof.Object_file.t list -> Blueprint.Mgraph.node

(** Statically link client + libraries into one traditional binary,
    with archive semantics: only the members that satisfy references
    are pulled in. Installing it pays the binary-write I/O. *)
val static_program :
  t -> name:string -> client:Sof.Object_file.t list -> libs:string list -> program

(** The traditional dynamic scheme: shared libraries at system-chosen
    addresses, per-process PLT stubs + dispatch slots (real SVM code),
    eager client data relocation and deferred per-page library
    relocation on every invocation, lazy procedure binding on first
    call. *)
val dynamic_program :
  t -> name:string -> client:Sof.Object_file.t list -> libs:string list -> program

(** How a self-contained program is started. *)
type exec_style = Bootstrap | Integrated

(** OMOS self-contained shared libraries: fully bound, cached,
    constraint-placed images, launched via the bootstrap loader or the
    OS-integrated exec. *)
val self_contained_program :
  t ->
  ?style:exec_style ->
  name:string ->
  client:Sof.Object_file.t list ->
  libs:string list ->
  unit ->
  program

(** OMOS partial-image shared libraries: a conventional executable with
    per-entry-point stubs that load the library from the server on
    first use. The client records the library interface version; a
    stale client is refused at load time. *)
val partial_image_program :
  t -> name:string -> client:Sof.Object_file.t list -> libs:string list -> program

(** Run one invocation to completion; returns (exit code, stdout) and
    reaps the process. *)
val invoke : t -> program -> args:string list -> int * string
