(** A complete simulated machine: kernel + OMOS server + the workload
    namespace (crt0, ls, codegen, libc, the auxiliary libraries) and
    the filesystem datasets — the fixture examples, tests, and benches
    start from. *)

(** Which cost personality the kernel runs. *)
type personality = Hpux | Mach_osf1 | Mach_386

(** Figure 1's libc meta-object, almost verbatim. *)
val libc_meta_source : string

(** [rt] has registered the bind traps in [kernel]'s syscall table, and
    [specializers] registers the monitor's once a "monitor" evaluation
    runs; a dynamic loader registers its own ({!Dynload.attach}). *)
type t = {
  kernel : Simos.Kernel.t;
  server : Server.t;
  rt : Schemes.t;
  specializers : Specializers.t;
  personality : personality;
}

(** [faults] configures the server's residency fault injection (see
    {!Residency.faults}); omit it for none. *)
val create :
  ?personality:personality -> ?faults:Residency.faults -> ?many_entries:int -> unit -> t

(** Client objects of the `ls` program (crt0 + /obj/ls.o). *)
val ls_client : t -> Sof.Object_file.t list

val ls_libs : string list

(** Client objects of `codegen` (crt0 + its 33 translation units). *)
val codegen_client : t -> Sof.Object_file.t list

(** codegen's six libraries, libc last. *)
val codegen_libs : string list

(** Arguments for the paper's three measured invocations. *)
val ls_single_args : string list

val ls_laf_args : string list
val codegen_args : string list
