(** Syscall numbers of the simulated OS: every number is declared here.

    The kernel serves the numbers below {!omos_base} itself. The ones at
    or above it belong to runtimes that register their handlers in the
    kernel's table ({!Kernel.register_syscall}): the simulated
    equivalents of "contact OMOS via IPC", of the lazy-binding trap of
    the baseline dynamic scheme, of the monitor's wrappers and of
    dynamic loading. *)

val sys_exit : int
val sys_write : int
val sys_open : int
val sys_read : int
val sys_close : int
val sys_stat : int
val sys_readdir : int
val sys_getpid : int
val sys_argc : int
val sys_argv : int

(** First syscall number owned by a runtime. *)
val omos_base : int

(** Partial-image scheme: load the libraries on a stub's first call. *)
val omos_load_library : int

(** Lazy PLT binding trap of the baseline dynamic scheme. *)
val plt_bind : int

(** Monitor wrappers: a wrapped routine's entry and exit. *)
val mon_enter : int

val mon_exit : int

(** Dynamic loading: r1 = blueprint string address, r2 = symbol name
    address; returns the bound address in r0 (or -1). *)
val dynload_syscall : int
