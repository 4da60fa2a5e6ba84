(** Syscall numbers of the simulated OS: every number is declared here.

    The kernel serves the numbers below {!omos_base} itself. The ones at
    or above it belong to runtimes that register their handlers in the
    kernel's table ({!Kernel.register_syscall}): the simulated
    equivalents of "contact OMOS via IPC", of the lazy-binding trap of
    the baseline dynamic scheme, of the monitor's wrappers and of
    dynamic loading. *)

let sys_exit = 0
let sys_write = 1 (* write(fd, buf, len) -> len *)
let sys_open = 2 (* open(path) -> fd | -1 *)
let sys_read = 3 (* read(fd, buf, len) -> n *)
let sys_close = 4 (* close(fd) -> 0 *)
let sys_stat = 5 (* stat(path, out[2]: kind, size) -> 0 | -1 *)
let sys_readdir = 6 (* readdir(fd, index, buf) -> namelen | -1 *)
let sys_getpid = 8
let sys_argc = 9 (* argc() -> n *)
let sys_argv = 10 (* argv(i, buf, maxlen) -> len | -1 *)

(** First syscall number owned by a runtime (OMOS / schemes). *)
let omos_base = 100

(** OMOS: load the shared library named by the string at r1; returns
    the address of its entry-point hash table (partial-image scheme). *)
let omos_load_library = 100

(** Lazy PLT binding trap of the baseline dynamic scheme: r1 = module
    id, r2 = import index; returns the bound address. *)
let plt_bind = 110

(** Monitor wrappers: r1 = function id; entry and exit of a wrapped
    routine. They write no register. *)
let mon_enter = 120

let mon_exit = 121

(** Dynamic loading: r1 = blueprint string address, r2 = symbol name
    address; returns the symbol's bound address (or -1). *)
let dynload_syscall = 130
