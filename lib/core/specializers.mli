(** The server's specialization styles (paper §3.4, §4.2):
    ["lib-dynamic"] (stub generation), ["lib-dynamic-impl"] (the shared
    implementation), and ["monitor"] (logging-wrapper interposition;
    pass the argument ["exits"] for entry+exit wrappers). *)

type t = { server : Server.t; mutable last_trace : Monitor.trace option }

(** The trace produced by the most recent "monitor" evaluation. *)
val last_trace : t -> Monitor.trace option

(** Register the styles on the server and return the handle. Each
    "monitor" evaluation attaches its trace ({!Monitor.attach}) to the
    server's kernel, taking the monitor syscalls over from the last. *)
val install : Server.t -> t
