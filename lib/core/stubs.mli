(** Stub generation: dispatch tables, PLT entries, and partial-image
    client stubs — all real SVM code.

    Both flavours share one shape: indirect through a private slot
    word, trapping to a binder syscall on first use and tail-jumping
    thereafter. The difference is which runtime the trap reaches and
    what it charges. *)

(** Instructions per stub. *)
val stub_len : int

(** Instructions executed per call through an already-bound stub — the
    steady-state dispatch-table overhead. *)
val bound_path_instrs : int

type import = { imp_name : string; imp_stub : string; imp_slot : string }

(** Names an import's stub ([name$stub]) and slot ([name$slot]). *)
val import_of_name : string -> import

(** PLT + GOT object for the baseline dynamic scheme
    (traps to {!Simos.Syscall.plt_bind}). *)
val plt_object : import list -> Sof.Object_file.t

(** Client stubs for the OMOS partial-image scheme
    (traps to {!Simos.Syscall.omos_load_library}). *)
val omos_stub_object : import list -> Sof.Object_file.t

(** Rewire a client module so its references to the imported functions
    go through the stubs ([f -> f$stub], references only): one [rename]
    operator over the whole import set, none for an empty one. *)
val divert_imports : Jigsaw.Module_ops.t -> import list -> Jigsaw.Module_ops.t

(** Memory consumed by dispatch machinery for [n] imports (stub code +
    slots), in bytes — the Kohl/Paxson measurement. *)
val dispatch_bytes : int -> int
