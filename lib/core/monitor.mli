(** Transparent program monitoring (paper §4.1, §6 and [14]): every
    exported routine of a module is wrapped with a generated logging
    wrapper; the recorded call sequence feeds {!Reorder}. *)

type event = Enter of int | Exit of int

type trace = {
  names : string array;  (** function id → name *)
  mutable events : event list;  (** reversed *)
  mutable stamps : (int * int) list;
      (** (client, request) attribution per event, reversed *)
  mutable count : int;
}

(** Events in chronological order. *)
val trace_events : trace -> event list

(** Events paired with the (client, request) active when each was
    recorded ([(-1, -1)] outside any request), chronological. *)
val stamped_events : trace -> (event * int * int) list

(** Function call sequence (ids), in call order. *)
val call_sequence : trace -> int list

(** Names in order of first call. *)
val first_call_order : trace -> string list

(** The exported text functions of a module, in export order — the
    routines {!monitored} wraps and the ["lib-dynamic"] specializer
    stubs. *)
val functions : Jigsaw.Module_ops.t -> string list

(** [monitored ?exits m] wraps every exported text function of [m],
    renaming the whole set to [f$mon$real] in one [rename] operator.
    With [exits:false] (default) wrappers are three-instruction
    trampolines logging entries only; with [exits:true] they keep
    return addresses on a private shadow stack and log returns too.
    Internal callers route through the wrappers as well. Returns the
    transformed module and its (empty) trace. *)
val monitored : ?exits:bool -> Jigsaw.Module_ops.t -> Jigsaw.Module_ops.t * trace

(** [attach ?key k trace] registers the wrappers' syscalls
    ({!Simos.Syscall.mon_enter}, {!Simos.Syscall.mon_exit}) in [k]'s
    table, recording into [trace]; a later [attach] on [k] takes them
    over. Each event costs a real syscall — the monitoring overhead is
    visible in measurements, as it was for OMOS. With [key] set, every
    function entry also feeds {!Telemetry.Hotness} under that key, so
    the continuous profile aggregates across requests. *)
val attach : ?key:string -> Simos.Kernel.t -> trace -> unit
