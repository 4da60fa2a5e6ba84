(** Transparent program monitoring (paper §4.1, §6 and [14]).

    "OMOS does this by using module operations to extract the set of
    referenced routines and generate wrapper functions around each, to
    log entry and exit from the routine. The wrapper functions are
    interposed between each caller and the called routine."

    Given a module, {!monitored} produces a variant in which every
    exported function [f] ({!functions}) is renamed away to [f$mon$real]
    and a generated wrapper takes its place: one [rename] over the whole
    set and one [merge] of the wrappers, whatever the module's size.
    Two wrapper shapes:

    - entry-only (default): a three-instruction trampoline that logs the
      call and tail-jumps to the real routine — zero stack disturbance;
    - entry+exit: a wrapper that keeps return addresses on a private
      shadow stack in client memory so it can log the return as well.

    Events arrive through the {!Simos.Syscall.mon_enter} and
    {!Simos.Syscall.mon_exit} syscalls, handled once {!attach}ed; the
    recorded call sequence feeds {!Reorder}. *)

type event = Enter of int | Exit of int

type trace = {
  names : string array; (* function id -> name *)
  mutable events : event list; (* reversed *)
  mutable stamps : (int * int) list; (* (client, request) per event, reversed *)
  mutable count : int;
}

let trace_events (t : trace) : event list = List.rev t.events

(** Events with the (client, request) attribution active when each was
    recorded — [(-1, -1)] outside any request. Chronological. *)
let stamped_events (t : trace) : (event * int * int) list =
  List.rev_map2
    (fun e (c, r) -> (e, c, r))
    t.events t.stamps

(** Function call sequence (ids), in call order. *)
let call_sequence (t : trace) : int list =
  List.filter_map (function Enter id -> Some id | Exit _ -> None) (trace_events t)

(** Names in order of first call. *)
let first_call_order (t : trace) : string list =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun id ->
      if Hashtbl.mem seen id then None
      else begin
        Hashtbl.replace seen id ();
        Some t.names.(id)
      end)
    (call_sequence t)

(* Wrapper generation. The real routine for id [i] is reached through
   the mangled name produced by the rename below. *)
let mangle name = name ^ "$mon$real"

let entry_only_wrappers (names : string list) : Sof.Object_file.t =
  let a = Sof.Asm.create "(monitor-wrappers)" in
  List.iteri
    (fun id name ->
      Sof.Asm.label a name;
      Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int id));
      Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.mon_enter));
      Sof.Asm.jmp_sym a (mangle name))
    names;
  Sof.Asm.finish a

(* Entry+exit wrappers: the caller's return address is parked on a
   shadow stack (the machine stack cannot be disturbed — callees find
   their arguments relative to sp). *)
let entry_exit_wrappers (names : string list) : Sof.Object_file.t =
  let a = Sof.Asm.create "(monitor-wrappers)" in
  let ra = Svm.Isa.reg_ra in
  List.iteri
    (fun id name ->
      Sof.Asm.label a name;
      (* push ra on the shadow stack *)
      Sof.Asm.lea a 12 "__mon_sp";
      Sof.Asm.instr a (Svm.Isa.Ld (11, 12, 0l));
      Sof.Asm.instr a (Svm.Isa.St (11, ra, 0l));
      Sof.Asm.instr a (Svm.Isa.Addi (11, 11, 4l));
      Sof.Asm.instr a (Svm.Isa.St (12, 11, 0l));
      (* log entry *)
      Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int id));
      Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.mon_enter));
      (* the real routine sees sp exactly as the caller left it *)
      Sof.Asm.call a (mangle name);
      (* log exit (r0 preserved: monitor syscalls do not write registers) *)
      Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int id));
      Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.mon_exit));
      (* pop ra and return to the original caller *)
      Sof.Asm.lea a 12 "__mon_sp";
      Sof.Asm.instr a (Svm.Isa.Ld (11, 12, 0l));
      Sof.Asm.instr a (Svm.Isa.Addi (11, 11, -4l));
      Sof.Asm.instr a (Svm.Isa.St (12, 11, 0l));
      Sof.Asm.instr a (Svm.Isa.Ld (ra, 11, 0l));
      Sof.Asm.instr a Svm.Isa.Ret)
    names;
  (* shadow stack: pointer word + 4 KB of depth *)
  Sof.Asm.data_label a "__mon_sp";
  Sof.Asm.data_word_sym a "__mon_stack";
  Sof.Asm.bss a "__mon_stack" 4096;
  Sof.Asm.finish a

(** The exported text functions of [m], in export order — the routines
    a wrapper or a stub can stand in for (data symbols cannot be
    wrapped). *)
let functions (m : Jigsaw.Module_ops.t) : string list =
  let frags = Jigsaw.Module_ops.fragments m in
  let is_function name =
    List.exists
      (fun o ->
        match Sof.Object_file.find_exported o name with
        | Some s -> s.Sof.Symbol.kind = Sof.Symbol.Text
        | None -> false)
      frags
  in
  List.filter is_function (Jigsaw.Module_ops.exports m)

(** [monitored m] — the monitoring transformation: every exported text
    function of [m] is wrapped. Returns the transformed module and the
    (empty) trace its wrappers will fill once {!attach}ed. *)
let monitored ?(exits = false) (m : Jigsaw.Module_ops.t) :
    Jigsaw.Module_ops.t * trace =
  let names = functions m in
  (* one rename of the whole set, definitions only: internal references
     keep the public name and therefore also route through the
     wrappers — "interposed between each caller and the called
     routine" *)
  let renamed =
    match names with
    | [] -> m
    | _ ->
        Jigsaw.Module_ops.rename ~scope:Jigsaw.Module_ops.Defs_only
          (Jigsaw.Select.any names) (mangle "\\1") m
  in
  let wrappers = if exits then entry_exit_wrappers names else entry_only_wrappers names in
  let m' = Jigsaw.Module_ops.merge renamed (Jigsaw.Module_ops.of_object wrappers) in
  ( m',
    { names = Array.of_list names; events = []; stamps = []; count = 0 } )

(** Register the monitor syscalls of [trace] in [k]'s table.
    Each event costs a syscall (already charged by the kernel) — the
    monitoring overhead is real and visible in the measurements, as it
    was for OMOS. With [key] set, every function entry is also fed to
    the continuous hotness store ({!Telemetry.Hotness}) under that key,
    so the aggregate survives the trace itself. *)
let attach ?key (k : Simos.Kernel.t) (trace : trace) : unit =
  let record ~enter kind _k _p (cpu : Svm.Cpu.t) =
    let id = Int32.to_int (Svm.Cpu.get_reg cpu 1) in
    if id >= 0 && id < Array.length trace.names then begin
      trace.events <- kind id :: trace.events;
      trace.stamps <-
        (Telemetry.Request.current_client (), Telemetry.Request.current_request ())
        :: trace.stamps;
      trace.count <- trace.count + 1;
      if enter then
        match key with
        | Some k -> Telemetry.Hotness.record_call ~key:k trace.names.(id)
        | None -> ()
    end;
    Svm.Cpu.Sys_continue
  in
  Simos.Kernel.register_syscall k Simos.Syscall.mon_enter
    (record ~enter:true (fun id -> Enter id));
  Simos.Kernel.register_syscall k Simos.Syscall.mon_exit
    (record ~enter:false (fun id -> Exit id))
