(** Stub generation: dispatch tables, PLT entries, and partial-image
    client stubs.

    Two flavours are generated here, both real SVM code:

    - {!plt_object} — the baseline dynamic scheme's lazy-binding stubs
      (SunOS/HP-UX style): each imported function gets a stub that
      indirects through a private GOT slot, trapping to the runtime
      binder on first use. This is the "dispatch table" whose memory and
      per-call overhead the paper holds against traditional shared
      libraries.

    - {!omos_stub_object} — the partial-image scheme's stubs: "On the
      first invocation of a routine in a library, the client stub
      contacts OMOS and loads in the library"; thereafter calls go
      through an indirect branch table.

    Both stubs have the same shape (the difference is which runtime
    syscall they raise and what that runtime charges):

    {v
    0: lea  r12, slot      ; address of this import's table slot
    1: ld   r11, [r12]
    2: jnz  r11, +24       ; bound: skip to the indirect jump
    3: movi r1, index      ; import index for the binder
    4: sys  <bind>
    5: ld   r11, [r12]     ; binder patched the slot
    6: jmpr r11            ; tail-jump: ra still points at the caller
    v} *)

let stub_len = 7 (* instructions per stub *)

(** Instructions executed per call through an already-bound stub
    (0,1,2,6) — the steady-state dispatch-table overhead. *)
let bound_path_instrs = 4

type import = { imp_name : string; imp_stub : string; imp_slot : string }

(** Names an import's stub and slot symbols. *)
let import_of_name (name : string) : import =
  { imp_name = name; imp_stub = name ^ "$stub"; imp_slot = name ^ "$slot" }

(* Shared emitter for both stub flavours. *)
let emit_stubs ~(obj_name : string) ~(bind_syscall : int) (imports : import list) :
    Sof.Object_file.t =
  let a = Sof.Asm.create obj_name in
  List.iteri
    (fun index imp ->
      Sof.Asm.label a imp.imp_stub;
      Sof.Asm.lea a 12 imp.imp_slot;
      Sof.Asm.instr a (Svm.Isa.Ld (11, 12, 0l));
      Sof.Asm.instr a (Svm.Isa.Jnz (11, Int32.of_int (3 * Svm.Isa.width)));
      Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int index));
      Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int bind_syscall));
      Sof.Asm.instr a (Svm.Isa.Ld (11, 12, 0l));
      Sof.Asm.instr a (Svm.Isa.Jmpr 11))
    imports;
  (* the table: one private writable word per import *)
  List.iter
    (fun imp ->
      Sof.Asm.data_label a imp.imp_slot;
      Sof.Asm.data_word a 0l)
    imports;
  Sof.Asm.finish a

(** PLT + GOT object for the baseline dynamic scheme. *)
let plt_object (imports : import list) : Sof.Object_file.t =
  emit_stubs ~obj_name:"(plt)" ~bind_syscall:Simos.Syscall.plt_bind imports

(** Client stubs for the OMOS partial-image scheme. *)
let omos_stub_object (imports : import list) : Sof.Object_file.t =
  emit_stubs ~obj_name:"(omos-stubs)" ~bind_syscall:Simos.Syscall.omos_load_library
    imports

(** Rewire a client module so its references to the imported functions
    go through the stubs: [f -> f$stub] on references only, one rename
    over the whole import set. *)
let divert_imports (client : Jigsaw.Module_ops.t) (imports : import list) :
    Jigsaw.Module_ops.t =
  match imports with
  | [] -> client
  | _ ->
      Jigsaw.Module_ops.rename ~scope:Jigsaw.Module_ops.Refs_only
        (Jigsaw.Select.any (List.map (fun imp -> imp.imp_name) imports))
        "\\1$stub" client

(** Memory consumed by dispatch machinery for [n] imports: stub code +
    table slots, in bytes — the Kohl/Paxson measurement (E2). *)
let dispatch_bytes (n : int) : int = n * ((stub_len * Svm.Isa.width) + 4)
