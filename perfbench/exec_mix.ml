(* exec_mix: a shell running programs back to back, as in the paper's
   x1000 loops. The three measured programs (ls on a single-entry
   directory, ls -laF, codegen) are built once under each of the five
   schemes; every round invokes all fifteen, plus one extra single-entry
   ls under a seeded scheme, in a seeded order. After the
   warm-up the server only ever serves cache hits, so the host time goes
   to SVM and simulated-OS execution. *)

module H = Harness

let schemes = [ "static"; "dynamic"; "boot"; "integrated"; "partial" ]
let program_names = [ "ls_single"; "ls_laf"; "codegen" ]

type prog = {
  label : string;  (** program/scheme *)
  pname : string;
  scheme : string;
  p : Omos.Schemes.program;
  args : string list;
}

type state = {
  w : Omos.World.t;
  progs : prog array;  (** program-major, scheme-minor *)
  mutable expected : (string * (int * string)) list;  (** program -> exit, stdout *)
  order : int array;  (** seeded invocation order, one entry per op *)
  round_len : int;
  outs : (int * string * int) array;  (** exit, stdout, cache misses of each slot's last op *)
}

let build_progs (w : Omos.World.t) : prog array =
  let rt = w.Omos.World.rt in
  let mk pname scheme =
    let name, client, libs, args =
      match pname with
      | "ls_single" -> ("ls", Omos.World.ls_client w, Omos.World.ls_libs, Omos.World.ls_single_args)
      | "ls_laf" -> ("ls", Omos.World.ls_client w, Omos.World.ls_libs, Omos.World.ls_laf_args)
      | _ ->
          ( "codegen",
            Omos.World.codegen_client w,
            Omos.World.codegen_libs,
            Omos.World.codegen_args )
    in
    let p =
      match scheme with
      | "static" -> Omos.Schemes.static_program rt ~name ~client ~libs
      | "dynamic" -> Omos.Schemes.dynamic_program rt ~name ~client ~libs
      | "boot" -> Omos.Schemes.self_contained_program rt ~name ~client ~libs ()
      | "integrated" ->
          Omos.Schemes.self_contained_program rt ~style:Omos.Schemes.Integrated ~name
            ~client ~libs ()
      | _ -> Omos.Schemes.partial_image_program rt ~name ~client ~libs
    in
    { label = pname ^ "/" ^ scheme; pname; scheme; p; args }
  in
  Array.of_list
    (List.concat_map (fun pn -> List.map (fun sc -> mk pn sc) schemes) program_names)

(* One round: every program under every scheme, plus one extra
   single-entry ls under a scheme the seed picks, shuffled. Every round
   has nearly the same host cost, so per-op figures stay comparable
   across seeds, while the extra makes the simulated cost differ. *)
let round_order ~seed ~round : int array =
  let rs = Random.State.make [| seed; round; 0x5eed |] in
  let ns = List.length schemes in
  let extra = Random.State.int rs ns in
  let a = Array.of_list (List.init (List.length program_names * ns) Fun.id @ [ extra ]) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rounds_in_order = 64

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The committed oracle: expected exit code and stdout per program,
   read from the checkout the benchmark runs in. *)
let expected_dir = "perfbench/expected"

let load_expected () : (string * (int * string)) list =
  List.map
    (fun pn ->
      let code =
        int_of_string (String.trim (read_file (Filename.concat expected_dir (pn ^ ".exit"))))
      in
      (pn, (code, read_file (Filename.concat expected_dir (pn ^ ".stdout")))))
    program_names

(* One invocation, composed from the same public calls as
   [Omos.Schemes.invoke], each inside a benchmark span. *)
let invoke (st : state) (pr : prog) : int * string =
  let k = st.w.Omos.World.kernel and rt = st.w.Omos.World.rt in
  Telemetry.Request.with_request "exec" @@ fun () ->
  let p = H.Span.wrap "schemes.launch" (fun () -> pr.p.Omos.Schemes.launch ~args:pr.args) in
  let code = H.Span.wrap "simos.run" (fun () -> Simos.Kernel.run k p ()) in
  H.Span.wrap "simos.reap" @@ fun () ->
  let out = Simos.Proc.stdout_contents p in
  if !H.counting then begin
    H.count "svm.instrs" (float_of_int (Simos.Proc.cpu_exn p).Svm.Cpu.instr_count);
    let soft, disk = Simos.Addr_space.fault_stats p.Simos.Proc.aspace in
    H.count "simos.faults" (float_of_int (soft + disk));
    match Hashtbl.find_opt rt.Omos.Schemes.table p.Simos.Proc.pid with
    | Some r -> H.count "schemes.binds" (float_of_int r.Omos.Schemes.binds)
    | None -> ()
  end;
  Hashtbl.remove rt.Omos.Schemes.table p.Simos.Proc.pid;
  Simos.Kernel.reap k p;
  (code, out)

let setup ~seed : state =
  let w = Omos.World.create () in
  let progs = build_progs w in
  let expected = load_expected () in
  let order =
    Array.concat (List.init rounds_in_order (fun round -> round_order ~seed ~round))
  in
  let round_len = Array.length (round_order ~seed ~round:0) in
  let st =
    { w; progs; expected; order; round_len; outs = Array.make (Array.length order) (0, "", 0) }
  in
  (* warm-up: first invocations pay installation-time builds and demand
     loads; two passes reach the steady state every later op sees *)
  for _ = 1 to 2 do
    Array.iter (fun pr -> ignore (invoke st pr)) progs
  done;
  st

let misses = Telemetry.Counter.make "cache.misses"

let op (st : state) : H.op =
  let clock = st.w.Omos.World.kernel.Simos.Kernel.clock in
  let k = st.w.Omos.World.kernel in
  let run i =
    let slot = i mod Array.length st.order in
    let pr = st.progs.(st.order.(slot)) in
    let m0 = Telemetry.Counter.value misses in
    let sc0 = k.Simos.Kernel.syscall_count in
    let u0 = clock.Simos.Clock.user
    and s0 = clock.Simos.Clock.system
    and io0 = clock.Simos.Clock.io in
    let code, out = H.counting_telemetry (fun () -> invoke st pr) in
    let dm = Telemetry.Counter.value misses - m0 in
    if !H.counting then begin
      H.count "simos.syscalls" (float_of_int (k.Simos.Kernel.syscall_count - sc0));
      H.count "simos.sim_user_us" (clock.Simos.Clock.user -. u0);
      H.count "simos.sim_sys_us" (clock.Simos.Clock.system -. s0);
      H.count "simos.sim_io_us" (clock.Simos.Clock.io -. io0)
    end;
    st.outs.(slot) <- (code, out, dm);
    1
  in
  let check i =
    let slot = i mod Array.length st.order in
    let pr = st.progs.(st.order.(slot)) in
    let code, out, dm = st.outs.(slot) in
    let want_code, want_out = List.assoc pr.pname st.expected in
    if code <> want_code then [ Printf.sprintf "%s: exit %d, expected %d" pr.label code want_code ]
    else if out <> want_out then
      [ Printf.sprintf "%s: stdout differs (%d bytes, expected %d)" pr.label
          (String.length out) (String.length want_out) ]
    else if dm <> 0 then [ Printf.sprintf "%s: %d unexpected cache misses" pr.label dm ]
    else []
  in
  { H.prepare = ignore; run; check; sim_us = (fun () -> Simos.Clock.elapsed clock); latencies = None }

(* Per program x scheme diagnostic rows: raw host ms per invocation
   (median of the timed ops) and simulated ms (one extra run). *)
let rows (st : state) (r : H.loop_result) : string list =
  let by = Hashtbl.create 16 in
  Array.iteri
    (fun i t ->
      let pr = st.progs.(st.order.(i mod Array.length st.order)) in
      Hashtbl.replace by pr.label (t :: Option.value ~default:[] (Hashtbl.find_opt by pr.label)))
    r.H.lat;
  let clock = st.w.Omos.World.kernel.Simos.Kernel.clock in
  Array.to_list
    (Array.map
       (fun pr ->
         let ts = Option.value ~default:[] (Hashtbl.find_opt by pr.label) in
         let snap = Simos.Clock.snapshot clock in
         ignore (invoke st pr);
         let _, _, sim = Simos.Clock.since clock snap in
         Printf.sprintf "  %-22s %5d ops  raw host p50 %8.3f ms  sim %9.3f ms" pr.label
           (List.length ts)
           (H.median ts *. 1e3)
           (sim /. 1e3))
       st.progs)

let workload : H.workload =
  {
    H.name = "exec_mix";
    setup =
      (fun ~seed ~inject ->
        let st = setup ~seed in
        (match inject with
        | Some "exec_stdout" ->
            (* a wrong committed oracle for one program: every invocation
               of it must now fail the stdout check *)
            let code, out = List.assoc "ls_laf" st.expected in
            st.expected <- ("ls_laf", (code, out ^ "x")) :: st.expected
        | _ -> ());
        {
          H.inputs =
            Digest.to_hex
              (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int st.order))));
          op = op st;
          probe_calls = 3;
          min_calls = 2 * st.round_len;
          det_calls = 2 * st.round_len;
          rows = rows st;
          finish = (fun () -> []);
          replay = (fun _ -> ());
          klass = (fun i -> st.order.(i mod Array.length st.order));
        });
  }

(* Print each program's exit code and stdout under every scheme, and
   whether the schemes agree: the source of the committed oracle files,
   which were checked by hand against the dataset. *)
let print_expected () =
  let w = Omos.World.create () in
  let progs = build_progs w in
  List.iter
    (fun pn ->
      let outs =
        List.filter_map
          (fun pr ->
            if pr.pname <> pn then None
            else Some (pr.scheme, Omos.Schemes.invoke w.Omos.World.rt pr.p ~args:pr.args))
          (Array.to_list progs)
      in
      let _, (code, out) = List.hd outs in
      let agree = List.for_all (fun (_, r) -> r = (code, out)) outs in
      Printf.printf "== %s: exit %d, %d bytes, md5 %s, schemes agree: %b\n%s" pn code
        (String.length out)
        (Digest.to_hex (Digest.string out))
        agree out)
    program_names
