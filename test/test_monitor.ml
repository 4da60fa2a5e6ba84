(* Monitor wrapper tests: shadow-stack balance under nested and
   recursive calls with [~exits:true], request-id stamping of trace
   events, and the set-wise rewrites (monitor, import diversion,
   lib-dynamic stubs) against per-name references. *)

let compile name src = Minic.Driver.compile ~name src

(* Build, monitor, link and run a program; returns (exit code, trace). *)
let run_monitored ?(exits = true) ?wrap (src : string) :
    int * Omos.Monitor.trace =
  let m =
    Jigsaw.Module_ops.of_objects [ Workloads.Crt0.obj (); compile "/obj/m.o" src ]
  in
  let monitored, trace = Omos.Monitor.monitored ~exits m in
  let k = Simos.Kernel.create () in
  Omos.Monitor.attach k trace;
  let img, _ =
    Linker.Link.link
      ~layout:{ Linker.Link.text_base = 0x10000; data_base = 0x400000 }
      (Jigsaw.Module_ops.fragments monitored)
  in
  let p = Simos.Kernel.create_process k ~args:[ "t" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"t" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  let go () = Simos.Kernel.run k p () in
  let code = match wrap with None -> go () | Some f -> f go in
  (code, trace)

let id_of (t : Omos.Monitor.trace) (name : string) : int =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name then found := i) t.Omos.Monitor.names;
  if !found < 0 then Alcotest.failf "no wrapped function %s" name;
  !found

(* Per-id Enter/Exit balance, and the running shadow depth never goes
   negative — an unbalanced wrapper would corrupt the shadow stack. *)
let check_balanced ?(skip = []) (t : Omos.Monitor.trace) : int =
  let enters = Hashtbl.create 8 and exits = Hashtbl.create 8 in
  let bump h id = Hashtbl.replace h id (1 + Option.value ~default:0 (Hashtbl.find_opt h id)) in
  let depth = ref 0 and max_depth = ref 0 in
  List.iter
    (function
      | Omos.Monitor.Enter id ->
          bump enters id;
          incr depth;
          if !depth > !max_depth then max_depth := !depth
      | Omos.Monitor.Exit id ->
          bump exits id;
          decr depth;
          Alcotest.(check bool) "shadow depth never negative" true (!depth >= 0))
    (Omos.Monitor.trace_events t);
  Hashtbl.iter
    (fun id n ->
      if not (List.mem id skip) then
        Alcotest.(check int)
          (Printf.sprintf "balanced enters/exits for %s" t.Omos.Monitor.names.(id))
          n
          (Option.value ~default:0 (Hashtbl.find_opt exits id)))
    enters;
  !max_depth

let test_nested_calls_balance () =
  let code, trace =
    run_monitored
      "int leaf(int x) { return x + 1; } \
       int mid(int x) { return leaf(x) + leaf(x + 1); } \
       int top(int x) { return mid(x) + leaf(x); } \
       int main() { return top(12); }"
  in
  (* mid(12)+leaf(12) = (13+14)+13 = 40 *)
  Alcotest.(check int) "semantics preserved" 40 code;
  (* _start never returns: its Exit is the process exit *)
  let max_depth = check_balanced ~skip:[ id_of trace "_start" ] trace in
  Alcotest.(check bool) "calls really nested" true (max_depth >= 4)

let test_recursive_calls_balance () =
  let code, trace =
    run_monitored
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } \
       int main() { return fib(10); }"
  in
  Alcotest.(check int) "fib(10)" 55 code;
  let fib = id_of trace "fib" in
  let max_depth = check_balanced ~skip:[ id_of trace "_start" ] trace in
  Alcotest.(check bool) "recursion went deep" true (max_depth >= 9);
  let fib_enters =
    List.length
      (List.filter
         (function Omos.Monitor.Enter id -> id = fib | _ -> false)
         (Omos.Monitor.trace_events trace))
  in
  (* fib(10) makes 177 calls *)
  Alcotest.(check int) "every recursive call wrapped" 177 fib_enters

let test_trace_events_carry_request_ids () =
  Telemetry.reset ();
  let code, trace =
    run_monitored
      ~wrap:(fun go -> Telemetry.Request.with_request ~client:5 "exec" go)
      "int f(int x) { return x * 3; } int main() { return f(4); }"
  in
  Alcotest.(check int) "ran" 12 code;
  let stamped = Omos.Monitor.stamped_events trace in
  Alcotest.(check int) "one stamp per event" trace.Omos.Monitor.count
    (List.length stamped);
  Alcotest.(check bool) "events recorded" true (stamped <> []);
  let req = Telemetry.Request.last_id () in
  List.iter
    (fun (_, client, request) ->
      Alcotest.(check int) "client stamped" 5 client;
      Alcotest.(check int) "request stamped" req request)
    stamped;
  (* outside any request the stamp is the (-1, -1) sentinel *)
  let _, unstamped =
    run_monitored "int g() { return 7; } int main() { return g(); }"
  in
  List.iter
    (fun (_, client, request) ->
      Alcotest.(check int) "no client" (-1) client;
      Alcotest.(check int) "no request" (-1) request)
    (Omos.Monitor.stamped_events unstamped)

(* -- set-wise rewrites against per-name folds ------------------------------ *)

module M = Jigsaw.Module_ops

let select_one n = Jigsaw.Select.compile ("^" ^ Str.quote n ^ "$")

(* The per-name fold: one rename per [(name, new name)] pair, each
   selecting its name by its own anchored pattern. *)
let rename_each ~scope (pairs : (string * string) list) (m : M.t) : M.t =
  List.fold_left (fun acc (n, n') -> M.rename ~scope (select_one n) n' acc) m pairs

(* The reference: the views that fold leaves behind, one rename layer
   per name on every fragment, built directly. The fold itself would
   check each step for minted duplicates and so flatten every
   intermediate module, quadratic in the names; this materializes once.
   [rename_each] and this agree on the odd names below. *)
let layered ~scope (pairs : (string * string) list) (m : M.t) : M.t =
  let layers =
    List.map
      (fun (n, n') ->
        let map = Jigsaw.Select.rewrite (select_one n) n' in
        match scope with
        | M.Defs_only -> Sof.View.Rename_defs map
        | M.Refs_only -> Sof.View.Rename_refs map
        | M.Both -> invalid_arg "layered: one side at a time")
      pairs
  in
  M.v ~label:(M.label m)
    (List.map (fun v -> List.fold_left Sof.View.push v layers) m.M.fragments)

let digests (m : M.t) : string list = List.map Sof.Codec.digest (M.fragments m)

let libc (w : Omos.World.t) : M.t =
  let s = w.Omos.World.server in
  let meta = Omos.Server.find_meta s "/lib/libc" in
  (Omos.Server.eval s (Blueprint.Meta.effective_graph meta ~spec:None)).Blueprint.Mgraph.m

(* Names full of Str metacharacters, each beside a name its unquoted
   pattern would also select ([a.b]/[axb], [e*]/[ee]); [f\[g] alone is
   not even a valid pattern unquoted. *)
let odd_names = [ "a.b"; "axb"; "c$d"; "e*"; "ee"; "f[g"; "f" ]

let odd_module () : M.t =
  let a = Sof.Asm.create "/obj/odd.o" in
  List.iter
    (fun n ->
      Sof.Asm.label a n;
      Sof.Asm.instr a Svm.Isa.Ret)
    odd_names;
  Sof.Asm.label a "caller";
  List.iter (Sof.Asm.call a) odd_names;
  Sof.Asm.instr a Svm.Isa.Ret;
  M.of_object (Sof.Asm.finish a)

(* A client calling every odd name, defining none. *)
let odd_client () : M.t =
  let a = Sof.Asm.create "/obj/odd_client.o" in
  Sof.Asm.label a "main";
  List.iter (Sof.Asm.call a) odd_names;
  Sof.Asm.instr a Svm.Isa.Ret;
  M.of_object (Sof.Asm.finish a)

(* [monitored m]'s fragments are the renamed module's plus the
   wrappers'; the renamed part must equal the per-name fold's. *)
let check_monitored label (m : M.t) =
  let names = Omos.Monitor.functions m in
  let reference =
    digests (layered ~scope:M.Defs_only (List.map (fun n -> (n, n ^ "$mon$real")) names) m)
  in
  List.iter
    (fun exits ->
      let label = Printf.sprintf "%s, exits=%b" label exits in
      let monitored, trace = Omos.Monitor.monitored ~exits m in
      Alcotest.(check (list string)) (label ^ ": wraps the exported functions") names
        (Array.to_list trace.Omos.Monitor.names);
      let got = digests monitored in
      Alcotest.(check (list string)) (label ^ ": renamed fragments = per-name fold")
        reference
        (List.filteri (fun i _ -> i < List.length got - 1) got))
    [ false; true ]

let check_diverted label (client : M.t) (names : string list) =
  Alcotest.(check (list string)) (label ^ ": diverted = per-name fold")
    (digests (layered ~scope:M.Refs_only (List.map (fun n -> (n, n ^ "$stub")) names) client))
    (digests (Omos.Stubs.divert_imports client (List.map Omos.Stubs.import_of_name names)))

(* The reference is the operator fold's result. *)
let test_reference_is_the_fold () =
  List.iter
    (fun (label, scope, m, suffix) ->
      let pairs = List.map (fun n -> (n, n ^ suffix)) odd_names in
      Alcotest.(check (list string)) label
        (digests (rename_each ~scope pairs m))
        (digests (layered ~scope pairs m)))
    [
      ("definitions", M.Defs_only, odd_module (), "$mon$real");
      ("references", M.Refs_only, odd_client (), "$stub");
    ]

let test_monitored_matches_fold () =
  let w = Omos.World.create () in
  check_monitored "libc" (libc w);
  check_monitored "odd names" (odd_module ())

(* The clients' imports as the schemes compute them: their undefined
   names some library exports. *)
let test_divert_matches_fold () =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  List.iter
    (fun (label, client, libs) ->
      let client = M.of_objects ~label client in
      let exported =
        List.concat_map
          (fun l ->
            List.map fst
              (Omos.Server.build s (Omos.Server.library l)).Omos.Server.entry.Omos.Cache
                .image.Linker.Image.symtab)
          libs
      in
      let names = List.filter (fun n -> List.mem n exported) (M.undefined client) in
      Alcotest.(check bool) (label ^ ": has imports") true (names <> []);
      check_diverted label client names)
    [
      ("ls", Omos.World.ls_client w, Omos.World.ls_libs);
      ("codegen", Omos.World.codegen_client w, Omos.World.codegen_libs);
    ];
  check_diverted "odd names" (odd_client ()) odd_names;
  Alcotest.(check (list string)) "no imports, no rewrite" (digests (odd_client ()))
    (digests (Omos.Stubs.divert_imports (odd_client ()) []))

(* lib-dynamic assembles each stub under the plain name; the reference
   assembles it under [f$stub] and renames it to [f]. *)
let test_lib_dynamic_matches_fold () =
  let w = Omos.World.create () in
  let r =
    Omos.Server.eval w.Omos.World.server
      (Blueprint.Mgraph.parse "(specialize \"lib-dynamic\" /lib/libc)")
  in
  let names = Omos.Monitor.functions (libc w) in
  let reference =
    layered ~scope:M.Defs_only
      (List.map (fun n -> (n ^ "$stub", n)) names)
      (M.of_object (Omos.Stubs.omos_stub_object (List.map Omos.Stubs.import_of_name names)))
  in
  Alcotest.(check (list string)) "stub object = renamed stubs" (digests reference)
    (digests r.Blueprint.Mgraph.m)

(* Wrapping libc is one rename and one merge, whatever its size. *)
let test_monitored_op_count () =
  let w = Omos.World.create () in
  let m = libc w in
  let before = Telemetry.Counter.get "jigsaw.ops" in
  ignore (Omos.Monitor.monitored m);
  Alcotest.(check int) "jigsaw ops" 2 (Telemetry.Counter.get "jigsaw.ops" - before)

let () =
  Alcotest.run "monitor"
    [
      ( "shadow-stack",
        [
          Alcotest.test_case "nested calls" `Quick test_nested_calls_balance;
          Alcotest.test_case "recursive calls" `Quick
            test_recursive_calls_balance;
        ] );
      ( "request-ids",
        [
          Alcotest.test_case "stamped events" `Quick
            test_trace_events_carry_request_ids;
        ] );
      ( "set-wise",
        [
          Alcotest.test_case "reference = per-name fold" `Quick test_reference_is_the_fold;
          Alcotest.test_case "monitored = per-name fold" `Quick
            test_monitored_matches_fold;
          Alcotest.test_case "divert = per-name fold" `Quick test_divert_matches_fold;
          Alcotest.test_case "lib-dynamic = renamed stubs" `Quick
            test_lib_dynamic_matches_fold;
          Alcotest.test_case "monitoring libc: two ops" `Quick test_monitored_op_count;
        ] );
    ]
