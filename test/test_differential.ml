(* Differential testing: randomly generated minic programs must produce
   byte-identical output and exit codes under every shared-library
   scheme and launch path. This is the strongest correctness check in
   the suite — any relocation, stub, binding, placement, or paging bug
   that alters behaviour shows up as a scheme disagreement. *)

(* -- a tiny random program generator --------------------------------------- *)

(* Deterministic RNG (keep failures reproducible from the qcheck seed). *)
type rng = { mutable state : int }

let next (r : rng) (bound : int) : int =
  r.state <- ((r.state * 1103515245) + 12345) land 0x3FFFFFFF;
  r.state mod bound

(* Generate an expression over the in-scope variables. Depth-bounded;
   avoids division (trap risk) and keeps values well inside int32. *)
let rec gen_expr (r : rng) (vars : string list) (funcs : (string * int) list)
    (depth : int) : string =
  if depth <= 0 || next r 4 = 0 then
    match next r 4 with
    | 0 -> string_of_int (next r 100)
    | 1 when vars <> [] -> List.nth vars (next r (List.length vars))
    | 2 -> Printf.sprintf "ga[%d]" (next r 8)
    | _ -> string_of_int (next r 10)
  else
    match next r 6 with
    | 0 | 1 ->
        let op = List.nth [ "+"; "-"; "*"; "&"; "|"; "^" ] (next r 6) in
        Printf.sprintf "(%s %s %s)"
          (gen_expr r vars funcs (depth - 1))
          op
          (gen_expr r vars funcs (depth - 1))
    | 2 ->
        let op = List.nth [ "<"; "<="; "=="; "!=" ] (next r 4) in
        Printf.sprintf "(%s %s %s)"
          (gen_expr r vars funcs (depth - 1))
          op
          (gen_expr r vars funcs (depth - 1))
    | 3 when funcs <> [] ->
        let name, arity = List.nth funcs (next r (List.length funcs)) in
        let args = List.init arity (fun _ -> gen_expr r vars funcs (depth - 1)) in
        Printf.sprintf "%s(%s)" name (String.concat ", " args)
    | 4 ->
        (* libc calls keep the schemes' lazy binding busy *)
        Printf.sprintf "imax(%s, %s)"
          (gen_expr r vars funcs (depth - 1))
          (gen_expr r vars funcs (depth - 1))
    | _ -> Printf.sprintf "abs(%s)" (gen_expr r vars funcs (depth - 1))

(* [counters] are loop variables reserved for while loops: bodies never
   assign them, so every generated loop terminates *)
let rec gen_stmt (r : rng) (vars : string list) (counters : string list)
    (funcs : (string * int) list) (depth : int) : string =
  match next r 6 with
  | 0 when vars <> [] ->
      Printf.sprintf "%s = %s;"
        (List.nth vars (next r (List.length vars)))
        (gen_expr r vars funcs 3)
  | 1 when depth > 0 ->
      Printf.sprintf "if (%s) { %s } else { %s }" (gen_expr r vars funcs 2)
        (gen_stmt r vars counters funcs (depth - 1))
        (gen_stmt r vars counters funcs (depth - 1))
  | 2 when depth > 0 && counters <> [] ->
      (* bounded loop: a dedicated counter, strictly decreasing *)
      let v = List.hd counters in
      Printf.sprintf "%s = %d; while (%s > 0) { %s %s = %s - 1; }" v
        (next r 12) v
        (gen_stmt r vars (List.tl counters) funcs (depth - 1))
        v v
  | 3 ->
      if next r 2 = 0 then Printf.sprintf "putint(%s);" (gen_expr r vars funcs 2)
      else Printf.sprintf "ga[%d] = %s;" (next r 8) (gen_expr r vars funcs 2)
  | 4 -> Printf.sprintf "putstr(\"s%d \");" (next r 10)
  | _ when vars <> [] ->
      Printf.sprintf "%s = %s;"
        (List.nth vars (next r (List.length vars)))
        (gen_expr r vars funcs 3)
  | _ -> Printf.sprintf "putint(%s);" (gen_expr r vars funcs 2)

(* A whole program: a few helper functions + main using them and libc. *)
let gen_program (seed : int) : string =
  let r = { state = (seed * 2654435761) land 0x3FFFFFFF } in
  let buf = Buffer.create 512 in
  let nfuncs = 1 + next r 3 in
  let funcs = ref [] in
  for i = 0 to nfuncs - 1 do
    let arity = 1 + next r 2 in
    let params = List.init arity (fun j -> Printf.sprintf "p%d" j) in
    let name = Printf.sprintf "fn%d" i in
    Buffer.add_string buf
      (Printf.sprintf "int %s(%s) {\n" name
         (String.concat ", " (List.map (fun p -> "int " ^ p) params)));
    Buffer.add_string buf "  int t0;\n";
    let body_stmts = 1 + next r 3 in
    for _ = 1 to body_stmts do
      Buffer.add_string buf ("  " ^ gen_stmt r params [ "t0" ] !funcs 1 ^ "\n")
    done;
    Buffer.add_string buf (Printf.sprintf "  return %s;\n}\n" (gen_expr r params !funcs 3));
    funcs := (name, arity) :: !funcs
  done;
  Buffer.add_string buf
    "int g0; int g1; int ga[8];\nint main() {\n  int a; int b; int c; int t0; int t1;\n";
  Buffer.add_string buf "  a = 3; b = 17; c = 0; g0 = 5; g1 = 9;\n";
  let stmts = 3 + next r 5 in
  for _ = 1 to stmts do
    Buffer.add_string buf
      ("  " ^ gen_stmt r [ "a"; "b"; "c"; "g0"; "g1" ] [ "t0"; "t1" ] !funcs 2 ^ "\n")
  done;
  Buffer.add_string buf
    (Printf.sprintf "  putint(%s);\n  return (%s) & 63;\n}\n"
       (gen_expr r [ "a"; "b"; "c"; "g0"; "g1" ] !funcs 3)
       (gen_expr r [ "a"; "b"; "c"; "g0"; "g1" ] !funcs 3));
  Buffer.contents buf

(* -- the differential harness ----------------------------------------------- *)

let run_all_schemes (seed : int) : (string * int * string) list =
  let src = gen_program seed in
  let client =
    [ Workloads.Crt0.obj ();
      Minic.Driver.compile ~name:(Printf.sprintf "/obj/rand%d.o" seed) src ]
  in
  let w = Omos.World.create () in
  let rt = w.Omos.World.rt in
  let name = Printf.sprintf "rand%d" seed in
  let libs = [ "/lib/libc" ] in
  let progs =
    [
      ("static", Omos.Schemes.static_program rt ~name ~client ~libs);
      ("dynamic", Omos.Schemes.dynamic_program rt ~name ~client ~libs);
      ("omos-boot", Omos.Schemes.self_contained_program rt ~name ~client ~libs ());
      ( "omos-integ",
        Omos.Schemes.self_contained_program rt ~style:Omos.Schemes.Integrated ~name
          ~client ~libs () );
      ("partial", Omos.Schemes.partial_image_program rt ~name ~client ~libs);
    ]
  in
  List.map
    (fun (tag, p) ->
      let code, out = Omos.Schemes.invoke rt p ~args:[ name ] in
      (tag, code, out))
    progs

let prop_schemes_agree =
  QCheck.Test.make ~count:25 ~name:"all schemes agree on random programs"
    (QCheck.make ~print:gen_program (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      match run_all_schemes seed with
      | (_, code0, out0) :: rest ->
          List.for_all (fun (_, c, o) -> c = code0 && o = out0) rest
      | [] -> false)

(* a couple of pinned seeds as plain regression cases (fast failure
   triage without qcheck shrinking) *)
let test_pinned_seeds () =
  List.iter
    (fun seed ->
      match run_all_schemes seed with
      | (tag0, code0, out0) :: rest ->
          List.iter
            (fun (tag, c, o) ->
              Alcotest.(check int) (Printf.sprintf "seed %d: %s=%s exit" seed tag0 tag) code0 c;
              Alcotest.(check string) (Printf.sprintf "seed %d: %s=%s out" seed tag0 tag) out0 o)
            rest
      | [] -> Alcotest.fail "no schemes ran")
    [ 42; 1993; 271828 ]

(* optimized vs debuggable builds of random programs must agree — the
   peephole differential *)
let libc_members = lazy (List.map snd (Workloads.Libc_gen.objects ()))

let run_static_build ~optimize (seed : int) : int * string =
  let src = gen_program seed in
  let obj = Minic.Driver.compile ~optimize ~name:"r.o" src in
  let roots = [ Workloads.Crt0.obj (); obj ] in
  let pulled = Linker.Archive.select ~roots ~available:(Lazy.force libc_members) in
  let img, _ =
    Linker.Link.link
      ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x40000000 }
      (roots @ pulled)
  in
  let k = Simos.Kernel.create () in
  let p = Simos.Kernel.create_process k ~args:[ "r" ] in
  Simos.Kernel.map_image k p
    (Simos.Kernel.cache_image k ~label:(string_of_int seed ^ string_of_bool optimize) img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  let code = Simos.Kernel.run k p () in
  (code, Simos.Proc.stdout_contents p)

let prop_optimizer_agrees =
  QCheck.Test.make ~count:40 ~name:"peephole-optimized programs agree with debuggable"
    (QCheck.make ~print:gen_program (QCheck.Gen.int_range 1 1_000_000))
    (fun seed ->
      run_static_build ~optimize:false seed = run_static_build ~optimize:true seed)

let test_generator_compiles () =
  (* the generator itself must always produce valid minic *)
  for seed = 1 to 50 do
    ignore (Minic.Driver.compile ~name:"gen.o" (gen_program seed))
  done

let () =
  Alcotest.run "differential"
    [
      ( "schemes",
        [
          Alcotest.test_case "generator wellformed" `Quick test_generator_compiles;
          Alcotest.test_case "pinned seeds" `Quick test_pinned_seeds;
          QCheck_alcotest.to_alcotest prop_schemes_agree;
          QCheck_alcotest.to_alcotest prop_optimizer_agrees;
        ] );
    ]
