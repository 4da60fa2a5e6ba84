(* Tests of the shared-library schemes: behavioural equivalence across
   all four, lazy-binding mechanics, dispatch-table accounting, memory
   sharing, and the performance shapes the paper's Table 1 depends on. *)

let all_schemes (w : Omos.World.t) ~name ~client ~libs =
  [
    Omos.Schemes.static_program w.Omos.World.rt ~name ~client ~libs;
    Omos.Schemes.dynamic_program w.Omos.World.rt ~name ~client ~libs;
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name ~client ~libs ();
    Omos.Schemes.self_contained_program w.Omos.World.rt ~style:Omos.Schemes.Integrated
      ~name ~client ~libs ();
    Omos.Schemes.partial_image_program w.Omos.World.rt ~name ~client ~libs;
  ]

(* -- behavioural equivalence ----------------------------------------------- *)

let test_ls_equivalent_across_schemes () =
  let w = Omos.World.create ~many_entries:5 () in
  let progs = all_schemes w ~name:"ls" ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs in
  List.iter
    (fun args ->
      let results =
        List.map (fun p -> Omos.Schemes.invoke w.Omos.World.rt p ~args) progs
      in
      match results with
      | ((c0, o0) as r0) :: rest ->
          ignore r0;
          List.iteri
            (fun i (c, o) ->
              Alcotest.(check int) (Printf.sprintf "exit[%d]" i) c0 c;
              Alcotest.(check string) (Printf.sprintf "out[%d]" i) o0 o)
            rest
      | [] -> assert false)
    [ Omos.World.ls_single_args;
      [ "ls"; "-a"; Workloads.Dataset.dir_many ];
      Omos.World.ls_laf_args ]

let test_codegen_equivalent_across_schemes () =
  let w = Omos.World.create () in
  let progs =
    all_schemes w ~name:"codegen" ~client:(Omos.World.codegen_client w)
      ~libs:Omos.World.codegen_libs
  in
  let results =
    List.map (fun p -> Omos.Schemes.invoke w.Omos.World.rt p ~args:Omos.World.codegen_args) progs
  in
  match results with
  | (c0, o0) :: rest ->
      Alcotest.(check int) "exit 0" 0 c0;
      List.iteri
        (fun i (c, o) ->
          Alcotest.(check int) (Printf.sprintf "exit[%d]" i) c0 c;
          Alcotest.(check string) (Printf.sprintf "out[%d]" i) o0 o)
        rest
  | [] -> assert false

(* -- dispatch machinery ------------------------------------------------------ *)

let test_dispatch_accounting () =
  let w = Omos.World.create () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let stat = Omos.Schemes.static_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let dyn = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let sc = Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls" ~client ~libs () in
  let pi = Omos.Schemes.partial_image_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  Alcotest.(check int) "static: none" 0 stat.Omos.Schemes.dispatch_bytes;
  Alcotest.(check int) "self-contained: none" 0 sc.Omos.Schemes.dispatch_bytes;
  Alcotest.(check bool) "dynamic: tables" true (dyn.Omos.Schemes.dispatch_bytes > 0);
  Alcotest.(check bool) "partial: tables" true (pi.Omos.Schemes.dispatch_bytes > 0);
  Alcotest.(check bool) "imports found" true (dyn.Omos.Schemes.imports >= 8);
  Alcotest.(check bool) "eager relocs counted" true (dyn.Omos.Schemes.eager_relocs > 20)

let test_lazy_binding_counts () =
  (* -laF calls more distinct libc routines, so the dynamic scheme
     performs more lazy binds per invocation — the paper's explanation
     for HP-UX's growing user time *)
  let w = Omos.World.create () in
  let dyn =
    Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs
  in
  let binds args =
    let p = dyn.Omos.Schemes.launch ~args in
    let code = Simos.Kernel.run w.Omos.World.kernel p () in
    Alcotest.(check bool) "ran" true (code = 0);
    let st = Hashtbl.find w.Omos.World.rt.Omos.Schemes.table p.Simos.Proc.pid in
    Simos.Kernel.reap w.Omos.World.kernel p;
    st.Omos.Schemes.binds
  in
  let plain = binds Omos.World.ls_single_args in
  let laf = binds Omos.World.ls_laf_args in
  Alcotest.(check bool) "some binds" true (plain > 0);
  Alcotest.(check bool) "laF binds more" true (laf > plain)

let test_partial_image_lazy_library_mapping () =
  (* the library must not be mapped before the first stub fires *)
  let w = Omos.World.create () in
  let pi =
    Omos.Schemes.partial_image_program w.Omos.World.rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs
  in
  let p = pi.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  let regions_before = List.length (Simos.Addr_space.regions p.Simos.Proc.aspace) in
  let st = Hashtbl.find w.Omos.World.rt.Omos.Schemes.table p.Simos.Proc.pid in
  Alcotest.(check bool) "not yet mapped" false st.Omos.Schemes.libs_mapped;
  let code = Simos.Kernel.run w.Omos.World.kernel p () in
  Alcotest.(check int) "ran" 0 code;
  Alcotest.(check bool) "mapped on demand" true st.Omos.Schemes.libs_mapped;
  Alcotest.(check bool) "more regions after" true
    (List.length (Simos.Addr_space.regions p.Simos.Proc.aspace) > regions_before);
  Simos.Kernel.reap w.Omos.World.kernel p

(* The kernel's reap drops a process's lazy-binding state, however the
   process was launched: here without [invoke]. *)
let test_reap_drops_scheme_state () =
  let w = Omos.World.create () in
  let rt = w.Omos.World.rt and k = w.Omos.World.kernel in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  List.iter
    (fun (prog : Omos.Schemes.program) ->
      let p = prog.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
      let pid = p.Simos.Proc.pid and what = prog.Omos.Schemes.scheme in
      Alcotest.(check bool) (what ^ ": state while live") true
        (Hashtbl.mem rt.Omos.Schemes.table pid);
      Alcotest.(check int) (what ^ ": ran") 0 (Simos.Kernel.run k p ());
      Simos.Kernel.reap k p;
      Alcotest.(check bool) (what ^ ": state dropped at reap") false
        (Hashtbl.mem rt.Omos.Schemes.table pid))
    [
      Omos.Schemes.dynamic_program rt ~name:"ls" ~client ~libs;
      Omos.Schemes.partial_image_program rt ~name:"ls" ~client ~libs;
    ]

(* -- sharing -------------------------------------------------------------------- *)

(* The frame groups of a process's read-only regions, with their bytes. *)
let read_only_regions (p : Simos.Proc.t) =
  List.filter_map
    (fun (r : Simos.Addr_space.region) ->
      if r.Simos.Addr_space.writable then None
      else Some (r.Simos.Addr_space.bytes, r.Simos.Addr_space.frames))
    (Simos.Addr_space.regions p.Simos.Proc.aspace)

let test_self_contained_text_sharing () =
  (* concurrent clients of the same library share its text frames,
     whether they run one program or two *)
  let w = Omos.World.create () in
  let k = w.Omos.World.kernel in
  let sc name client libs =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name ~client ~libs ()
  in
  let ls = sc "ls" (Omos.World.ls_client w) Omos.World.ls_libs in
  let codegen = sc "codegen" (Omos.World.codegen_client w) Omos.World.codegen_libs in
  let procs =
    [
      ls.Omos.Schemes.launch ~args:Omos.World.ls_single_args;
      ls.Omos.Schemes.launch ~args:Omos.World.ls_single_args;
      codegen.Omos.Schemes.launch ~args:Omos.World.codegen_args;
    ]
  in
  Alcotest.(check bool) "pages saved by sharing" true
    (Simos.Phys.saved_pages k.Simos.Kernel.phys > 10);
  let libc = Omos.Server.build w.Omos.World.server (Omos.Server.library "/lib/libc") in
  let libc_text =
    (Option.get (Linker.Image.text_segment libc.Omos.Server.entry.Omos.Cache.image))
      .Linker.Image.bytes
  in
  let libc_frames =
    List.map
      (fun p ->
        match List.filter (fun (bytes, _) -> bytes == libc_text) (read_only_regions p) with
        | [ (_, frames) ] -> frames
        | _ -> Alcotest.fail "libc's text mapped once per process")
      procs
  in
  Alcotest.(check bool) "libc's text: one frame group" true
    (List.for_all (fun f -> f == List.hd libc_frames) libc_frames);
  let groups =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (_, f) -> if List.memq f acc then acc else f :: acc)
          acc (read_only_regions p))
      [] procs
  in
  List.iter
    (fun p ->
      ignore (Simos.Kernel.run k p ());
      Simos.Kernel.reap k p)
    procs;
  (* each process's writable copies leave with it: once the processes
     are reaped, only the cached images' read-only frames are resident *)
  Alcotest.(check int) "reaped: the read-only groups resident"
    (List.fold_left (fun n f -> n + f.Simos.Phys.pages) 0 groups)
    (Simos.Phys.resident_pages k.Simos.Kernel.phys)

(* A different binary installed at a path already exec'd runs its own
   text: the path's cached image is replaced. *)
let test_reinstalled_binary_runs_anew () =
  let w = Omos.World.create () in
  let rt = w.Omos.World.rt in
  let program src =
    let client =
      [ Workloads.Crt0.obj (); Minic.Driver.compile ~name:"/obj/p.o" src ]
    in
    Omos.Schemes.static_program rt ~name:"p" ~client ~libs:Omos.World.ls_libs
  in
  let first = program "int main() { puts(\"AAAA\"); return 1; }" in
  Alcotest.(check (pair int string)) "first binary" (1, "AAAA\n")
    (Omos.Schemes.invoke rt first ~args:[ "p" ]);
  let second = program "int main() { putint(42); putchar(10); return 2; }" in
  Alcotest.(check (pair int string)) "second binary, same path" (2, "42\n")
    (Omos.Schemes.invoke rt second ~args:[ "p" ]);
  (* reinstalling the same bytes keeps the cached image *)
  let cached () = snd (Hashtbl.find w.Omos.World.kernel.Simos.Kernel.execs "/bin/p.static") in
  let image = cached () in
  let again = program "int main() { putint(42); putchar(10); return 2; }" in
  Alcotest.(check (pair int string)) "same binary reinstalled" (2, "42\n")
    (Omos.Schemes.invoke rt again ~args:[ "p" ]);
  Alcotest.(check bool) "cached image kept" true (cached () == image)

(* -- performance shapes (Table 1 pre-checks) -------------------------------------- *)

(* invoke n times and return total elapsed simulated time *)
let time_invocations (w : Omos.World.t) prog ~args n =
  let snap = Simos.Clock.snapshot w.Omos.World.kernel.Simos.Kernel.clock in
  for _ = 1 to n do
    let code, _ = Omos.Schemes.invoke w.Omos.World.rt prog ~args in
    if code <> 0 then Alcotest.fail "nonzero exit"
  done;
  let _, _, e = Simos.Clock.since w.Omos.World.kernel.Simos.Kernel.clock snap in
  e

let test_codegen_omos_beats_dynamic () =
  (* Table 1c's shape: on the relocation-heavy program, OMOS
     self-contained wins clearly *)
  let w = Omos.World.create () in
  let client = Omos.World.codegen_client w and libs = Omos.World.codegen_libs in
  let dyn = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"codegen" ~client ~libs in
  let sc = Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"codegen" ~client ~libs () in
  (* warm both *)
  ignore (time_invocations w dyn ~args:Omos.World.codegen_args 1);
  ignore (time_invocations w sc ~args:Omos.World.codegen_args 1);
  let td = time_invocations w dyn ~args:Omos.World.codegen_args 5 in
  let ts = time_invocations w sc ~args:Omos.World.codegen_args 5 in
  Alcotest.(check bool)
    (Printf.sprintf "omos (%.0f) < dynamic (%.0f)" ts td)
    true (ts < td)

let test_ls_small_roughly_par () =
  (* Table 1a's shape: for tiny ls the two schemes are comparable —
     OMOS within ~25% either way *)
  let w = Omos.World.create () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let dyn = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let sc = Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls" ~client ~libs () in
  ignore (time_invocations w dyn ~args:Omos.World.ls_single_args 1);
  ignore (time_invocations w sc ~args:Omos.World.ls_single_args 1);
  let td = time_invocations w dyn ~args:Omos.World.ls_single_args 10 in
  let ts = time_invocations w sc ~args:Omos.World.ls_single_args 10 in
  let ratio = ts /. td in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in [0.6,1.25]" ratio)
    true
    (ratio > 0.6 && ratio < 1.25)

let test_static_install_pays_write_io () =
  (* §2.1: static linking's dominant cost is writing the huge binary *)
  let w = Omos.World.create () in
  let k = w.Omos.World.kernel in
  let io_before = k.Simos.Kernel.clock.Simos.Clock.io in
  ignore
    (Omos.Schemes.static_program w.Omos.World.rt ~name:"codegen"
       ~client:(Omos.World.codegen_client w) ~libs:Omos.World.codegen_libs);
  let static_io = k.Simos.Kernel.clock.Simos.Clock.io -. io_before in
  let io_before2 = k.Simos.Kernel.clock.Simos.Clock.io in
  ignore
    (Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"codegen"
       ~client:(Omos.World.codegen_client w) ~libs:Omos.World.codegen_libs ());
  let sc_io = k.Simos.Kernel.clock.Simos.Clock.io -. io_before2 in
  Alcotest.(check bool) "static writes big binary" true (static_io > 100_000.0);
  Alcotest.(check bool) "omos writes nothing" true (sc_io < static_io /. 10.0)

(* -- exact execution identity ---------------------------------------------------- *)

(* One invocation, reduced to everything the simulation decides: exit
   code, stdout digest, the deterministic counters, and the clock's
   running totals printed exactly. *)
let run_exact (w : Omos.World.t) (prog : Omos.Schemes.program) ~args : string =
  let k = w.Omos.World.kernel and rt = w.Omos.World.rt in
  let sc0 = k.Simos.Kernel.syscall_count in
  let p = prog.Omos.Schemes.launch ~args in
  let code = Simos.Kernel.run k p () in
  let out = Simos.Proc.stdout_contents p in
  let instrs = (Simos.Proc.cpu_exn p).Svm.Cpu.instr_count in
  let soft, disk = Simos.Addr_space.fault_stats p.Simos.Proc.aspace in
  let binds =
    match Hashtbl.find_opt rt.Omos.Schemes.table p.Simos.Proc.pid with
    | Some r -> r.Omos.Schemes.binds
    | None -> 0
  in
  Hashtbl.remove rt.Omos.Schemes.table p.Simos.Proc.pid;
  Simos.Kernel.reap k p;
  let c = k.Simos.Kernel.clock in
  Printf.sprintf "exit %d md5 %s instrs %d syscalls %d faults %d/%d binds %d clock %h %h %h" code
    (Digest.to_hex (Digest.string out))
    instrs
    (k.Simos.Kernel.syscall_count - sc0)
    soft disk binds c.Simos.Clock.user c.Simos.Clock.system c.Simos.Clock.io

(* Captured before the interpreter was made allocation-free: a host-side
   speed-up must leave every simulated cost and counter byte-identical. *)
let expected_exact =
  [
    "ls_single/static cold exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 3/6 binds 0 clock 0x1.56b851eb851ebp+5 0x1.40a41c1eb851fp+13 0x1.79bcp+16";
    "ls_single/static warm exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 9/0 binds 0 clock 0x1.56b851eb851ebp+6 0x1.bd59d1d70a3d8p+13 0x1.79bcp+16";
    "ls_single/dynamic cold exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1496 syscalls 18 faults 7/3 binds 8 clock 0x1.81aa0238814bcp+10 0x1.17bd35147ae15p+14 0x1.8448p+16";
    "ls_single/dynamic warm exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1496 syscalls 18 faults 10/0 binds 8 clock 0x1.76f43fa925228p+11 0x1.50cd813d70a3ep+14 0x1.8448p+16";
    "ls_single/omos-bootstrap cold exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 10/0 binds 0 clock 0x1.7c4f20f0d337p+11 0x1.a19610999999ap+14 0x1.8b5p+16";
    "ls_single/omos-bootstrap warm exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 10/0 binds 0 clock 0x1.81aa0238814b8p+11 0x1.f25e9ff5c28f6p+14 0x1.8b5p+16";
    "ls_single/omos-integrated cold exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 10/0 binds 0 clock 0x1.8704e3802f6p+11 0x1.0c2b97a8f5c29p+15 0x1.8b5p+16";
    "ls_single/omos-integrated warm exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1428 syscalls 10 faults 10/0 binds 0 clock 0x1.8c5fc4c7dd748p+11 0x1.1f27df570a3d7p+15 0x1.8b5p+16";
    "ls_single/omos-partial cold exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1496 syscalls 18 faults 7/3 binds 8 clock 0x1.9548ba8a6cd06p+11 0x1.48484a451eb85p+15 0x1.95dcp+16";
    "ls_single/omos-partial warm exit 0 md5 a165b0c48efd38c3c2725a282922c6f1 instrs 1496 syscalls 18 faults 10/0 binds 8 clock 0x1.9e31b04cfc2c4p+11 0x1.7168b53333333p+15 0x1.95dcp+16";
    "ls_laf/static cold exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 9/7 binds 0 clock 0x1.016887f524a44p+14 0x1.0c0d01f47adb7p+16 0x1.ae78p+16";
    "ls_laf/static warm exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 16/0 binds 0 clock 0x1.cf0ad9e0a9c3p+14 0x1.5f65a94f5c2ddp+16 0x1.ae78p+16";
    "ls_laf/dynamic cold exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 443388 syscalls 1043 faults 19/0 binds 14 clock 0x1.6e5415778c85cp+15 0x1.b1e5acfd70b36p+16 0x1.ae78p+16";
    "ls_laf/dynamic warm exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 443388 syscalls 1043 faults 19/0 binds 14 clock 0x1.f522bdfec429ap+15 0x1.0232d855c29afp+17 0x1.ae78p+16";
    "ls_laf/omos-bootstrap cold exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 19/0 binds 0 clock 0x1.2df9f37a435c8p+16 0x1.2e45e2933330bp+17 0x1.ae78p+16";
    "ls_laf/omos-bootstrap warm exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 19/0 binds 0 clock 0x1.616287f524a43p+16 0x1.5a58ecd0a3c67p+17 0x1.ae78p+16";
    "ls_laf/omos-integrated cold exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 19/0 binds 0 clock 0x1.94cb1c7005ebep+16 0x1.8111f70e145c3p+17 0x1.ae78p+16";
    "ls_laf/omos-integrated warm exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 438686 syscalls 1029 faults 19/0 binds 0 clock 0x1.c833b0eae7339p+16 0x1.a7cb014b84f1fp+17 0x1.ae78p+16";
    "ls_laf/omos-partial cold exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 443388 syscalls 1043 faults 19/0 binds 14 clock 0x1.fc5787f524a46p+16 0x1.d4311458f587bp+17 0x1.ae78p+16";
    "ls_laf/omos-partial warm exit 0 md5 71dd0190931d711c5943700ce972c0ea instrs 443388 syscalls 1043 faults 19/0 binds 14 clock 0x1.183daf7fb10aap+17 0x1.004b93b3330f3p+18 0x1.ae78p+16";
    "codegen/static cold exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 6/46 binds 0 clock 0x1.544dfd942bebep+17 0x1.37196d19478a1p+18 0x1.a068p+19";
    "codegen/static warm exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 52/0 binds 0 clock 0x1.905e4ba8a6cd2p+17 0x1.3de4d34c28d1cp+18 0x1.a068p+19";
    "codegen/dynamic cold exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1033706 syscalls 22 faults 16/38 binds 9 clock 0x1.d7981c080f76cp+17 0x1.45e72eef0a197p+18 0x1.b11bp+19";
    "codegen/dynamic warm exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1033706 syscalls 22 faults 54/0 binds 9 clock 0x1.0f68f633bc103p+18 0x1.4de98a91eb612p+18 0x1.b11bp+19";
    "codegen/omos-bootstrap cold exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 54/0 binds 0 clock 0x1.2d711d3df980dp+18 0x1.54e41f0ccca8dp+18 0x1.b11bp+19";
    "codegen/omos-bootstrap warm exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 54/0 binds 0 clock 0x1.4b79444836f17p+18 0x1.5bdeb387adf08p+18 0x1.b11bp+19";
    "codegen/omos-integrated cold exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 54/0 binds 0 clock 0x1.69816b5274621p+18 0x1.602c48028f383p+18 0x1.b11bp+19";
    "codegen/omos-integrated warm exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1025087 syscalls 13 faults 54/0 binds 0 clock 0x1.8789925cb1d2bp+18 0x1.6479dc7d707fep+18 0x1.b11bp+19";
    "codegen/omos-partial cold exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1033706 syscalls 22 faults 16/38 binds 9 clock 0x1.a5d9caae9d57bp+18 0x1.6d74d72851c79p+18 0x1.c1cep+19";
    "codegen/omos-partial warm exit 0 md5 c630502b0df0f5b13f4e8607628f0dc8 instrs 1033706 syscalls 22 faults 54/0 binds 9 clock 0x1.c42a030088dcbp+18 0x1.766fd1d3330f4p+18 0x1.c1cep+19";
  ]

let test_exact_execution_identity () =
  let w = Omos.World.create () in
  let runs =
    List.concat_map
      (fun (pname, name, client, libs, args) ->
        List.concat_map
          (fun prog ->
            let label = pname ^ "/" ^ prog.Omos.Schemes.scheme in
            let cold = run_exact w prog ~args in
            let warm = run_exact w prog ~args in
            [ label ^ " cold " ^ cold; label ^ " warm " ^ warm ])
          (all_schemes w ~name ~client ~libs))
      [
        ("ls_single", "ls", Omos.World.ls_client w, Omos.World.ls_libs, Omos.World.ls_single_args);
        ("ls_laf", "ls", Omos.World.ls_client w, Omos.World.ls_libs, Omos.World.ls_laf_args);
        ( "codegen",
          "codegen",
          Omos.World.codegen_client w,
          Omos.World.codegen_libs,
          Omos.World.codegen_args );
      ]
  in
  Alcotest.(check (list string)) "exact runs" expected_exact runs

let () =
  Alcotest.run "schemes"
    [
      ( "equivalence",
        [
          Alcotest.test_case "ls all schemes" `Quick test_ls_equivalent_across_schemes;
          Alcotest.test_case "codegen all schemes" `Quick test_codegen_equivalent_across_schemes;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "dispatch accounting" `Quick test_dispatch_accounting;
          Alcotest.test_case "lazy binding counts" `Quick test_lazy_binding_counts;
          Alcotest.test_case "partial image lazy map" `Quick test_partial_image_lazy_library_mapping;
          Alcotest.test_case "reap drops scheme state" `Quick test_reap_drops_scheme_state;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "text frames shared" `Quick test_self_contained_text_sharing;
          Alcotest.test_case "reinstalled binary runs anew" `Quick
            test_reinstalled_binary_runs_anew;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "codegen: omos wins" `Quick test_codegen_omos_beats_dynamic;
          Alcotest.test_case "small ls: parity" `Quick test_ls_small_roughly_par;
          Alcotest.test_case "static link io" `Quick test_static_install_pays_write_io;
        ] );
      ( "identity",
        [ Alcotest.test_case "exact costs and counters" `Quick test_exact_execution_identity ] );
    ]
