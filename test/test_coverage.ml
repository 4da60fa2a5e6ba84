(* Additional coverage: PCREL32 relocation application (unused by the
   compiler's code paths, but part of the format), the __icall builtin,
   kernel fd edge cases, cache eviction, and assorted corners. *)

let layout = { Linker.Link.text_base = 0x1000; data_base = 0x8000 }

(* -- PCREL32 relocations --------------------------------------------------- *)

let test_pcrel_text_cross_fragment () =
  (* fragment A branches pc-relative to a symbol in fragment B; the
     displacement is only computable at link time *)
  let a = Sof.Asm.create "a.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.instr a (Svm.Isa.Movi (5, 1l));
  Sof.Asm.instr_reloc a (Svm.Isa.Br 0l) Sof.Reloc.Pcrel32 "landing" 0;
  (* skipped if the branch works *)
  Sof.Asm.instr a (Svm.Isa.Movi (5, 99l));
  Sof.Asm.instr a Svm.Isa.Halt;
  let fa = Sof.Asm.finish a in
  let b = Sof.Asm.create "b.o" in
  Sof.Asm.label b "landing";
  Sof.Asm.instr b (Svm.Isa.Movi (6, 42l));
  Sof.Asm.instr b Svm.Isa.Halt;
  let fb = Sof.Asm.finish b in
  let img, _ = Linker.Link.link ~layout [ fa; fb ] in
  let mem, buf = Svm.Cpu.flat_mem 0x10000 in
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:100 cpu);
  Alcotest.(check int32) "branch taken" 1l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int32) "landed" 42l (Svm.Cpu.get_reg cpu 6)

let test_pcrel_with_addend () =
  (* branch to landing+8: skips the first instruction there *)
  let a = Sof.Asm.create "a.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.instr_reloc a (Svm.Isa.Br 0l) Sof.Reloc.Pcrel32 "landing" Svm.Isa.width;
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.label a "landing";
  Sof.Asm.instr a (Svm.Isa.Movi (5, 1l));
  Sof.Asm.instr a (Svm.Isa.Movi (6, 2l));
  Sof.Asm.instr a Svm.Isa.Halt;
  let img, _ = Linker.Link.link ~layout [ Sof.Asm.finish a ] in
  let mem, buf = Svm.Cpu.flat_mem 0x10000 in
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:100 cpu);
  Alcotest.(check int32) "first skipped" 0l (Svm.Cpu.get_reg cpu 5);
  Alcotest.(check int32) "second ran" 2l (Svm.Cpu.get_reg cpu 6)

let test_pcrel_in_data () =
  (* a data word holding the pc-relative distance from itself to a
     symbol — the self-relative pointer idiom *)
  let a = Sof.Asm.create "d.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.instr a Svm.Isa.Halt;
  Sof.Asm.data_label a "rel_ptr";
  let offset = Sof.Asm.here_data a in
  a.Sof.Asm.relocs <-
    Sof.Reloc.make ~target:Sof.Reloc.In_data ~offset ~kind:Sof.Reloc.Pcrel32 "target"
    :: a.Sof.Asm.relocs;
  Sof.Asm.data_word a 0l;
  Sof.Asm.data_label a "target";
  Sof.Asm.data_word a 77l;
  let img, _ = Linker.Link.link ~layout [ Sof.Asm.finish a ] in
  let mem, buf = Svm.Cpu.flat_mem 0x10000 in
  Linker.Image.load_into_flat img buf;
  let rel_addr = Option.get (Linker.Image.find_symbol img "rel_ptr") in
  let tgt_addr = Option.get (Linker.Image.find_symbol img "target") in
  let stored = mem.Svm.Cpu.load32 rel_addr in
  Alcotest.(check int) "self-relative distance" (tgt_addr - rel_addr) stored

(* -- __icall ------------------------------------------------------------------ *)

let run_src src =
  let obj = Minic.Driver.compile ~name:"t.o" src in
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x20000 }
      [ Workloads.Crt0.obj (); obj ]
  in
  let k = Simos.Kernel.create () in
  let p = Simos.Kernel.create_process k ~args:[ "t" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"t" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  (Simos.Kernel.run k p (), Simos.Proc.stdout_contents p)

let test_icall_basic () =
  let code, _ =
    run_src
      "int triple(int x) { return x * 3; } \
       int main() { int f; f = triple; return __icall(f, 14); }"
  in
  Alcotest.(check int) "indirect call" 42 code

let test_icall_multiple_args () =
  let code, _ =
    run_src
      "int combine(int a, int b, int c) { return a * 100 + b * 10 + c; } \
       int main() { int f; f = combine; return __icall(f, 1, 2, 3) % 200; }"
  in
  Alcotest.(check int) "three args" 123 code

let test_icall_through_table () =
  (* function-pointer table dispatch *)
  let code, _ =
    run_src
      "int inc(int x) { return x + 1; } \
       int dec(int x) { return x - 1; } \
       int tbl[2]; \
       int main() { tbl[0] = inc; tbl[1] = dec; \
       return __icall(tbl[0], 10) + __icall(tbl[1], 10); }"
  in
  Alcotest.(check int) "table dispatch" 20 code

(* -- kernel fd corners ----------------------------------------------------------- *)

let test_fd_read_file_and_close () =
  let k = Simos.Kernel.create () in
  Simos.Fs.write_file k.Simos.Kernel.fs "/f" (Bytes.of_string "hello world");
  let a = Sof.Asm.create "r.o" in
  Sof.Asm.label a "_start";
  (* fd = open("/f") *)
  Sof.Asm.lea a 1 "path";
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_open));
  Sof.Asm.instr a (Svm.Isa.Mov (5, 0));
  (* read(fd, buf, 5) twice: sequential positions *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 5l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_read));
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.lea a 2 "buf2";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 6l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_read));
  (* close, then read again must fail (-1) *)
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_close));
  Sof.Asm.instr a (Svm.Isa.Mov (1, 5));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 1l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_read));
  Sof.Asm.instr a (Svm.Isa.Mov (6, 0));
  (* write both buffers to stdout *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 5l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  Sof.Asm.instr a (Svm.Isa.Movi (1, 1l));
  Sof.Asm.lea a 2 "buf2";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 6l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  (* exit(read-after-close result + 10) *)
  Sof.Asm.instr a (Svm.Isa.Movi (2, 10l));
  Sof.Asm.instr a (Svm.Isa.Add (1, 6, 2));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "path";
  Sof.Asm.data_string a "/f";
  Sof.Asm.bss a "buf" 16;
  Sof.Asm.bss a "buf2" 16;
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ Sof.Asm.finish a ]
  in
  let p = Simos.Kernel.create_process k ~args:[ "r" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"r" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  let code = Simos.Kernel.run k p () in
  Alcotest.(check string) "sequential reads" "hello world" (Simos.Proc.stdout_contents p);
  Alcotest.(check int) "read after close = -1" 9 code

let test_write_bad_fd () =
  let k = Simos.Kernel.create () in
  let a = Sof.Asm.create "w.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.instr a (Svm.Isa.Movi (1, 7l));
  Sof.Asm.lea a 2 "msg";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 3l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_write));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 5l));
  Sof.Asm.instr a (Svm.Isa.Add (1, 0, 2));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.data_label a "msg";
  Sof.Asm.data_string a "abc";
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ Sof.Asm.finish a ]
  in
  let p = Simos.Kernel.create_process k ~args:[] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"w" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  (* write(7,...) returns -1; exit code = -1 + 5 = 4 *)
  Alcotest.(check int) "bad fd" 4 (Simos.Kernel.run k p ());
  Alcotest.(check string) "nothing written" "" (Simos.Proc.stdout_contents p)

(* -- cache eviction ------------------------------------------------------------------ *)

let dummy_image name size =
  let a = Sof.Asm.create name in
  Sof.Asm.label a "e";
  for _ = 1 to size do
    Sof.Asm.instr a Svm.Isa.Nop
  done;
  Sof.Asm.instr a Svm.Isa.Halt;
  fst
    (Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x40000 }
       [ Sof.Asm.finish a ])

let test_cache_eviction_by_use () =
  let c = Omos.Cache.create () in
  ignore (Omos.Cache.insert c ~key:"hot" ~text_base:0 ~data_base:0 (dummy_image "hot" 200));
  ignore (Omos.Cache.insert c ~key:"cold" ~text_base:0 ~data_base:0 (dummy_image "cold" 200));
  (* make "hot" popular *)
  for _ = 1 to 5 do
    ignore (Omos.Cache.find c "hot" ~acceptable:(fun _ -> true))
  done;
  let total = (Omos.Cache.stats c).Omos.Cache.disk_bytes_total in
  let victims = Omos.Cache.evict_to_budget c ~bytes:(total - 100) in
  Alcotest.(check bool) "something evicted" true (victims <> []);
  Alcotest.(check bool) "cold evicted first" true
    (List.exists (fun (e : Omos.Cache.entry) -> e.Omos.Cache.key = "cold") victims);
  Alcotest.(check bool) "hot survives" true (Omos.Cache.candidates c "hot" <> []);
  Alcotest.(check bool) "cold gone" true (Omos.Cache.candidates c "cold" = [])

let test_cache_eviction_noop_within_budget () =
  let c = Omos.Cache.create () in
  ignore (Omos.Cache.insert c ~key:"k" ~text_base:0 ~data_base:0 (dummy_image "k" 10));
  Alcotest.(check bool) "no eviction needed" true
    (Omos.Cache.evict_to_budget c ~bytes:1_000_000 = [])

(* -- ctor end-to-end: minic `ctor` + the initializers operator ------------- *)

let test_ctor_end_to_end () =
  (* a minic constructor must run before main when the program is built
     through (initializers ...) — the paper's C++ static-initializer
     story, §2.2/§3.3 *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  Omos.Server.add_fragment s "/obj/crt0.o" (Workloads.Crt0.obj ());
  Omos.Server.add_fragment s "/obj/app.o"
    (Minic.Driver.compile ~name:"/obj/app.o"
       "int ready = 0; \
        ctor int setup() { ready = 41; return 0; } \
        int main() { return ready + 1; }");
  let graph =
    Blueprint.Mgraph.parse "(initializers (merge /obj/crt0.o /obj/app.o))"
  in
  let b = Omos.Server.build s @@ Omos.Server.static ~name:"ctors" graph in
  let p =
    Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args:[ "c" ]
  in
  Alcotest.(check int) "ctor ran before main" 42
    (Simos.Kernel.run w.Omos.World.kernel p ());
  (* without the initializers operator, the weak empty __init wins and
     the constructor does not run *)
  let plain =
    Omos.Server.build s @@ Omos.Server.static ~name:"noctors"
      (Blueprint.Mgraph.parse "(merge /obj/crt0.o /obj/app.o)")
  in
  let p2 =
    Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ plain ]) ~args:[ "c" ]
  in
  Alcotest.(check int) "no initializers, no ctor" 1
    (Simos.Kernel.run w.Omos.World.kernel p2 ())

(* -- abs symbols through the pipeline ---------------------------------------- *)

let test_abs_symbols_link_and_execute () =
  let a = Sof.Asm.create "abs.o" in
  Sof.Asm.abs_symbol a "MAGIC" 0x1234;
  Sof.Asm.label a "_start";
  Sof.Asm.lea a 5 "MAGIC";
  Sof.Asm.instr a Svm.Isa.Halt;
  let img, _ = Linker.Link.link ~layout [ Sof.Asm.finish a ] in
  Alcotest.(check (option int)) "abs in symtab" (Some 0x1234)
    (Linker.Image.find_symbol img "MAGIC");
  let mem, buf = Svm.Cpu.flat_mem 0x10000 in
  Linker.Image.load_into_flat img buf;
  let cpu = Svm.Cpu.create mem in
  cpu.Svm.Cpu.pc <- img.Linker.Image.entry;
  ignore (Svm.Cpu.run ~fuel:10 cpu);
  Alcotest.(check int32) "abs loaded" 0x1234l (Svm.Cpu.get_reg cpu 5)

(* -- image codec ---------------------------------------------------------------- *)

let prop_image_codec_roundtrip =
  QCheck.Test.make ~count:40 ~name:"image encode/decode roundtrip"
    (QCheck.int_range 1 40)
    (fun n ->
      let a = Sof.Asm.create "r.o" in
      Sof.Asm.label a "_start";
      for i = 1 to n do
        Sof.Asm.instr a (Svm.Isa.Movi (1, Int32.of_int i))
      done;
      Sof.Asm.instr a Svm.Isa.Halt;
      Sof.Asm.data_label a "d";
      Sof.Asm.data_word a (Int32.of_int n);
      Sof.Asm.bss a "b" (n * 8);
      let img, _ = Linker.Link.link ~layout [ Sof.Asm.finish a ] in
      let img' = Linker.Image.decode (Linker.Image.encode img) in
      Linker.Image.digest img = Linker.Image.digest img'
      && img'.Linker.Image.entry = img.Linker.Image.entry
      && img'.Linker.Image.symtab = img.Linker.Image.symtab)

(* -- argv edge cases --------------------------------------------------------------- *)

let test_argv_overflow_returns_error () =
  let k = Simos.Kernel.create () in
  let a = Sof.Asm.create "av.o" in
  Sof.Asm.label a "_start";
  (* getarg(0, buf, 2): "longname" does not fit -> -1 *)
  Sof.Asm.instr a (Svm.Isa.Movi (1, 0l));
  Sof.Asm.lea a 2 "buf";
  Sof.Asm.instr a (Svm.Isa.Movi (3, 2l));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_argv));
  Sof.Asm.instr a (Svm.Isa.Movi (2, 3l));
  Sof.Asm.instr a (Svm.Isa.Add (1, 0, 2));
  Sof.Asm.instr a (Svm.Isa.Sys (Int32.of_int Simos.Syscall.sys_exit));
  Sof.Asm.bss a "buf" 8;
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x100000; data_base = 0x200000 }
      [ Sof.Asm.finish a ]
  in
  let p = Simos.Kernel.create_process k ~args:[ "longname" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"av" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  (* -1 + 3 = 2 *)
  Alcotest.(check int) "overflow -> -1" 2 (Simos.Kernel.run k p ())

(* -- lib-dynamic-impl specializer ----------------------------------------------------- *)

let test_lib_dynamic_impl_is_full_library () =
  let w = Omos.World.create () in
  let r =
    Omos.Server.eval w.Omos.World.server
      (Blueprint.Mgraph.parse "(specialize \"lib-dynamic-impl\" /lib/libc)")
  in
  Alcotest.(check bool) "real implementation" true
    (List.mem "strlen" (Jigsaw.Module_ops.exports r.Blueprint.Mgraph.m));
  let text =
    List.fold_left
      (fun a (o : Sof.Object_file.t) -> a + Bytes.length o.Sof.Object_file.text)
      0
      (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
  in
  Alcotest.(check bool) "full code, not stubs" true (text > 100_000)

(* -- failure injection ----------------------------------------------------------- *)

let test_corrupted_executable_rejected () =
  let k = Simos.Kernel.create () in
  Simos.Fs.mkdir_p k.Simos.Kernel.fs "/bin";
  (* a valid image, truncated on disk *)
  let a = Sof.Asm.create "x.o" in
  Sof.Asm.label a "_start";
  Sof.Asm.instr a Svm.Isa.Halt;
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x8000 }
      [ Sof.Asm.finish a ]
  in
  let full = Linker.Image.encode img in
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/x"
    (Bytes.sub full 0 (Bytes.length full / 2));
  (try
     ignore (Simos.Kernel.exec k ~path:"/bin/x" ~args:[]);
     Alcotest.fail "expected Exec_error"
   with Simos.Kernel.Exec_error _ -> ());
  (* garbage entirely *)
  Simos.Fs.write_file k.Simos.Kernel.fs "/bin/junk" (Bytes.of_string "not an image");
  try
    ignore (Simos.Kernel.exec k ~path:"/bin/junk" ~args:[]);
    Alcotest.fail "expected Exec_error"
  with Simos.Kernel.Exec_error _ -> ()

let test_stack_overflow_faults () =
  (* runaway recursion runs off the 256 KB stack region and faults
     instead of silently corrupting neighbouring memory *)
  let obj =
    Minic.Driver.compile ~name:"deep.o"
      "int down(int n) { return down(n + 1); } int main() { return down(0); }"
  in
  let img, _ =
    Linker.Link.link ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x20000 }
      [ Workloads.Crt0.obj (); obj ]
  in
  let k = Simos.Kernel.create () in
  let p = Simos.Kernel.create_process k ~args:[ "deep" ] in
  Simos.Kernel.map_image k p (Simos.Kernel.cache_image k ~label:"deep" img);
  Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
  try
    ignore (Simos.Kernel.run k p ());
    Alcotest.fail "expected a fault"
  with Simos.Addr_space.Fault _ -> ()

(* -- layout independence ------------------------------------------------------------ *)

let prop_fragment_order_is_behaviour_invariant =
  (* shuffling the library members changes every address, but a fully
     symbolic program must behave identically *)
  QCheck.Test.make ~count:15 ~name:"library member order does not change behaviour"
    (QCheck.int_range 1 10000)
    (fun seed ->
      let members = List.map snd (Workloads.Libc_gen.objects ()) in
      (* deterministic shuffle from the seed *)
      let arr = Array.of_list members in
      let st = ref seed in
      for i = Array.length arr - 1 downto 1 do
        st := ((!st * 48271) + 13) land 0xFFFFFF;
        let j = !st mod (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let run frags =
        let roots =
          [ Workloads.Crt0.obj ();
            Minic.Driver.compile ~name:"m.o"
              "int main() { putint(imax(3, strlen(\"hello\"))); putstr(\"!\"); return 0; }" ]
        in
        let img, _ =
          Linker.Link.link
            ~layout:{ Linker.Link.text_base = 0x1000; data_base = 0x40000000 }
            (roots @ frags)
        in
        let k = Simos.Kernel.create () in
        let p = Simos.Kernel.create_process k ~args:[ "m" ] in
        Simos.Kernel.map_image k p
          (Simos.Kernel.cache_image k ~label:(string_of_int seed) img);
        Simos.Kernel.finish_exec k p ~entry:img.Linker.Image.entry;
        let code = Simos.Kernel.run k p () in
        (code, Simos.Proc.stdout_contents p)
      in
      run members = run (Array.to_list arr))

(* -- misc corners ----------------------------------------------------------------------- *)

let test_minic_deep_expression () =
  (* stack-machine codegen must handle deep nesting *)
  let expr = String.concat "" (List.init 40 (fun _ -> "(1 + ")) ^ "2"
             ^ String.concat "" (List.init 40 (fun _ -> ")")) in
  let code, _ = run_src (Printf.sprintf "int main() { return (%s) %% 64; }" expr) in
  Alcotest.(check int) "deep nesting" (42 mod 64) code

let test_minic_args_evaluated_left_to_right () =
  let code, _ =
    run_src
      "int g = 0; \
       int bump(int v) { g = g * 10 + v; return v; } \
       int three(int a, int b, int c) { return g; } \
       int main() { return three(bump(1), bump(2), bump(3)); }"
  in
  (* arguments are pushed right-to-left but each argument expression is
     evaluated at push time: order is 3, 2, 1 *)
  Alcotest.(check int) "evaluation order" 321 code

let test_view_depth_and_push_cheapness () =
  let o = Minic.Driver.compile ~name:"v.o" "int f() { return 1; }" in
  let v = ref (Sof.View.of_object o) in
  for i = 1 to 100 do
    v := Sof.View.push !v
        (Sof.View.Copy_defs (fun n -> if n = "f" then Some (Printf.sprintf "f%d" i) else None))
  done;
  Alcotest.(check int) "depth" 100 (Sof.View.depth !v);
  let m = Sof.View.materialize !v in
  Alcotest.(check bool) "all copies present" true (Sof.Object_file.defines m "f100");
  Alcotest.(check bool) "bytes still shared" true
    (m.Sof.Object_file.text == o.Sof.Object_file.text)

let () =
  Alcotest.run "coverage"
    [
      ( "pcrel",
        [
          Alcotest.test_case "cross fragment" `Quick test_pcrel_text_cross_fragment;
          Alcotest.test_case "with addend" `Quick test_pcrel_with_addend;
          Alcotest.test_case "in data" `Quick test_pcrel_in_data;
        ] );
      ( "icall",
        [
          Alcotest.test_case "basic" `Quick test_icall_basic;
          Alcotest.test_case "multiple args" `Quick test_icall_multiple_args;
          Alcotest.test_case "table" `Quick test_icall_through_table;
        ] );
      ( "fds",
        [
          Alcotest.test_case "read/close" `Quick test_fd_read_file_and_close;
          Alcotest.test_case "bad fd write" `Quick test_write_bad_fd;
        ] );
      ( "cache-eviction",
        [
          Alcotest.test_case "least-used first" `Quick test_cache_eviction_by_use;
          Alcotest.test_case "noop within budget" `Quick test_cache_eviction_noop_within_budget;
        ] );
      ( "integration",
        [
          Alcotest.test_case "ctor end-to-end" `Quick test_ctor_end_to_end;
          Alcotest.test_case "abs symbols" `Quick test_abs_symbols_link_and_execute;
          Alcotest.test_case "argv overflow" `Quick test_argv_overflow_returns_error;
          Alcotest.test_case "lib-dynamic-impl" `Quick test_lib_dynamic_impl_is_full_library;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "corrupted executables" `Quick test_corrupted_executable_rejected;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow_faults;
        ] );
      ( "misc",
        [
          Alcotest.test_case "deep expressions" `Quick test_minic_deep_expression;
          Alcotest.test_case "argument order" `Quick test_minic_args_evaluated_left_to_right;
          Alcotest.test_case "view stacking" `Quick test_view_depth_and_push_cheapness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_image_codec_roundtrip; prop_fragment_order_is_behaviour_invariant ] );
    ]
