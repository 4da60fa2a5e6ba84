(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablation experiments DESIGN.md calls
   out, plus bechamel micro-benchmarks of the core operations.

   Experiments (ids from DESIGN.md):
     table1       T1a-T1d : Table 1, all four sub-tables
     reorder      E1      : profile-driven reordering speedup
     memory       E2      : dispatch-table memory vs library sharing
     cache        E3      : cold vs warm instantiation
     constraints  E4      : constraint-system conflict resolution
     deltablue    E5      : the DeltaBlue solver workloads
     linktime     E6      : static link time vs OMOS instantiation
     sweep        E7      : OMOS advantage vs program run length
     sharing      E8      : memory vs concurrent clients
     dispatch     E9      : per-call dispatch-table overhead
     relink       E_relink: one-module edit — incremental relink vs from-scratch
     micro                : bechamel micro-benchmarks
     all                  : everything (default)

   Absolute numbers are simulated-clock seconds, not HP9000/730
   seconds; the reproduction targets are the shapes: who wins, by
   roughly what factor, where the crossovers are. Each table prints the
   paper's reported ratio next to the measured one. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* -- timed invocation machinery ------------------------------------------ *)

type row = { label : string; user : float; system : float; elapsed : float }

(* Run [n] invocations, return totals scaled to [paper_iters]
   equivalent (simulated seconds). *)
let time_invocations (w : Omos.World.t) (prog : Omos.Schemes.program)
    ~(args : string list) ~(n : int) ~(paper_iters : int) ~(label : string) : row =
  (* warm: installation-time build + first demand loads *)
  let code, _ = Omos.Schemes.invoke w.Omos.World.rt prog ~args in
  if code <> 0 then failwith (label ^ ": nonzero exit");
  let clock = w.Omos.World.kernel.Simos.Kernel.clock in
  let snap = Simos.Clock.snapshot clock in
  for _ = 1 to n do
    ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args)
  done;
  let u, s, e = Simos.Clock.since clock snap in
  let scale = float_of_int paper_iters /. float_of_int n /. 1_000_000.0 in
  let r = { label; user = u *. scale; system = s *. scale; elapsed = e *. scale } in
  (* mirror every timed row into the metrics registry so the BENCH_*.json
     snapshots carry the numbers in a stable schema *)
  Telemetry.Gauge.set (Printf.sprintf "bench.%s.user_s" label) r.user;
  Telemetry.Gauge.set (Printf.sprintf "bench.%s.system_s" label) r.system;
  Telemetry.Gauge.set (Printf.sprintf "bench.%s.elapsed_s" label) r.elapsed;
  r

let print_table ~title ~iters (rows : row list) ~(paper_ratios : (string * float) list)
    =
  Printf.printf "\n%s  (simulated; scaled to %d iterations)\n" title iters;
  Printf.printf "  %-28s %9s %9s %9s %7s %12s\n" "" "User" "System" "Elapsed"
    "Ratio" "paper-ratio";
  match rows with
  | [] -> ()
  | base :: _ ->
      List.iter
        (fun r ->
          let ratio = r.elapsed /. base.elapsed in
          let paper =
            match List.assoc_opt r.label paper_ratios with
            | Some p -> Printf.sprintf "%.2f" p
            | None -> "-"
          in
          Printf.printf "  %-28s %9.2f %9.2f %9.2f %7.2f %12s\n" r.label r.user
            r.system r.elapsed ratio paper)
        rows

(* -- T1: Table 1 ----------------------------------------------------------- *)

let table1_hpux () =
  section "Table 1 (HP-UX personality): constraint-based shared library performance";
  let w = Omos.World.create ~personality:Omos.World.Hpux () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let hp = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let omos =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls" ~client ~libs ()
  in
  (* T1a: ls over a single-entry directory, 1000 iterations *)
  let n = 100 in
  print_table ~title:"Test: ls (single entry)" ~iters:1000
    [
      time_invocations w hp ~args:Omos.World.ls_single_args ~n ~paper_iters:1000
        ~label:"HP-UX Shared Lib";
      time_invocations w omos ~args:Omos.World.ls_single_args ~n ~paper_iters:1000
        ~label:"OMOS bootstrap exec";
    ]
    ~paper_ratios:[ ("OMOS bootstrap exec", 1.007) ];
  (* T1b: ls -laF over the populated directory *)
  let n = 30 in
  print_table ~title:"Test: ls -laF" ~iters:1000
    [
      time_invocations w hp ~args:Omos.World.ls_laf_args ~n ~paper_iters:1000
        ~label:"HP-UX Shared Lib";
      time_invocations w omos ~args:Omos.World.ls_laf_args ~n ~paper_iters:1000
        ~label:"OMOS bootstrap exec";
    ]
    ~paper_ratios:[ ("OMOS bootstrap exec", 0.93) ];
  (* T1c: codegen *)
  let cclient = Omos.World.codegen_client w and clibs = Omos.World.codegen_libs in
  let hp_cg =
    Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"codegen" ~client:cclient
      ~libs:clibs
  in
  let omos_cg =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"codegen"
      ~client:cclient ~libs:clibs ()
  in
  let n = 20 in
  print_table ~title:"Test: codegen" ~iters:1000
    [
      time_invocations w hp_cg ~args:Omos.World.codegen_args ~n ~paper_iters:1000
        ~label:"HP-UX Shared Lib";
      time_invocations w omos_cg ~args:Omos.World.codegen_args ~n ~paper_iters:1000
        ~label:"OMOS bootstrap exec";
    ]
    ~paper_ratios:[ ("OMOS bootstrap exec", 0.82) ]

let table1_osf () =
  section "Table 1 (Mach 3.0 + OSF/1 personality)";
  let w = Omos.World.create ~personality:Omos.World.Mach_osf1 () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let osf = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let boot =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls" ~client ~libs ()
  in
  let integ =
    Omos.Schemes.self_contained_program w.Omos.World.rt
      ~style:Omos.Schemes.Integrated ~name:"ls" ~client ~libs ()
  in
  let n = 100 in
  print_table ~title:"Test: ls (single entry)" ~iters:300
    [
      time_invocations w osf ~args:Omos.World.ls_single_args ~n ~paper_iters:300
        ~label:"OSF/1 Shared Lib";
      time_invocations w boot ~args:Omos.World.ls_single_args ~n ~paper_iters:300
        ~label:"OMOS bootstrap exec";
      time_invocations w integ ~args:Omos.World.ls_single_args ~n ~paper_iters:300
        ~label:"OMOS integrated exec";
    ]
    ~paper_ratios:[ ("OMOS bootstrap exec", 0.60); ("OMOS integrated exec", 0.44) ]

let table1_386 () =
  section "Mach 3.0 on i386 (paper 8.2: integrated exec 33% faster than native)";
  let w = Omos.World.create ~personality:Omos.World.Mach_386 () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let native = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let integ =
    Omos.Schemes.self_contained_program w.Omos.World.rt
      ~style:Omos.Schemes.Integrated ~name:"ls" ~client ~libs ()
  in
  let n = 100 in
  print_table ~title:"Test: ls (single entry)" ~iters:300
    [
      time_invocations w native ~args:Omos.World.ls_single_args ~n ~paper_iters:300
        ~label:"native exec";
      time_invocations w integ ~args:Omos.World.ls_single_args ~n ~paper_iters:300
        ~label:"OMOS integrated exec";
    ]
    ~paper_ratios:[ ("OMOS integrated exec", 0.67) ]

let table1 () =
  table1_hpux ();
  table1_osf ();
  table1_386 ()

(* -- E1: reordering ---------------------------------------------------------- *)

(* Build a self-contained ls against a per-function libc with the given
   fragment order, then measure one *cold* invocation: library segments
   demand-loaded from disk, page by page. *)
let cold_ls_elapsed ~(tag : string) (frags : Sof.Object_file.t list) : float * int =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  List.iteri
    (fun i o -> Omos.Server.add_fragment s (Printf.sprintf "/libcS/%s/%d" tag i) o)
    frags;
  let members =
    String.concat " " (List.mapi (fun i _ -> Printf.sprintf "/libcS/%s/%d" tag i) frags)
  in
  Omos.Server.register_meta_source s "/lib/libcS"
    (Printf.sprintf
       "(constraint-list \"T\" 0x100000 \"D\" 0x40200000)\n(merge %s)" members);
  let lib = Omos.Server.build s (Omos.Server.library "/lib/libcS") in
  let clientb =
    Omos.Server.build s
      (Omos.Server.static
         ~externals:[ lib.Omos.Server.entry.Omos.Cache.image ]
         ~name:"ls-cold"
         (Omos.Schemes.graph_of_objs (Omos.World.ls_client w)))
  in
  (* map manually with disk-backed segments: a cold start *)
  let k = w.Omos.World.kernel in
  let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
  let p = Simos.Kernel.create_process k ~args:Omos.World.ls_laf_args in
  let map_cold label (b : Omos.Server.built) =
    Simos.Kernel.map_image k p
      (Simos.Kernel.cache_image k ~label ~from_disk:true b.Omos.Server.entry.Omos.Cache.image)
  in
  map_cold ("cold-lib-" ^ tag) lib;
  map_cold ("cold-client-" ^ tag) clientb;
  Simos.Kernel.finish_exec k p
    ~entry:clientb.Omos.Server.entry.Omos.Cache.image.Linker.Image.entry;
  let code = Simos.Kernel.run k p () in
  if code <> 0 then failwith "cold ls failed";
  let _, _, e = Simos.Clock.since k.Simos.Kernel.clock snap in
  let lib_pages =
    Simos.Addr_space.touched_pages p.Simos.Proc.aspace
      ~pred:(fun l -> Astring.String.is_prefix ~affix:"cold-lib" l)
      ()
  in
  (e /. 1000.0, lib_pages)

let libc_split_fragments () =
  List.concat_map Workloads.Libc_gen.split_objects Workloads.Libc_gen.section_names

let reorder_trace () : Omos.Monitor.trace =
  (* monitor a run of ls -laF against the monitored libc *)
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let graph =
    Blueprint.Mgraph.Merge
      [
        Omos.Schemes.graph_of_objs (Omos.World.ls_client w);
        Blueprint.Mgraph.parse "(specialize \"monitor\" /lib/libc)";
      ]
  in
  let b = Omos.Server.build s (Omos.Server.static ~name:"ls-mon" graph) in
  let p =
    Omos.Boot.integrated_exec s
      (Omos.Server.loadable_entry [ b ])
      ~args:Omos.World.ls_laf_args
  in
  ignore (Simos.Kernel.run w.Omos.World.kernel p ());
  match Omos.Specializers.last_trace w.Omos.World.specializers with
  | Some t -> t
  | None -> failwith "no trace"

let reorder () =
  section "E1: profile-driven function reordering (paper: >10% average speedup)";
  let frags = libc_split_fragments () in
  let trace = reorder_trace () in
  Printf.printf "monitored ls -laF: %d call events, %d distinct routines\n"
    trace.Omos.Monitor.count
    (List.length (Omos.Monitor.first_call_order trace));
  let by_first = Omos.Reorder.from_trace ~trace frags in
  let by_freq =
    Omos.Reorder.from_trace ~strategy:Omos.Reorder.Call_frequency ~trace frags
  in
  let e_orig, pages_orig = cold_ls_elapsed ~tag:"orig" frags in
  let e_first, pages_first = cold_ls_elapsed ~tag:"first" by_first in
  let e_freq, pages_freq = cold_ls_elapsed ~tag:"freq" by_freq in
  Printf.printf "  %-22s %12s %18s\n" "" "elapsed(ms)" "lib pages touched";
  Printf.printf "  %-22s %12.2f %18d\n" "original order" e_orig pages_orig;
  Printf.printf "  %-22s %12.2f %18d\n" "first-call order" e_first pages_first;
  Printf.printf "  %-22s %12.2f %18d\n" "frequency order" e_freq pages_freq;
  Printf.printf "  cold-start speedup: %.1f%% (first-call), %.1f%% (frequency)\n"
    ((e_orig -. e_first) /. e_orig *. 100.0)
    ((e_orig -. e_freq) /. e_orig *. 100.0);
  Printf.printf "  (paper: >10%% average)\n"

(* -- E_hotspots: layout-locality audit --------------------------------------- *)

let hotspots () =
  section
    "E_hotspots: layout-locality audit on the E1 workload (headroom before vs \
     after reordering)";
  let frags = libc_split_fragments () in
  let trace = reorder_trace () in
  let before = Omos.Hotspots.audit ~key:"/lib/libc" ~trace frags in
  let after =
    Omos.Hotspots.audit ~key:"/lib/libc(reordered)" ~trace
      (Omos.Reorder.from_trace ~trace frags)
  in
  Printf.printf "monitored ls -laF: %d calls across %d of %d routines (%d bytes)\n"
    before.Omos.Hotspots.a_calls before.Omos.Hotspots.a_routines_called
    before.Omos.Hotspots.a_routines_total before.Omos.Hotspots.a_bytes_touched;
  Printf.printf "  %-22s %14s %14s %10s\n" "" "pages actual" "pages optimal" "headroom";
  Printf.printf "  %-22s %14d %14d %10d\n" "original order"
    before.Omos.Hotspots.a_pages_actual before.Omos.Hotspots.a_pages_optimal
    (Omos.Hotspots.headroom before);
  Printf.printf "  %-22s %14d %14d %10d\n" "first-call order"
    after.Omos.Hotspots.a_pages_actual after.Omos.Hotspots.a_pages_optimal
    (Omos.Hotspots.headroom after);
  Telemetry.Gauge.set "bench.hotspots.pages_actual"
    (float_of_int before.Omos.Hotspots.a_pages_actual);
  Telemetry.Gauge.set "bench.hotspots.pages_optimal"
    (float_of_int before.Omos.Hotspots.a_pages_optimal);
  Telemetry.Gauge.set "bench.hotspots.headroom_before_pages"
    (float_of_int (Omos.Hotspots.headroom before));
  Telemetry.Gauge.set "bench.hotspots.headroom_after_pages"
    (float_of_int (Omos.Hotspots.headroom after))

(* -- E2: dispatch-table memory --------------------------------------------------- *)

let memory () =
  section "E2: dispatch-table memory vs library-code savings (Kohl/Paxson claim)";
  let w = Omos.World.create () in
  let client = Omos.World.ls_client w and libs = Omos.World.ls_libs in
  let stat = Omos.Schemes.static_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let dyn = Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"ls" ~client ~libs in
  let sc =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls" ~client ~libs ()
  in
  let exe_bytes scheme =
    let path = Printf.sprintf "/bin/ls.%s" scheme in
    Simos.Fs.disk_usage w.Omos.World.kernel.Simos.Kernel.fs path
  in
  let static_size = exe_bytes "static" in
  let dynamic_size = exe_bytes "dynamic" in
  let client_only =
    List.fold_left (fun a (o : Sof.Object_file.t) -> a + Sof.Object_file.total_size o) 0 client
  in
  let lib_in_static = static_size - dynamic_size in
  Printf.printf "  static ls binary:              %6d bytes\n" static_size;
  Printf.printf "  dynamic ls binary:             %6d bytes\n" dynamic_size;
  Printf.printf "  client objects alone:          %6d bytes\n" client_only;
  Printf.printf "  library code pulled statically:%6d bytes (approx)\n" lib_in_static;
  Printf.printf "  dynamic dispatch machinery:    %6d bytes/process (%d imports)\n"
    dyn.Omos.Schemes.dispatch_bytes dyn.Omos.Schemes.imports;
  Printf.printf "  self-contained dispatch:       %6d bytes/process\n"
    sc.Omos.Schemes.dispatch_bytes;
  (* per-process memory: two concurrent instances of each *)
  let p1 = stat.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  let p2 = stat.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  let static_resident = Simos.Phys.resident_pages w.Omos.World.kernel.Simos.Kernel.phys in
  ignore (Simos.Kernel.run w.Omos.World.kernel p1 ());
  ignore (Simos.Kernel.run w.Omos.World.kernel p2 ());
  Simos.Kernel.reap w.Omos.World.kernel p1;
  Simos.Kernel.reap w.Omos.World.kernel p2;
  let q1 = sc.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  let q2 = sc.Omos.Schemes.launch ~args:Omos.World.ls_single_args in
  let shared_resident = Simos.Phys.resident_pages w.Omos.World.kernel.Simos.Kernel.phys in
  let saved = Simos.Phys.saved_pages w.Omos.World.kernel.Simos.Kernel.phys in
  ignore (Simos.Kernel.run w.Omos.World.kernel q1 ());
  ignore (Simos.Kernel.run w.Omos.World.kernel q2 ());
  Simos.Kernel.reap w.Omos.World.kernel q1;
  Simos.Kernel.reap w.Omos.World.kernel q2;
  Printf.printf "  2x static ls resident:         %6d pages (no sharing)\n" static_resident;
  Printf.printf "  2x shared-lib ls resident:     %6d pages (%d saved by sharing)\n"
    shared_resident saved;
  (* the Kohl/Paxson accounting: a SunOS-style implementation keeps
     per-process dispatch tables covering EVERY library export, while
     the memory a static link would have spent is only the code ls
     actually uses (fine-grained archive pull) *)
  let split_members =
    List.concat_map Workloads.Libc_gen.split_objects Workloads.Libc_gen.section_names
  in
  let fine_pull =
    Linker.Archive.select ~roots:client ~available:split_members
  in
  let fine_bytes =
    List.fold_left (fun a (o : Sof.Object_file.t) -> a + Sof.Object_file.total_size o) 0 fine_pull
  in
  let libc_exports =
    List.length
      (List.concat_map
         (fun (o : Sof.Object_file.t) ->
           List.filter (fun (s : Sof.Symbol.t) -> s.Sof.Symbol.kind = Sof.Symbol.Text)
             (Sof.Object_file.exported o))
         (List.map snd (Workloads.Libc_gen.objects ())))
  in
  let sunos_tables = Omos.Stubs.dispatch_bytes libc_exports in
  Printf.printf "\n  Kohl/Paxson accounting (SunOS-style whole-library tables):\n";
  Printf.printf "  libc code ls actually uses (fine archive pull): %6d bytes (%d members)\n"
    fine_bytes (List.length fine_pull);
  Printf.printf "  per-process tables covering all %d libc exports: %6d bytes\n"
    libc_exports sunos_tables;
  Printf.printf "  -> dispatch tables %s the library code saved  (paper: \"more memory\n"
    (if sunos_tables > fine_bytes then "EXCEED" else "are below");
  Printf.printf "     is used for dispatch tables than is saved in library code\")\n";
  ignore lib_in_static

(* -- E3: caching ---------------------------------------------------------------- *)

let cache () =
  section "E3: image cache — cold vs warm instantiation";
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let k = w.Omos.World.kernel in
  let time f =
    let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
    let r = f () in
    let _, _, e = Simos.Clock.since k.Simos.Kernel.clock snap in
    (r, e /. 1000.0)
  in
  let _, cold = time (fun () -> Omos.Server.build s (Omos.Server.library "/lib/libc")) in
  let _, warm = time (fun () -> Omos.Server.build s (Omos.Server.library "/lib/libc")) in
  Printf.printf "  libc instantiation, cold (evaluate+link+place): %8.2f ms\n" cold;
  Printf.printf "  libc instantiation, warm (cache hit):           %8.2f ms\n" warm;
  Printf.printf "  speedup: %.0fx\n" (cold /. (warm +. 0.0001));
  let st = Omos.Server.cache_stats s in
  Printf.printf "  cache: %d hits, %d misses, %d entries, %d KB on disk\n"
    st.Omos.Cache.hits st.Omos.Cache.misses st.Omos.Cache.entries
    (st.Omos.Cache.disk_bytes_total / 1024);
  let prog =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"ls"
      ~client:(Omos.World.ls_client w) ~libs:Omos.World.ls_libs ()
  in
  let _, first =
    time (fun () -> Omos.Schemes.invoke w.Omos.World.rt prog ~args:Omos.World.ls_single_args)
  in
  let _, second =
    time (fun () -> Omos.Schemes.invoke w.Omos.World.rt prog ~args:Omos.World.ls_single_args)
  in
  Printf.printf "  ls first invocation:  %8.2f ms (demand loads)\n" first;
  Printf.printf "  ls steady state:      %8.2f ms\n" second;
  (* eviction round trip: trim everything, rebuild, and verify the
     cache and the arenas stayed coherent throughout *)
  let evicted = Omos.Server.evict_to_budget s ~bytes:0 in
  let _, rebuild = time (fun () -> Omos.Server.build s (Omos.Server.library "/lib/libc")) in
  Printf.printf "  evicted %d entries; rebuild after eviction:     %8.2f ms\n"
    evicted rebuild;
  let viols = Omos.Residency.check_invariants (Omos.Server.residency s) in
  Printf.printf
    "  residency: %d placed, %d evicted, %d checks, %d violations (%d here)\n"
    (Telemetry.Counter.get "residency.placed")
    (Telemetry.Counter.get "residency.evicted")
    (Telemetry.Counter.get "residency.invariant_checks")
    (Telemetry.Counter.get "residency.invariant_violations")
    (List.length viols)

(* -- E4: constraint system ---------------------------------------------------------- *)

let constraints () =
  section "E4: constraint-system behaviour under address conflicts";
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  (* all aux libraries want the same preferred base: only one can win;
     the others get alternates — and every placement is reused on
     re-instantiation *)
  let libs = Workloads.Codegen_gen.libraries () in
  List.iter
    (fun (path, _) ->
      Omos.Server.register_meta_source s (path ^ "-greedy")
        (Printf.sprintf
           "(constraint-list \"T\" 0x100000 \"D\" 0x40200000)\n(merge %s.o)" path))
    libs;
  let placements =
    List.map
      (fun (path, _) ->
        let b = Omos.Server.build s (Omos.Server.library (path ^ "-greedy")) in
        (path, b.Omos.Server.entry.Omos.Cache.text_base))
      libs
  in
  let preferred =
    List.length (List.filter (fun (_, base) -> base = 0x100000) placements)
  in
  List.iter
    (fun (path, base) -> Printf.printf "  %-14s text at 0x%08x\n" path base)
    placements;
  Printf.printf "  preferred base won by: %d of %d (others placed nearby)\n" preferred
    (List.length placements);
  let again =
    List.map
      (fun (path, _) ->
        let b = Omos.Server.build s (Omos.Server.library (path ^ "-greedy")) in
        b.Omos.Server.entry.Omos.Cache.text_base)
      libs
  in
  let stable = List.for_all2 (fun (_, a) b -> a = b) placements again in
  Printf.printf "  placements stable across re-instantiation: %b\n" stable;
  let st = Omos.Server.cache_stats s in
  Printf.printf "  placements per construction (max): %d (paper: few versions is key)\n"
    st.Omos.Cache.versions_max

(* -- E5: DeltaBlue -------------------------------------------------------------------- *)

let deltablue () =
  section "E5: DeltaBlue incremental constraint solver (paper: future-work port)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  List.iter
    (fun n ->
      let v, ms = time (fun () -> Constraints.Deltablue.chain_test n) in
      assert (v = 100);
      Printf.printf "  chain test      n=%6d: %8.2f ms\n" n ms)
    [ 100; 1000; 10000 ];
  List.iter
    (fun n ->
      let ok, ms = time (fun () -> Constraints.Deltablue.projection_test n) in
      assert ok;
      Printf.printf "  projection test n=%6d: %8.2f ms\n" n ms)
    [ 100; 1000; 10000 ]

(* -- E6: link time ----------------------------------------------------------------------- *)

let linktime () =
  section "E6: static link time vs OMOS instantiation (development-cycle cost)";
  let time_world f =
    let w = Omos.World.create () in
    let k = w.Omos.World.kernel in
    let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
    f w;
    let _, _, e = Simos.Clock.since k.Simos.Kernel.clock snap in
    e /. 1000.0
  in
  let t_static =
    time_world (fun w ->
        ignore
          (Omos.Schemes.static_program w.Omos.World.rt ~name:"codegen"
             ~client:(Omos.World.codegen_client w) ~libs:Omos.World.codegen_libs))
  in
  let t_omos =
    time_world (fun w ->
        ignore
          (Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"codegen"
             ~client:(Omos.World.codegen_client w) ~libs:Omos.World.codegen_libs ()))
  in
  Printf.printf "  static link + write of codegen:       %8.2f ms\n" t_static;
  Printf.printf "  OMOS instantiate (no binary written): %8.2f ms\n" t_omos;
  Printf.printf "  (the paper: most static-link cost is writing the huge binary;\n";
  Printf.printf "   OMOS keeps the image in its cache instead)\n"

(* -- E7: run-length crossover -------------------------------------------------- *)

(* "On longer-running programs, the proportional speedup using OMOS
   would tend to be less, because in the traditional design, the
   majority of the relocations are presumably performed at startup."
   Sweep the program's run length and watch the ratio approach 1. *)
let sweep () =
  section "E7: OMOS advantage vs program run length (paper \u{00a7}8.2 prose)";
  Printf.printf "  %-14s %14s %14s %8s\n" "work (loops)" "dynamic (ms)" "omos (ms)" "ratio";
  List.iter
    (fun loops ->
      let w = Omos.World.create () in
      let src =
        Printf.sprintf
          "int main() { int i; int a; a = 1; i = %d * 1000; \
           while (i > 0) { a = (a * 3 + i) & 0xFFFF; i = i - 1; } \
           putint(a & 7); return 0; }"
          loops
      in
      let client =
        [ Workloads.Crt0.obj (); Minic.Driver.compile ~name:"/obj/spin.o" src ]
      in
      let name = Printf.sprintf "spin%d" loops in
      let dyn =
        Omos.Schemes.dynamic_program w.Omos.World.rt ~name ~client ~libs:[ "/lib/libc" ]
      in
      let sc =
        Omos.Schemes.self_contained_program w.Omos.World.rt ~name ~client
          ~libs:[ "/lib/libc" ] ()
      in
      let time prog =
        ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:[ name ]);
        let snap = Simos.Clock.snapshot w.Omos.World.kernel.Simos.Kernel.clock in
        for _ = 1 to 3 do
          ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:[ name ])
        done;
        let _, _, e = Simos.Clock.since w.Omos.World.kernel.Simos.Kernel.clock snap in
        e /. 3.0 /. 1000.0
      in
      let td = time dyn and ts = time sc in
      Printf.printf "  %-14d %14.2f %14.2f %8.2f\n" loops td ts (ts /. td))
    [ 1; 10; 50; 200; 800 ];
  Printf.printf "  (ratio -> 1.0 as the fixed per-invocation loading gap is amortized)\n"

(* -- E8: sharing at multi-user scale --------------------------------------------- *)

(* "the memory savings from shared libraries are probably more
   significant in a multi-user time-shared system than in the dedicated
   workstation environment" — run N concurrent clients and report
   resident memory under static vs shared schemes. *)
let sharing () =
  section "E8: physical memory vs concurrent clients (multi-user claim, \u{00a7}2.1)";
  (* N *different* programs, as on a real time-shared machine: under
     static linking each binary embeds its own copy of the libc members
     it uses; under shared libraries they all map the one cached libc *)
  let distinct_client i =
    let src =
      Printf.sprintf
        "int main() { int b; b = malloc(32); strcpy(b, \"p%d \"); putstr(b); \
         putint(strlen(b) + atoi(\"%d\") + imax(%d, 2)); putstr(\"\\n\"); return 0; }"
        i i i
    in
    [ Workloads.Crt0.obj ();
      Minic.Driver.compile ~name:(Printf.sprintf "/obj/user%d.o" i) src ]
  in
  Printf.printf "  %-6s %18s %18s %12s\n" "procs" "static (pages)" "shared (pages)" "saved";
  List.iter
    (fun n ->
      let measure scheme_of =
        let w = Omos.World.create () in
        let procs =
          List.init n (fun i ->
              let prog = scheme_of w i (distinct_client i) in
              prog.Omos.Schemes.launch ~args:[ Printf.sprintf "user%d" i ])
        in
        let resident = Simos.Phys.resident_pages w.Omos.World.kernel.Simos.Kernel.phys in
        let saved = Simos.Phys.saved_pages w.Omos.World.kernel.Simos.Kernel.phys in
        List.iter (fun p -> ignore (Simos.Kernel.run w.Omos.World.kernel p ())) procs;
        (resident, saved)
      in
      let static_resident, _ =
        measure (fun w i client ->
            Omos.Schemes.static_program w.Omos.World.rt
              ~name:(Printf.sprintf "user%d" i) ~client ~libs:Omos.World.ls_libs)
      in
      let shared_resident, saved =
        measure (fun w i client ->
            Omos.Schemes.self_contained_program w.Omos.World.rt
              ~name:(Printf.sprintf "user%d" i) ~client ~libs:Omos.World.ls_libs ())
      in
      Printf.printf "  %-6d %18d %18d %12d\n" n static_resident shared_resident saved)
    [ 1; 2; 4; 8; 16 ];
  Printf.printf
    "  (each static binary embeds its own libc members; the shared library\n\
    \   is resident once for everyone — the multi-user savings the paper\n\
    \   says motivated shared libraries originally)\n"

(* -- E9: dispatch indirection overhead -------------------------------------------- *)

(* self-contained libraries "can use absolute addressing modes", no
   branch-table hop per call. Measure steady-state user time of a
   call-heavy program under both schemes; the difference is pure
   dispatch overhead. *)
let dispatch () =
  section "E9: per-call dispatch overhead (absolute addressing vs branch table)";
  let w = Omos.World.create () in
  let src =
    "int main() { int i; int a; a = 0; i = 20000; \
     while (i > 0) { a = a + imax(i, 3); i = i - 1; } \
     putint(a & 15); return 0; }"
  in
  let client = [ Workloads.Crt0.obj (); Minic.Driver.compile ~name:"/obj/calls.o" src ] in
  let dyn =
    Omos.Schemes.dynamic_program w.Omos.World.rt ~name:"calls" ~client ~libs:[ "/lib/libc" ]
  in
  let sc =
    Omos.Schemes.self_contained_program w.Omos.World.rt ~name:"calls" ~client
      ~libs:[ "/lib/libc" ] ()
  in
  let user prog =
    ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:[ "calls" ]);
    let snap = Simos.Clock.snapshot w.Omos.World.kernel.Simos.Kernel.clock in
    ignore (Omos.Schemes.invoke w.Omos.World.rt prog ~args:[ "calls" ]);
    let u, _, _ = Simos.Clock.since w.Omos.World.kernel.Simos.Kernel.clock snap in
    u /. 1000.0
  in
  let ud = user dyn and us = user sc in
  Printf.printf "  20k library calls, dynamic scheme user time:        %8.2f ms\n" ud;
  Printf.printf "  20k library calls, self-contained user time:        %8.2f ms\n" us;
  Printf.printf "  dispatch overhead: %.2f ms (%.1f%%), %d instructions per call\n"
    (ud -. us)
    ((ud -. us) /. us *. 100.0)
    Omos.Stubs.bound_path_instrs

(* -- E10: staged pipeline --------------------------------------------------- *)

(* Multi-client instantiation through the staged submit/await pipeline:
   throughput and p95 latency as the in-flight depth grows, batched
   placement (one constraint pass per flush) against per-request
   placement. The win is the amortized solver pass: N queued misses
   cost one place_solve instead of N. *)
let pipeline () =
  section "E10: staged pipeline — depth and batched placement";
  let metas =
    [ "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libal1"; "/lib/libal2" ]
  in
  let rounds = 4 in
  let p95 xs =
    let sorted = Array.of_list xs in
    Array.sort compare sorted;
    Telemetry.nearest_rank sorted 95.0
  in
  let run_config ~depth ~batched =
    let w = Omos.World.create () in
    let s = w.Omos.World.server in
    let k = w.Omos.World.kernel in
    Omos.Server.set_batch_placement s batched;
    Omos.Server.set_queue_limit s (max 64 depth);
    let lats = ref [] in
    let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
    (* each round: evict everything, then re-instantiate every library
       with [depth] requests in flight — every round is all misses, so
       every round exercises the place boundary *)
    for _ = 1 to rounds do
      ignore (Omos.Server.evict_to_budget s ~bytes:0);
      let pending = ref [] in
      let flush () =
        Omos.Server.drain s;
        List.iter
          (fun tk ->
            let r = Omos.Server.await s tk in
            lats := r.Omos.Server.sim_us :: !lats)
          (List.rev !pending);
        pending := []
      in
      List.iter
        (fun m ->
          pending := Omos.Server.submit s (Omos.Server.library m) :: !pending;
          if List.length !pending >= depth then flush ())
        metas;
      flush ()
    done;
    let _, _, elapsed = Simos.Clock.since k.Simos.Kernel.clock snap in
    (elapsed /. 1000.0, p95 !lats)
  in
  Printf.printf "  %d libraries x %d all-miss rounds\n\n" (List.length metas) rounds;
  Printf.printf "  %-28s %12s %10s\n" "" "elapsed_ms" "p95_us";
  List.iter
    (fun depth ->
      List.iter
        (fun batched ->
          let elapsed_ms, p95_us = run_config ~depth ~batched in
          let label =
            Printf.sprintf "pipeline.d%d.%s" depth
              (if batched then "batched" else "perreq")
          in
          Telemetry.Gauge.set (Printf.sprintf "bench.%s.elapsed_ms" label) elapsed_ms;
          Telemetry.Gauge.set (Printf.sprintf "bench.%s.p95_us" label) p95_us;
          Printf.printf "  %-28s %12.2f %10.1f\n"
            (Printf.sprintf "depth %2d, %s" depth
               (if batched then "batched place" else "per-request place"))
            elapsed_ms p95_us)
        [ false; true ])
    [ 1; 4; 16 ];
  (* the headline claim: at depth >= 4, one batched pass beats
     per-request solves on total simulated time *)
  let base_ms, _ = run_config ~depth:4 ~batched:false in
  let batch_ms, _ = run_config ~depth:4 ~batched:true in
  Printf.printf "\n  depth 4: batched %.2f ms vs per-request %.2f ms -> %s\n"
    batch_ms base_ms
    (if batch_ms < base_ms then "batching wins" else "NO WIN (regression?)")

(* -- E_blame: causal blame + what-if accuracy ---------------------------------------------- *)

let blame () =
  section "E_blame: causal critical-path blame and what-if replay accuracy";
  let metas =
    [ "/lib/libm"; "/lib/libl"; "/lib/libC"; "/lib/libal1"; "/lib/libal2" ]
  in
  let rounds = 4 in
  (* the E_pipeline depth-16 scenario: every round evicts everything
     and pushes all libraries through the pipeline with the whole round
     in flight, so every round is all-miss and crosses the place
     boundary as one batch *)
  let run_config ~batched ~causal =
    let w = Omos.World.create () in
    let s = w.Omos.World.server in
    let k = w.Omos.World.kernel in
    Omos.Server.set_batch_placement s batched;
    Omos.Server.set_queue_limit s 64;
    Telemetry.Causal.set_enabled causal;
    let total = ref 0.0 in
    let snap = Simos.Clock.snapshot k.Simos.Kernel.clock in
    for _ = 1 to rounds do
      ignore (Omos.Server.evict_to_budget s ~bytes:0);
      let pending =
        List.map (fun m -> Omos.Server.submit s (Omos.Server.library m)) metas
      in
      Omos.Server.drain s;
      List.iter
        (fun tk ->
          let r = Omos.Server.await s tk in
          total := !total +. r.Omos.Server.sim_us)
        pending
    done;
    let _, _, elapsed = Simos.Clock.since k.Simos.Kernel.clock snap in
    Telemetry.Causal.set_enabled false;
    (elapsed, !total)
  in
  (* recording overhead on the simulated clock must be exactly zero:
     the causal graph is bookkeeping, not charged work *)
  let elapsed_off, _ = run_config ~batched:true ~causal:false in
  Telemetry.Causal.reset_state ();
  let elapsed_on, recorded_total = run_config ~batched:true ~causal:true in
  let ps = Omos.Blame.paths (Telemetry.Causal.requests ()) in
  Telemetry.Causal.reset_state ();
  let prof = Omos.Blame.profile ps in
  let wait_frac =
    if prof.Omos.Blame.bp_total_sim_us > 0.0 then
      prof.Omos.Blame.bp_wait_us /. prof.Omos.Blame.bp_total_sim_us
    else 0.0
  in
  let wi = Omos.Blame.what_if ~knob:Omos.Blame.Batch_off ps in
  let _, actual_total = run_config ~batched:false ~causal:false in
  let err_pct =
    if actual_total > 0.0 then
      100.0
      *. Float.abs (wi.Omos.Blame.wi_predicted_us -. actual_total)
      /. actual_total
    else 0.0
  in
  (* the acceptance bound: within 5%; the gauge gates only the excess
     over it so the committed baseline is a stable 0 *)
  let excess = Float.max 0.0 (err_pct -. 5.0) in
  let overhead_us = Float.abs (elapsed_on -. elapsed_off) in
  Telemetry.Gauge.set "bench.blame.recorded_total_ms" (recorded_total /. 1000.0);
  Telemetry.Gauge.set "bench.blame.predicted_batch_off_ms"
    (wi.Omos.Blame.wi_predicted_us /. 1000.0);
  Telemetry.Gauge.set "bench.blame.actual_batch_off_ms" (actual_total /. 1000.0);
  Telemetry.Gauge.set "bench.blame.whatif_err_pct" err_pct;
  Telemetry.Gauge.set "bench.blame.whatif_excess_err_pct" excess;
  Telemetry.Gauge.set "bench.blame.wait_frac" wait_frac;
  Telemetry.Gauge.set "bench.blame.sim_overhead_us" overhead_us;
  Printf.printf "  %d libraries x %d all-miss rounds, depth 16 (batched)\n\n"
    (List.length metas) rounds;
  Printf.printf "  recorded (batched)            %12.2f ms  wait_frac %.3f\n"
    (recorded_total /. 1000.0) wait_frac;
  Printf.printf "  what-if batch=off (predicted) %12.2f ms\n"
    (wi.Omos.Blame.wi_predicted_us /. 1000.0);
  Printf.printf "  actual batch=off run          %12.2f ms\n"
    (actual_total /. 1000.0);
  Printf.printf "  prediction error              %12.2f %%  (bound 5%%)\n" err_pct;
  Printf.printf "  causal recording overhead     %12.2f us simulated\n" overhead_us;
  if err_pct > 5.0 then
    Printf.printf "  WHAT-IF PREDICTION OUT OF BOUNDS (>5%%)\n"

(* -- E_relink: incremental relinking ------------------------------------------------------- *)

(* One-module edit to a ~1000-module library: the dependence analyzer
   proves every subtree off the edit's root-path reusable, so the
   rebuild respins only the spine — O(depth), not O(library). The
   hidden variant wraps every fourth 16-leaf group in a hide or a
   freeze of a function only that group calls (the interposition shape
   of the paper's Figure 2): those subtrees must be reused as well. *)
let relink_run ~(hidden : bool) =
  let n_modules = 1000 in
  let frag_path i = Printf.sprintf "/relink/m%d.o" i in
  let chunk4 xs =
    let rec go acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if n = 4 then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (n + 1) rest
    in
    go [] [] 0 xs
  in
  let merge group = "(merge " ^ String.concat " " group ^ ")" in
  let wrap g body =
    if (not hidden) || g mod 4 <> 0 then body
    else
      Printf.sprintf "(%s \"^relink_fn_%d$\" %s)"
        (if g / 4 mod 2 = 0 then "hide" else "freeze")
        ((16 * g) + 5) body
  in
  (* a fanout-4 merge tree over the module leaves, as blueprint source;
     level-2 merges cover 16 leaves each *)
  let merge_tree (leaves : string list) : string =
    let level1 = List.map merge (chunk4 leaves) in
    let level2 = List.mapi (fun g c -> wrap g (merge c)) (chunk4 level1) in
    let rec up = function
      | [ one ] -> one
      | xs -> up (List.map merge (chunk4 xs))
    in
    up level2
  in
  let setup () =
    let w = Omos.World.create () in
    let s = w.Omos.World.server in
    (* each module calls the next (an unresolved reference a merge up
       the tree binds), so every link performs real relocation work *)
    for i = 0 to n_modules - 1 do
      let src =
        if i = n_modules - 1 then
          Printf.sprintf "int relink_fn_%d(int x) { return x + %d; }\n" i i
        else
          Printf.sprintf "int relink_fn_%d(int x) { return relink_fn_%d(x) + %d; }\n"
            i (i + 1) i
      in
      Omos.Server.add_fragment s (frag_path i)
        (Minic.Driver.compile ~name:(frag_path i) src)
    done;
    let leaves = List.init n_modules frag_path in
    Omos.Server.register_meta_source s "/relink/lib" (merge_tree leaves);
    w
  in
  (* the simulated clock only charges link-stage work, which the edited
     root image needs in full either way; what incremental relinking
     saves is host-side evaluation (subtree materialization), so this
     experiment times the wall clock *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let w = setup () in
  let s = w.Omos.World.server in
  let _, cold_ms =
    time (fun () -> Omos.Server.build s (Omos.Server.library "/relink/lib"))
  in
  (* the edit: one module's body changes; its fragment is bound at a
     new path and the meta-object re-registered with that one leaf
     swapped — everything else is textually identical *)
  let edited = "int relink_fn_5(int x) { return relink_fn_6(x) + 100005; }\n" in
  Omos.Server.add_fragment s "/relink/m5v2.o"
    (Minic.Driver.compile ~name:"/relink/m5v2.o" edited);
  let leaves' =
    List.init n_modules (fun i -> if i = 5 then "/relink/m5v2.o" else frag_path i)
  in
  let reused0 = Telemetry.Counter.get "impact.reused" in
  let respun0 = Telemetry.Counter.get "impact.respun" in
  let work0 = Omos.Server.stats s in
  let _, register_ms =
    time (fun () ->
        Omos.Server.register_meta_source s "/relink/lib" (merge_tree leaves'))
  in
  let work = Omos.Server.stats s in
  let walked = work.Omos.Server.nodes_walked - work0.Omos.Server.nodes_walked in
  let replayed =
    work.Omos.Server.subtrees_replayed - work0.Omos.Server.subtrees_replayed
  in
  let d =
    match Omos.Server.impact_diff s "/relink/lib" with
    | Some d -> d
    | None -> failwith "relink: re-registration recorded no impact diff"
  in
  let _, incr_ms =
    time (fun () -> Omos.Server.build s (Omos.Server.library "/relink/lib"))
  in
  let reused = Telemetry.Counter.get "impact.reused" - reused0 in
  let respun = Telemetry.Counter.get "impact.respun" - respun0 in
  let spine = List.length d.Analysis.Impact.d_spine in
  (* from-scratch control: same edited graph, memo table disabled and
     the cache (images + memos) dropped first *)
  ignore (Omos.Server.evict_to_budget s ~bytes:0);
  Omos.Server.set_subtree_reuse s false;
  let _, scratch_ms =
    time (fun () -> Omos.Server.build s (Omos.Server.library "/relink/lib"))
  in
  Omos.Server.set_subtree_reuse s true;
  let nodes =
    let n = ref 0 in
    (match Omos.Server.impact_tree s "/relink/lib" with
    | Some t -> Analysis.Impact.iter_infos (fun _ -> incr n) t
    | None -> ());
    !n
  in
  Printf.printf "  library: %d modules, %d analyzed nodes (fanout-4 merge tree%s)\n"
    n_modules nodes
    (if hidden then ", every fourth 16-leaf group under hide/freeze" else "");
  Printf.printf "  cold build:                    %10.2f ms\n" cold_ms;
  Printf.printf "  re-registration (analysis):    %10.2f ms\n" register_ms;
  Printf.printf "  one-module edit, incremental:  %10.2f ms\n" incr_ms;
  Printf.printf "  one-module edit, from scratch: %10.2f ms\n" scratch_ms;
  Printf.printf "  verdicts: %d reused, %d respun (spine %d of %d nodes)\n"
    d.Analysis.Impact.d_reused d.Analysis.Impact.d_respun spine nodes;
  Printf.printf "  rebuild counters: impact.reused +%d, impact.respun +%d\n"
    reused respun;
  Printf.printf "  registration: walked %d nodes, replayed %d subtrees\n" walked
    replayed;
  Printf.printf "  respins bounded by the spine: %s (%d <= %d)\n"
    (if respun <= spine then "yes" else "NO (O(world) respin - regression?)")
    respun spine;
  (* registration replays every subtree off the edit's path from the
     previous walk: it walks the spine and the edited leaf, no more *)
  Printf.printf "  walk bounded by the spine plus its leaf: %s (%d <= %d)\n"
    (if walked <= spine + 1 then "yes" else "NO (O(library) walk - regression?)")
    walked (spine + 1);
  ( n_modules,
    nodes,
    spine,
    reused,
    respun,
    walked,
    (cold_ms, register_ms, incr_ms, scratch_ms) )

let relink () =
  section "E_relink: one-module edit to a 1000-module library";
  let ( n_modules,
        nodes,
        spine,
        reused,
        respun,
        walked,
        (cold_ms, register_ms, incr_ms, scratch_ms) ) =
    relink_run ~hidden:false
  in
  Telemetry.Gauge.set "bench.relink.modules" (float_of_int n_modules);
  Telemetry.Gauge.set "bench.relink.nodes" (float_of_int nodes);
  Telemetry.Gauge.set "bench.relink.spine" (float_of_int spine);
  Telemetry.Gauge.set "bench.relink.reused" (float_of_int reused);
  Telemetry.Gauge.set "bench.relink.respun" (float_of_int respun);
  Telemetry.Gauge.set "bench.relink.rewalked" (float_of_int walked);
  (* wall-clock numbers are host-dependent: keep them out of the gated
     bench.* namespace (compare reports only simulated costs) *)
  Telemetry.Gauge.set "relink.wall.cold_ms" cold_ms;
  Telemetry.Gauge.set "relink.wall.register_ms" register_ms;
  Telemetry.Gauge.set "relink.wall.incr_ms" incr_ms;
  Telemetry.Gauge.set "relink.wall.scratch_ms" scratch_ms;
  Printf.printf "\n  hidden variant:\n";
  let _, _, spine, reused, respun, walked, _ = relink_run ~hidden:true in
  Telemetry.Gauge.set "bench.relink.hidden.spine" (float_of_int spine);
  Telemetry.Gauge.set "bench.relink.hidden.respun" (float_of_int respun);
  Telemetry.Gauge.set "bench.relink.hidden.rewalked" (float_of_int walked);
  (* bench/compare gates every bench.* gauge as lower-is-better, which
     a reuse count is not *)
  Telemetry.Gauge.set "relink.hidden.reused" (float_of_int reused)

(* -- micro benchmarks (bechamel) ----------------------------------------------------------- *)

(* Two set-up instructions, 5000 iterations of sub + jnz, and a halt:
   10,003 instructions. *)
let svm_loop =
  Svm.Encode.assemble
    [
      Svm.Isa.Movi (1, 5000l);
      Svm.Isa.Movi (2, 1l);
      Svm.Isa.Sub (1, 1, 2);
      Svm.Isa.Jnz (1, -16l);
      Svm.Isa.Halt;
    ]

(* Two set-up instructions, 5000 iterations of a counter kept on the
   stack (ld, addi, st, sub, jnz), and a halt: 25,003 instructions,
   two in five of them loads or stores. *)
let svm_ldst_loop =
  Svm.Encode.assemble
    [
      Svm.Isa.Movi (1, 5000l);
      Svm.Isa.Movi (2, 1l);
      Svm.Isa.Ld (3, Svm.Isa.reg_sp, 0l);
      Svm.Isa.Addi (3, 3, 1l);
      Svm.Isa.St (Svm.Isa.reg_sp, 3, 0l);
      Svm.Isa.Sub (1, 1, 2);
      Svm.Isa.Jnz (1, -40l);
      Svm.Isa.Halt;
    ]

(* A fresh CPU for each run of [code] on one address space, as every
   simulated program runs: shared read-only text and a private stack.
   The first run touches the pages; later runs find them touched, so
   each window misses once and serves the rest. *)
let mapped_runner code =
  let phys = Simos.Phys.create () in
  let space =
    Simos.Addr_space.create ~phys ~clock:(Simos.Clock.create ()) ~cost:Simos.Cost.hpux ()
  in
  let text = 0x10000 in
  Simos.Addr_space.map_shared space ~vaddr:text ~bytes:code
    ~code:(Svm.Cpu.translations code)
    ~frames:(Simos.Phys.alloc phys ~bytes:(Bytes.length code))
    ~backing:{ Simos.Addr_space.resident = [||] } ~label:"text" ();
  Simos.Addr_space.map_private space
    ~vaddr:(Simos.Kernel.stack_top - Simos.Kernel.stack_size)
    ~size:Simos.Kernel.stack_size ~label:"stack" ();
  let mem = Simos.Addr_space.mem space in
  fun () ->
    let cpu = Svm.Cpu.create mem in
    cpu.Svm.Cpu.pc <- text;
    Svm.Cpu.set_reg cpu Svm.Isa.reg_sp (Int32.of_int (Simos.Kernel.stack_top - 16));
    ignore (Svm.Cpu.run ~fuel:100_000 cpu)

let micro () =
  section "bechamel micro-benchmarks (real wall-clock, not simulated)";
  let open Bechamel in
  let libc = lazy (List.map snd (Workloads.Libc_gen.objects ())) in
  let ls_objs = lazy (Omos.World.ls_client (Omos.World.create ())) in
  let tests =
    [
      Test.make ~name:"view: rename layer + materialize"
        (Staged.stage (fun () ->
             let o = List.hd (Lazy.force libc) in
             let v =
               Sof.View.push (Sof.View.of_object o)
                 (Sof.View.Rename_defs (fun n -> Some ("x" ^ n)))
             in
             ignore (Sof.View.materialize v)));
      Test.make ~name:"link: ls client against libc"
        (Staged.stage (fun () ->
             ignore
               (Linker.Link.link
                  ~layout:{ Linker.Link.text_base = 0x10000; data_base = 0x40000000 }
                  (Lazy.force ls_objs @ Lazy.force libc))));
      Test.make ~name:"combine: libc partial link"
        (Staged.stage (fun () ->
             ignore (Linker.Link.combine ~name:"libc.o" (Lazy.force libc))));
      Test.make ~name:"blueprint: parse figure 2"
        (Staged.stage (fun () ->
             ignore
               (Blueprint.Mgraph.parse
                  "(hide \"^REAL$\" (merge (restrict \"^m$\" (copy_as \"^m$\" \
                   \"REAL\" (merge /a /b))) /c))")));
      Test.make ~name:"codec: libc section encode+decode"
        (Staged.stage (fun () ->
             let o = List.hd (Lazy.force libc) in
             ignore (Sof.Codec.decode (Sof.Codec.encode o))));
      Test.make ~name:"stubs: 64-entry PLT generation"
        (Staged.stage (fun () ->
             ignore
               (Omos.Stubs.plt_object
                  (List.init 64 (fun i -> Omos.Stubs.import_of_name (Printf.sprintf "f%d" i))))));
      Test.make ~name:"deltablue: chain n=100"
        (Staged.stage (fun () -> ignore (Constraints.Deltablue.chain_test 100)));
      Test.make ~name:"svm: 10k-instruction loop, flat memory"
        (Staged.stage
           (let mem, buf = Svm.Cpu.flat_mem 0x1000 in
            Bytes.blit svm_loop 0 buf 0 (Bytes.length svm_loop);
            fun () ->
              let cpu = Svm.Cpu.create mem in
              ignore (Svm.Cpu.run ~fuel:100_000 cpu)));
      Test.make ~name:"svm: 10k-instruction loop, mapped memory"
        (Staged.stage (mapped_runner svm_loop));
      Test.make ~name:"svm: load/store loop, mapped memory"
        (Staged.stage (mapped_runner svm_ldst_loop));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let grouped = Test.make_grouped ~name:"omos" tests in
  let results = benchmark grouped in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-42s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    results

(* -- driver ------------------------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: bench/main.exe \
     [table1|reorder|hotspots|memory|cache|constraints|deltablue|linktime|sweep|sharing|dispatch|pipeline|blame|relink|micro|all]"

let () =
  let experiments =
    [
      ("table1", table1);
      ("reorder", reorder);
      ("hotspots", hotspots);
      ("memory", memory);
      ("cache", cache);
      ("constraints", constraints);
      ("deltablue", deltablue);
      ("linktime", linktime);
      ("sweep", sweep);
      ("sharing", sharing);
      ("dispatch", dispatch);
      ("pipeline", pipeline);
      ("blame", blame);
      ("relink", relink);
      ("micro", micro);
    ]
  in
  (* Each experiment runs against a zeroed registry and leaves a
     BENCH_<name>.json snapshot (schema omos.metrics/1): the counters
     the run accumulated plus the gauges the tables record. *)
  let run_one (name, f) =
    Telemetry.reset ();
    (* journal every build so the snapshot can carry construction
       digests; journaling charges nothing to the simulated clock, so
       the measured numbers are unchanged *)
    Telemetry.Provenance.set_enabled true;
    f ();
    Telemetry.Provenance.set_enabled false;
    (* fold the provenance digests of everything built during the run
       into the snapshot, next to (not inside) the omos.metrics/1
       registry dump *)
    let metrics = Telemetry.Json.parse (Telemetry.Export.metrics_json ()) in
    let snapshot =
      match metrics with
      | Telemetry.Json.Obj fields ->
          Telemetry.Json.Obj
            (fields
            @ [
                ( "provenance",
                  Telemetry.Json.Obj
                    (List.map
                       (fun (owner, digest) -> (owner, Telemetry.Json.Str digest))
                       (Telemetry.Provenance.built_digests ())) );
              ])
      | other -> other
    in
    let oc = open_out (Printf.sprintf "BENCH_%s.json" name) in
    output_string oc (Telemetry.Json.to_string snapshot);
    output_string oc "\n";
    close_out oc
  in
  let run_all () = List.iter run_one experiments in
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> run_all ()
  | [ _; name ] -> (
      match List.assoc_opt name experiments with
      | Some f -> run_one (name, f)
      | None -> usage ())
  | _ -> usage ()
