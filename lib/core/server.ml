(** The OMOS server.

    A persistent process (here: a persistent OCaml value living across
    simulated program invocations) that owns the namespace, the image
    cache, the address-space constraint arenas, and the blueprint
    evaluation environment. Program linking and loading are the special
    case of generic object instantiation: clients name a meta-object,
    the server evaluates its m-graph (honouring specializations),
    places the result with the constraint system, caches the mappable
    image, and maps it into client tasks. *)

exception Server_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Server_error s)) fmt

(* Address-space conventions (cf. Figure 1's "T" 0x100000
   "D" 0x40200000): libraries live in the shared arenas; client
   programs at fixed low/high bases outside them. *)
let lib_text_lo = 0x00100000
let lib_text_hi = 0x03FF0000
let lib_data_lo = 0x40000000
let lib_data_hi = 0x5FFF0000
let client_text_base = 0x04000000
let client_data_base = 0x68000000

type work_stats = {
  mutable links : int; (* full links performed *)
  mutable relocs : int; (* relocations applied by the server *)
  mutable source_compiles : int;
  mutable instantiations : int;
}

(** A recorded placement conflict: an object wanted an address it could
    not have. "OMOS could easily record the conflicts found, and
    occasionally the system manager could feed that data into OMOS'
    constraint system to determine better placements" (§4.1). *)
type conflict = {
  c_owner : string;
  c_seg : Blueprint.Mgraph.seg;
  c_wanted : Constraints.Placement.pref;
  c_got : int;
}

(* One node of the current reuse plan: the {!Analysis.Impact} interface
   digest of a fully modeled graph node, listed (in [t.impact_plan])
   under the node's construction digest so evaluation can find it in
   O(1) without re-walking the subtree. *)
type plan_entry = {
  pe_digest : string; (* interface digest (memo key) *)
  pe_path : string option;
      (* [Some p]: the digest embeds occurrence keys (a live
         freeze/hide/show below mints aliases named after where it
         sits), so the entry answers only the node at path [p]; [None]:
         it answers the node wherever it occurs *)
}

(* One request moving through the staged pipeline (parse → lint → eval
   → place → link → map). The job carries everything a stage hands the
   next one, so stages of different requests can interleave freely. *)
type job = {
  jt : int; (* ticket = telemetry request id, assigned at submission *)
  jclient : int;
  jreq : request;
  jsubmit_us : float;
  mutable jwork_us : float; (* simulated time spent inside stages *)
  mutable jhit : bool;
  mutable jname : string;
  mutable jkey : string; (* cache key, fixed at parse *)
  mutable jgraph : Blueprint.Mgraph.node option;
  mutable jeval : Blueprint.Mgraph.result option;
  mutable jtext_size : int;
  mutable jdata_size : int;
  mutable jtdec : Constraints.Placement.decision option;
  mutable jddec : Constraints.Placement.decision option;
  mutable jframe : Telemetry.Provenance.open_frame option;
      (* the suspended binding-journal frame between stages *)
  mutable jreacquire_conflict : int option;
      (* wanted text base of a failed cache-hit reacquisition *)
  mutable jpark_us : float; (* when the job last parked (batch/coalesce) *)
  mutable jbatch_us : float; (* wait at the place barrier until flush *)
  mutable jcoalesce_us : float; (* wait on a leader's in-flight build *)
  mutable jpending_coalesced : int;
      (* followers coalesced onto this job before its journal frame
         opened; replayed as Coalesced events when lint opens it *)
  mutable joutcome : (response, exn) result option;
}

and response = {
  built : built;
  cache_hit : bool; (* served from the image cache, no link performed *)
  sim_us : float; (* submission to completion, queue wait included *)
  queue_us : float;
      (* admission + scheduler wait: the part of [sim_us] spent neither
         working nor in the two typed waits below *)
  batch_us : float; (* wait parked at the place barrier *)
  coalesce_us : float; (* wait on another request's in-flight build *)
}

and built = { entry : Cache.entry; key : string }

and target =
  | Library of {
      path : string;
      spec : (string * Blueprint.Mgraph.value list) option;
    }
  | Static of {
      name : string;
      graph : Blueprint.Mgraph.node;
      entry_symbol : string option;
    }

and request = { target : target; externals : Linker.Image.t list }

exception Overload of string

type t = {
  ns : Namespace.t;
  cache : Cache.t;
  text_arena : Constraints.Placement.t;
  data_arena : Constraints.Placement.t;
  residency : Residency.t; (* joint owner of cache <-> arena coherence *)
  kernel : Simos.Kernel.t;
  env : Blueprint.Mgraph.env;
  work : work_stats;
  lints : (string, Analysis.Lint.report) Hashtbl.t;
      (* registration-time findings per meta-object path *)
  impact_trees : (string, Analysis.Impact.tree) Hashtbl.t;
      (* registration-time dependence analysis per meta-object path *)
  impact_diffs : (string, Analysis.Impact.diff) Hashtbl.t;
      (* verdicts of the latest re-registration of each meta path *)
  impact_plan : (string, plan_entry list) Hashtbl.t;
      (* graph-node digest -> reuse plan, rebuilt on registration *)
  mutable subtree_reuse : bool; (* consult the memo table during eval? *)
  mutable conflicts : conflict list;
  (* charge server-side build work to the simulated clock? The paper's
     common case is install-time generation, so misses normally charge;
     benches can turn it off to isolate steady state. *)
  mutable charge_build_work : bool;
  (* -- the staged request pipeline -- *)
  sched : Simos.Sched.t;
  jobs : (int, job) Hashtbl.t; (* ticket -> job (pruned on delivery) *)
  mutable inflight : int;
  mutable queue_limit : int; (* admission control: max in-flight *)
  mutable batch_place : bool; (* solve queued placements as one pass? *)
  mutable place_q : job list; (* parked at the place barrier, newest-first *)
  building : (string, int) Hashtbl.t; (* cache keys being built -> ticket *)
  mutable waiters : (string * job) list; (* coalesced onto an in-flight build *)
}

(* Request-path telemetry. *)
let tm_instantiations = Telemetry.Counter.make "server.instantiations"
let tm_arena_conflicts = Telemetry.Counter.make "server.arena_conflicts"
let tm_instantiate_us = Telemetry.Histogram.make "server.us.instantiate"
let tm_lint_errors = Telemetry.Counter.make "lint.errors"
let tm_lint_warnings = Telemetry.Counter.make "lint.warnings"
let tm_impact_reused = Telemetry.Counter.make "impact.reused"
let tm_impact_respun = Telemetry.Counter.make "impact.respun"
let tm_eval_us = Telemetry.Histogram.make "server.us.eval"
let tm_link_us = Telemetry.Histogram.make "server.us.link"

(* Pipeline telemetry: stage latencies, queue depths, batching. *)
let tm_queue_us = Telemetry.Histogram.make "server.us.queue"
let tm_batch_wait_us = Telemetry.Histogram.make "server.us.batch_wait"
let tm_coalesce_wait_us = Telemetry.Histogram.make "server.us.coalesce_wait"
let tm_parse_us = Telemetry.Histogram.make "server.us.parse"
let tm_place_us = Telemetry.Histogram.make "server.us.place"
let tm_batch_size = Telemetry.Histogram.make "place.batch_size"
let tm_depth = Telemetry.Histogram.make "pipeline.depth.inflight"
let tm_submitted = Telemetry.Counter.make "pipeline.submitted"
let tm_completed = Telemetry.Counter.make "pipeline.completed"
let tm_coalesced = Telemetry.Counter.make "pipeline.coalesced"
let tm_overloads = Telemetry.Counter.make "server.overloads"

(* A request that spent more than this share of its latency waiting
   (rather than working) leaves a Note in the flight ring for triage. *)
let wait_share_note_threshold = 0.5

(* -- construction --------------------------------------------------------- *)

let create ~(kernel : Simos.Kernel.t) ?(faults : Residency.faults option) () : t
    =
  let ns = Namespace.create () in
  let env =
    Blueprint.Mgraph.make_env
      ~resolve:(fun path ->
        match Namespace.lookup ns path with
        | Some (Namespace.Fragment o) -> Blueprint.Mgraph.Leaf o
        | Some (Namespace.Meta m) -> Blueprint.Meta.effective_graph m ~spec:None
        | Some (Namespace.Directory _) ->
            raise (Blueprint.Mgraph.Eval_error (path ^ " is a directory"))
        | None ->
            raise (Blueprint.Mgraph.Eval_error ("unknown server object " ^ path)))
      ()
  in
  (* Telemetry timestamps follow the simulated clock from here on, so
     spans and phase histograms are in simulated microseconds. *)
  Telemetry.set_clock (fun () -> Simos.Clock.elapsed kernel.Simos.Kernel.clock);
  let cache = Cache.create () in
  let text_arena =
    Constraints.Placement.create ~region_lo:lib_text_lo ~region_hi:lib_text_hi ()
  in
  let data_arena =
    Constraints.Placement.create ~region_lo:lib_data_lo ~region_hi:lib_data_hi ()
  in
  let residency =
    Residency.create ~cache ~text_arena ~data_arena
      ~clock:(fun () -> Simos.Clock.elapsed kernel.Simos.Kernel.clock)
      ?faults ()
  in
  (* snapshot metadata: record the pipeline knobs so an exported
     omos.metrics/1 run is reproducible from the snapshot alone
     (Runinfo survives Telemetry.reset) *)
  Telemetry.Runinfo.set "sched_seed" (Telemetry.I 0);
  Telemetry.Runinfo.set "batch_placement" (Telemetry.B true);
  Telemetry.Runinfo.set "queue_limit" (Telemetry.I 64);
  let sched = Simos.Sched.create () in
  Simos.Sched.set_time_source sched (fun () ->
      Simos.Clock.elapsed kernel.Simos.Kernel.clock);
  (* bridge scheduler dispatches into the causal graph: stage labels
     are "r<ticket>:<stage>", so the ticket doubles as the causal
     request id (no-op while causal recording is off) *)
  Simos.Sched.set_on_dispatch sched
    (Some
       (fun ~label ~queued_us ~started_us ->
         if Telemetry.Causal.is_enabled () then
           match String.index_opt label ':' with
           | Some i when i > 1 && label.[0] = 'r' -> (
               match int_of_string_opt (String.sub label 1 (i - 1)) with
               | Some id ->
                   let stage =
                     String.sub label (i + 1) (String.length label - i - 1)
                   in
                   Telemetry.Causal.dispatched ~id ~stage ~queued:queued_us
                     ~started:started_us
               | None -> ())
           | _ -> ()));
  {
    ns;
    cache;
    text_arena;
    data_arena;
    residency;
    kernel;
    env;
    work = { links = 0; relocs = 0; source_compiles = 0; instantiations = 0 };
    lints = Hashtbl.create 16;
    impact_trees = Hashtbl.create 16;
    impact_diffs = Hashtbl.create 16;
    impact_plan = Hashtbl.create 64;
    subtree_reuse = true;
    conflicts = [];
    charge_build_work = true;
    sched;
    jobs = Hashtbl.create 64;
    inflight = 0;
    queue_limit = 64;
    batch_place = true;
    place_q = [];
    building = Hashtbl.create 16;
    waiters = [];
  }

(* -- read-only views ------------------------------------------------------- *)

(** Immutable snapshot of the work counters. *)
type stats = {
  links : int;
  relocs : int;
  source_compiles : int;
  instantiations : int;
}

let stats (t : t) : stats =
  {
    links = t.work.links;
    relocs = t.work.relocs;
    (* source compiles happen inside the blueprint evaluator; one server
       per process, so the global counter is this server's count *)
    source_compiles = Telemetry.Counter.get "blueprint.source_compiles";
    instantiations = t.work.instantiations;
  }

let namespace (t : t) : Namespace.t = t.ns
let cache_stats (t : t) : Cache.stats = Cache.stats t.cache
let kernel (t : t) : Simos.Kernel.t = t.kernel
let text_arena (t : t) : Constraints.Placement.t = t.text_arena
let data_arena (t : t) : Constraints.Placement.t = t.data_arena
let residency (t : t) : Residency.t = t.residency
let set_charge_build_work (t : t) (b : bool) : unit = t.charge_build_work <- b

let set_self_check (t : t) (b : bool) : unit =
  Residency.set_self_check t.residency b

let add_fragment (t : t) (path : string) (o : Sof.Object_file.t) : unit =
  Namespace.bind_fragment t.ns path o

(* Result-returning twin of the evaluation env's resolve, for the
   symbol-flow analyzer (which must never raise). *)
let resolve_graph (t : t) (path : string) :
    (Blueprint.Mgraph.node, string) result =
  match Namespace.lookup t.ns path with
  | Some (Namespace.Fragment o) -> Ok (Blueprint.Mgraph.Leaf o)
  | Some (Namespace.Meta m) -> Ok (Blueprint.Meta.effective_graph m ~spec:None)
  | Some (Namespace.Directory _) -> Error (path ^ " is a directory")
  | None -> Error ("unknown server object " ^ path)

(* Enter one analyzed node into the reuse plan. Leaves are free to
   re-make and unmodeled nodes can never be proven reusable. An
   identical subtree reached twice keeps one keyed entry per
   occurrence: each mints its own aliases. *)
let plan_node (t : t) (i : Analysis.Impact.info) : unit =
  match i.Analysis.Impact.i_node with
  | Blueprint.Mgraph.Leaf _ -> ()
  | n when i.Analysis.Impact.i_modeled ->
      let pe =
        {
          pe_digest = i.Analysis.Impact.i_digest;
          pe_path =
            (if i.Analysis.Impact.i_keyed then Some i.Analysis.Impact.i_path
             else None);
        }
      in
      let k = Blueprint.Mgraph.digest n in
      let others =
        Option.value (Hashtbl.find_opt t.impact_plan k) ~default:[]
        |> List.filter (fun e -> e.pe_path <> pe.pe_path)
      in
      Hashtbl.replace t.impact_plan k (pe :: others)
  | _ -> ()

(* Re-run the analysis over every bound meta-object — one walk per meta
   yields its lint report and its {!Analysis.Impact} tree — and rebuild
   the reuse plan from the trees. Re-analyzing the whole namespace (not
   just the edited meta) keeps plan entries fresh for metas that
   reference the edited path through [Name] nodes: their interface
   digests move with the content they resolve to. The analysis is
   abstract (symbol flow only, no view materialized), so this is cheap
   relative to a single link. Memo entries the new plan no longer names
   (the spine an edit replaced) are dropped, so the memo table tracks
   the bound blueprints rather than their edit history. Returns
   [path]'s lint report. *)
let refresh_analysis (t : t) (path : string) : Analysis.Lint.report option =
  Hashtbl.reset t.impact_plan;
  let report =
    List.fold_left
      (fun report p ->
        match Namespace.lookup t.ns p with
        | Some (Namespace.Meta m) ->
            let tree, lint =
              Analysis.Impact.analyze_and_lint ~resolve:(resolve_graph t)
                (Blueprint.Meta.effective_graph m ~spec:None)
            in
            Hashtbl.replace t.impact_trees p tree;
            Analysis.Impact.iter_infos (plan_node t) tree;
            if p = path then Some lint else report
        | _ -> report)
      None (Namespace.all_metas t.ns)
  in
  let planned = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ entries ->
      List.iter (fun e -> Hashtbl.replace planned e.pe_digest ()) entries)
    t.impact_plan;
  Cache.memo_retain t.cache (Hashtbl.mem planned);
  report

(** Bind a meta-object and lint it: the symbol-flow analyzer runs at
    registration (no view materialized, no simulated cost charged), the
    finding counts feed the [lint.errors]/[lint.warnings] counters, and
    the findings replay into the provenance journal of every build of
    the meta. Registration never fails on findings — a broken blueprint
    is diagnosed again, fatally, when instantiated.

    Registration also refreshes the incremental-relinking plan: the
    {!Analysis.Impact} tree of every bound meta is recomputed, and if
    [path] was already bound the old/new trees are diffed — the next
    build of an edited blueprint then re-materializes only the respun
    spine, answering provably-equivalent subtrees from the memo
    table. *)
let register_meta (t : t) (path : string) (m : Blueprint.Meta.t) : unit =
  let old_tree = Hashtbl.find_opt t.impact_trees path in
  Namespace.bind_meta t.ns path m;
  (match refresh_analysis t path with
  | Some report ->
      Hashtbl.replace t.lints path report;
      let errs = Analysis.Lint.errors report
      and warns = Analysis.Lint.warnings report in
      if errs > 0 then Telemetry.Counter.incr ~by:errs tm_lint_errors;
      if warns > 0 then Telemetry.Counter.incr ~by:warns tm_lint_warnings
  | None -> ());
  match (old_tree, Hashtbl.find_opt t.impact_trees path) with
  | Some ot, Some nt ->
      Hashtbl.replace t.impact_diffs path
        (Analysis.Impact.diff ~old_tree:ot ~new_tree:nt)
  | _ -> ()

(** The registration-time lint report of a bound meta-object. *)
let lint_report (t : t) (path : string) : Analysis.Lint.report option =
  Hashtbl.find_opt t.lints path

(** The registration-time dependence analysis of a bound meta-object. *)
let impact_tree (t : t) (path : string) : Analysis.Impact.tree option =
  Hashtbl.find_opt t.impact_trees path

(** The reuse/respin verdicts computed the last time [path] was
    re-registered over an existing binding. *)
let impact_diff (t : t) (path : string) : Analysis.Impact.diff option =
  Hashtbl.find_opt t.impact_diffs path

(** Toggle incremental relinking (default on): when off, evaluation
    never consults or fills the per-node memo table — the knob the
    incremental-vs-from-scratch differential oracle flips. *)
let set_subtree_reuse (t : t) (b : bool) : unit = t.subtree_reuse <- b

let subtree_reuse (t : t) : bool = t.subtree_reuse

(** Register a meta-object from blueprint source text — parse, then
    {!register_meta}, so registration-time lint behavior is uniform no
    matter how the meta arrives. *)
let register_meta_source (t : t) (path : string) (src : string) : unit =
  register_meta t path (Blueprint.Meta.parse ~name:path src)

(** Load a meta-object source file from the simulated filesystem and
    bind it at [ns_path] — meta-objects are ordinary files ("the
    meta-objects and executable fragments providing the contents can be
    stored anywhere", §5). Routes through {!register_meta_source}. *)
let load_meta_file (t : t) ~(fs_path : string) ~(ns_path : string) : unit =
  let src = Bytes.to_string (Simos.Fs.read_file t.kernel.Simos.Kernel.fs fs_path) in
  register_meta_source t ns_path src

(** Load an object file (either backend format) from the simulated
    filesystem and bind it at [ns_path]. *)
let load_fragment_file (t : t) ~(fs_path : string) ~(ns_path : string) : unit =
  let bytes = Simos.Fs.read_file t.kernel.Simos.Kernel.fs fs_path in
  add_fragment t ns_path (Sof.Bfd.decode bytes)

let find_meta (t : t) (path : string) : Blueprint.Meta.t =
  match Namespace.lookup t.ns path with
  | Some (Namespace.Meta m) -> m
  | Some _ -> fail "%s is not a meta-object" path
  | None -> fail "unknown meta-object %s" path

(* -- evaluation & linking -------------------------------------------------- *)

(* The subtree-reuse hooks evaluation runs under. Lookup: a planned
   node may be answered from the memo table. Store: every freshly
   materialized planned node enters it (first materialization of a
   digest wins). A keyed entry answers only its own occurrence, so the
   path is rendered only when no occurrence-free entry exists. *)
let memo_hooks (t : t) : Blueprint.Mgraph.memo_hooks =
  let plan_of occ n =
    match n with
    | Blueprint.Mgraph.Leaf _ -> None
    | n -> (
        match Hashtbl.find_opt t.impact_plan (Blueprint.Mgraph.digest n) with
        | None -> None
        | Some entries -> (
            match List.find_opt (fun e -> e.pe_path = None) entries with
            | Some _ as anywhere -> anywhere
            | None ->
                let here = Some (Blueprint.Mgraph.path occ) in
                List.find_opt (fun e -> e.pe_path = here) entries))
  in
  {
    lookup =
      (fun occ n ->
        match plan_of occ n with
        | Some pe -> (
            match Cache.memo_find t.cache pe.pe_digest with
            | Some me ->
                Telemetry.Counter.incr tm_impact_reused;
                Telemetry.Provenance.record_reused ~digest:pe.pe_digest;
                Some me.Cache.m_result
            | None -> None)
        | None -> None);
    store =
      (fun occ n r ->
        match plan_of occ n with
        | Some pe ->
            Telemetry.Counter.incr tm_impact_respun;
            Cache.memo_insert t.cache ~digest:pe.pe_digest r
        | None -> ());
  }

let eval (t : t) (node : Blueprint.Mgraph.node) : Blueprint.Mgraph.result =
  let t0 = Telemetry.now_us () in
  let r =
    if t.subtree_reuse && Hashtbl.length t.impact_plan > 0 then
      Blueprint.Mgraph.eval_memo t.env (memo_hooks t) node
    else Blueprint.Mgraph.eval t.env node
  in
  Telemetry.Histogram.observe tm_eval_us (Telemetry.now_us () -. t0);
  r

(* Charge the cost of a full link to the simulated clock: this is the
   work a cache hit avoids. *)
let charge_link (t : t) (stats : Linker.Link.stats) : unit =
  t.work.links <- t.work.links + 1;
  t.work.relocs <- t.work.relocs + stats.Linker.Link.relocs_applied;
  if t.charge_build_work then begin
    let cost = t.kernel.Simos.Kernel.cost in
    Simos.Kernel.charge_sys t.kernel
      (cost.Simos.Cost.reloc_apply *. float_of_int stats.Linker.Link.relocs_applied);
    Simos.Kernel.charge_sys t.kernel
      (cost.Simos.Cost.symbol_lookup *. float_of_int stats.Linker.Link.symbols_resolved)
  end

(* Human-readable placement decision for the provenance record. *)
let placement_summary
    (parts : (string * Constraints.Placement.decision option) list) : string =
  String.concat " "
    (List.map
       (fun (seg, dec) ->
         match dec with
         | None -> seg
         | Some (d : Constraints.Placement.decision) ->
             Printf.sprintf "%s@0x%08x%s%s" seg d.Constraints.Placement.base
               (if d.Constraints.Placement.reused then " (reused)" else "")
               (match d.Constraints.Placement.satisfied with
               | Some p ->
                   Format.asprintf " satisfying %a" Constraints.Placement.pp_pref p
               | None -> ""))
       parts)

(* Sizes a module will occupy, for placement before linking. *)
let module_sizes (m : Jigsaw.Module_ops.t) : int * int =
  let frags = Jigsaw.Module_ops.fragments m in
  let text =
    List.fold_left (fun a (o : Sof.Object_file.t) -> a + Bytes.length o.text) 0 frags
  in
  let data =
    List.fold_left
      (fun a (o : Sof.Object_file.t) ->
        ((a + Bytes.length o.data + 3) / 4 * 4) + o.bss_size)
      0 frags
  in
  (text, data)

(* Collect placement preferences for one segment out of the evaluated
   constraints. *)
let prefs_for (seg : Blueprint.Mgraph.seg) (cs : Blueprint.Mgraph.constraint_pref list)
    : (int * Constraints.Placement.pref) list =
  List.filter_map
    (fun (c : Blueprint.Mgraph.constraint_pref) ->
      if c.Blueprint.Mgraph.seg = seg then Some (c.priority, c.pref) else None)
    cs

(** Has this built's cache entry been evicted since it was handed out?
    Stale builts must be re-requested before mapping. *)
let built_evicted (b : built) : bool =
  b.entry.Cache.residency = Cache.Evicted

(* Place and link an evaluated module into the shared arenas (library
   path). Reuses a cached placement when the constraint system allows —
   the paper's "highly desired" reuse constraint. [r] is forced only
   when no cached placement can be revived, so warm hits never
   re-evaluate the graph, and rebuilds always link the real module. *)
let link_in_arena (t : t) ~(name : string) ~(cache_key : string)
    ?(externals = []) (r : Blueprint.Mgraph.result Lazy.t) : built =
  let build_fresh () =
    (* open the binding-journal frame before the graph is forced, so
       every jigsaw operator and the link below record into it *)
    Telemetry.Provenance.begin_build ();
    (* registration-time lint findings travel with every build of the
       meta, so explain/trace surface them next to binding decisions *)
    (match Hashtbl.find_opt t.lints name with
    | Some (rep : Analysis.Lint.report) ->
        List.iter
          (fun (f : Analysis.Lint.finding) ->
            Telemetry.Provenance.record_lint ~code:f.Analysis.Lint.code
              ~severity:
                (Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
              ~path:f.Analysis.Lint.path f.Analysis.Lint.message)
          rep.Analysis.Lint.findings
    | None -> ());
    let r = Lazy.force r in
    let text_size, data_size = module_sizes r.Blueprint.Mgraph.m in
    (* record when the strongest preference could not be honoured; the
       residency fault hook may block that preference first *)
    let place_noting arena seg size prefs =
      Residency.with_place_conflict t.residency ~arena ~prefs @@ fun () ->
      let dec = Constraints.Placement.place arena ~size ~owner:name ~prefs () in
      (match List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs with
      | (_, wanted) :: _ when dec.Constraints.Placement.satisfied <> Some wanted ->
          Telemetry.Counter.incr tm_arena_conflicts;
          t.conflicts <-
            { c_owner = name; c_seg = seg; c_wanted = wanted;
              c_got = dec.Constraints.Placement.base }
            :: t.conflicts
      | _ -> ());
      dec
    in
    let tdec =
      place_noting t.text_arena Blueprint.Mgraph.Seg_text (max text_size 1)
        (prefs_for Blueprint.Mgraph.Seg_text r.Blueprint.Mgraph.constraints)
    in
    let ddec =
      place_noting t.data_arena Blueprint.Mgraph.Seg_data (max data_size 1)
        (prefs_for Blueprint.Mgraph.Seg_data r.Blueprint.Mgraph.constraints)
    in
    let t0 = Telemetry.now_us () in
    (* the link and its simulated-cost charges share one span, so the
       profiler attributes the whole link phase to "server.link" *)
    let img, _lstats =
      Telemetry.with_span "server.link" @@ fun () ->
      let img, lstats =
        Linker.Link.link ~externals ~allow_undefined:true
          ~layout:
            {
              Linker.Link.text_base = tdec.Constraints.Placement.base;
              data_base = ddec.Constraints.Placement.base;
            }
          (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
      in
      charge_link t lstats;
      (img, lstats)
    in
    Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
    let provenance =
      Telemetry.Provenance.capture ~key:cache_key
        ~text_base:tdec.Constraints.Placement.base
        ~data_base:ddec.Constraints.Placement.base
        ~placement:
          (placement_summary [ ("text", Some tdec); ("data", Some ddec) ])
        ~generation:(Cache.generation t.cache) ()
    in
    Telemetry.Provenance.note_built ~name provenance;
    let e =
      Cache.insert t.cache ~key:cache_key
        ~text_base:tdec.Constraints.Placement.base
        ~data_base:ddec.Constraints.Placement.base ~provenance
        { img with Linker.Image.name }
    in
    Residency.note_placed t.residency e;
    { entry = e; key = cache_key ^ "@" ^ Linker.Image.digest img }
  in
  let acceptable = Residency.acceptable t.residency ~owner:name in
  match Cache.find t.cache cache_key ~acceptable with
  | Some e -> (
      (* re-establish the reservation of the revived placement *)
      match Residency.reacquire t.residency ~owner:name e with
      | Ok () -> { entry = e; key = cache_key ^ "@" ^ Linker.Image.digest e.Cache.image }
      | Error _conflicting ->
          (* the range was taken between the acceptability check and
             the reservation (or a reserve fault fired): a placement
             conflict — rebuild as an alternate placement and record
             where the image wanted to be vs. where it went *)
          let b = build_fresh () in
          Telemetry.Counter.incr tm_arena_conflicts;
          t.conflicts <-
            {
              c_owner = name;
              c_seg = Blueprint.Mgraph.Seg_text;
              c_wanted = Constraints.Placement.At e.Cache.text_base;
              c_got = b.entry.Cache.text_base;
            }
            :: t.conflicts;
          b)
  | None ->
      (* stale candidates whose reservations are gone drop to Evicted
         so they can never shadow the fresh construction *)
      List.iter
        (fun e -> ignore (Residency.demote_if_lost t.residency e))
        (Cache.candidates t.cache cache_key);
      build_fresh ()

(** Build (or fetch) the image of a {e library} meta-object: fully
    bound, placed by the constraint system, cached, shared. Undefined
    symbols are allowed (libraries may reference client symbols — the
    paper's "furthest downstream" discussion) unless [externals]
    satisfy them. *)
let build_library_raw (t : t) ~(path : string)
    ?(spec : (string * Blueprint.Mgraph.value list) option) ?(externals = []) () :
    built =
  let meta = find_meta t path in
  let graph = Blueprint.Meta.effective_graph meta ~spec in
  let cache_key =
    "lib:" ^ path ^ ":" ^ Blueprint.Mgraph.digest graph
    ^ String.concat "" (List.map (fun i -> ":" ^ Linker.Image.digest i) externals)
  in
  let r =
    lazy
      (t.work.instantiations <- t.work.instantiations + 1;
       eval t graph)
  in
  link_in_arena t ~name:path ~cache_key ~externals r

(** Build (or fetch) a fully static image of an arbitrary graph at the
    client base addresses — generic instantiation (also the static
    scheme and the interposition examples). *)
let build_static_raw (t : t) ~(name : string) ?(entry_symbol : string option)
    ?(externals = []) (graph : Blueprint.Mgraph.node) : built =
  let cache_key =
    "static:" ^ name ^ ":" ^ Blueprint.Mgraph.digest graph
    ^ String.concat "" (List.map (fun i -> ":" ^ Linker.Image.digest i) externals)
  in
  match Cache.find t.cache cache_key ~acceptable:(fun _ -> true) with
  | Some e -> { entry = e; key = cache_key ^ "@" ^ Linker.Image.digest e.Cache.image }
  | None ->
      Telemetry.Provenance.begin_build ();
      t.work.instantiations <- t.work.instantiations + 1;
      let r = eval t graph in
      let t0 = Telemetry.now_us () in
      let img, _lstats =
        Telemetry.with_span "server.link" @@ fun () ->
        let img, lstats =
          Linker.Link.link ?entry:entry_symbol ~externals
            ~layout:
              { Linker.Link.text_base = client_text_base; data_base = client_data_base }
            (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
        in
        charge_link t lstats;
        (img, lstats)
      in
      Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
      let provenance =
        Telemetry.Provenance.capture ~key:cache_key ~text_base:client_text_base
          ~data_base:client_data_base
          ~placement:
            (Printf.sprintf "static text@0x%08x data@0x%08x" client_text_base
               client_data_base)
          ~generation:(Cache.generation t.cache) ()
      in
      Telemetry.Provenance.note_built ~name provenance;
      let e =
        Cache.insert t.cache ~key:cache_key ~text_base:client_text_base
          ~data_base:client_data_base ~provenance
          { img with Linker.Image.name }
      in
      Residency.note_static t.residency e;
      { entry = e; key = cache_key ^ "@" ^ Linker.Image.digest img }

(* -- the unified request API ------------------------------------------------ *)

let library ?spec ?(externals = []) (path : string) : request =
  { target = Library { path; spec }; externals }

let static ?entry_symbol ?(externals = []) ~(name : string)
    (graph : Blueprint.Mgraph.node) : request =
  { target = Static { name; graph; entry_symbol }; externals }

let target_label = function
  | Library l -> "lib:" ^ l.path
  | Static s -> "static:" ^ s.name

(* -- the staged pipeline ----------------------------------------------------- *)

(* Stages run as cooperative scheduler tasks; a job's stages always run
   in order, but stages of different jobs interleave. Every stage
   execution resumes the job's request context (so spans, counters,
   faults recorded inside carry its (client, ticket)), accumulates the
   simulated time it spent into [jwork_us], and records a stage
   transition in the flight recorder. *)

type ticket = int

let ticket_id (tk : ticket) : int = tk

let stage_transition (job : job) (stage : string) : unit =
  Telemetry.Flight.record
    ~detail:(target_label job.jreq.target)
    Telemetry.Flight.Transition
    ("pipeline." ^ stage)

(* Finish a job (success or error): deliver the outcome, release the
   build-key claim, and wake coalesced waiters so they re-enter parse
   (and now find the cache populated — or rebuild after a failure). *)
let rec finish (t : t) (job : job) (outcome : (response, exn) result) : unit =
  job.joutcome <- Some outcome;
  t.inflight <- t.inflight - 1;
  Telemetry.Counter.incr tm_completed;
  (match Hashtbl.find_opt t.building job.jkey with
  | Some owner when owner = job.jt ->
      Hashtbl.remove t.building job.jkey;
      let woken, rest =
        List.partition (fun (k, _) -> k = job.jkey) t.waiters
      in
      t.waiters <- rest;
      let now = Telemetry.now_us () in
      List.iter
        (fun (_, w) ->
          w.jcoalesce_us <- w.jcoalesce_us +. Float.max 0.0 (now -. w.jpark_us);
          Telemetry.Causal.unpark ~id:w.jt ~at:now ();
          spawn_stage t w "parse" (stage_parse t w))
        woken
  | _ -> ());
  Telemetry.Request.end_detached ~client:job.jclient ~id:job.jt "instantiate"

(* Run one stage body under the job's request context, trapping errors
   into the job's outcome. *)
and run_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  Telemetry.Request.resume ~client:job.jclient ~id:job.jt "instantiate";
  stage_transition job stage;
  let t0 = Telemetry.now_us () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Telemetry.now_us () in
      let dt = t1 -. t0 in
      job.jwork_us <- job.jwork_us +. dt;
      Telemetry.Causal.segment ~id:job.jt ~stage ~t0 ~t1 ();
      if stage = "parse" then Telemetry.Histogram.observe tm_parse_us dt;
      Telemetry.Request.suspend ())
    (fun () -> try f () with e -> finish t job (Error e))

and spawn_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  Simos.Sched.spawn t.sched
    ~label:(Printf.sprintf "r%d:%s" job.jt stage)
    (fun () -> run_stage t job stage f)

(* map: the last stage — the built image is mappable; seal the
   response, observe the request-level metrics, and run the residency
   self-check exactly as the synchronous path always did. *)
and stage_map (t : t) (job : job) (b : built) () : unit =
  let done_us = Telemetry.now_us () in
  let sim_us = done_us -. job.jsubmit_us in
  (* split the old queue_us (everything that was not this job's own
     work) into its typed causes; the three parts still sum to it, so
     baselines that watched queue_us stay comparable *)
  let total_wait = Float.max 0.0 (sim_us -. job.jwork_us) in
  let coalesce_us = Float.min job.jcoalesce_us total_wait in
  let batch_us = Float.min job.jbatch_us (total_wait -. coalesce_us) in
  let queue_us = total_wait -. batch_us -. coalesce_us in
  let wait_frac = if sim_us > 0.0 then total_wait /. sim_us else 0.0 in
  Telemetry.Counter.incr tm_instantiations;
  Telemetry.Histogram.observe tm_instantiate_us sim_us;
  Telemetry.Histogram.observe tm_queue_us total_wait;
  Telemetry.Histogram.observe tm_batch_wait_us batch_us;
  Telemetry.Histogram.observe tm_coalesce_wait_us coalesce_us;
  Residency.self_check t.residency;
  Telemetry.Health.record ~hit:job.jhit
    ~queue_depth:(max 0 (t.inflight - 1))
    ~wait_frac ~cost_us:sim_us ();
  if wait_frac > wait_share_note_threshold then
    Telemetry.Flight.record
      ~detail:
        (Printf.sprintf "%s wait_frac=%.2f" (target_label job.jreq.target)
           wait_frac)
      ~value:wait_frac Telemetry.Flight.Note "blame.wait_share";
  Telemetry.Causal.complete ~id:job.jt ~at:done_us ~sim_us ~hit:job.jhit ();
  finish t job
    (Ok { built = b; cache_hit = job.jhit; sim_us; queue_us; batch_us; coalesce_us })

(* link: place decisions are in; perform the real link, capture the
   binding journal, insert into the cache, establish residency. *)
and stage_link (t : t) (job : job) () : unit =
  (match job.jframe with
  | Some f -> Telemetry.Provenance.resume_build f
  | None -> ());
  job.jframe <- None;
  let r = Option.get job.jeval in
  let name = job.jname in
  let b =
    match job.jreq.target with
    | Library _ ->
        let tdec = Option.get job.jtdec and ddec = Option.get job.jddec in
        let t0 = Telemetry.now_us () in
        let img, _lstats =
          Telemetry.with_span "server.link" @@ fun () ->
          let img, lstats =
            Linker.Link.link ~externals:job.jreq.externals
              ~allow_undefined:true
              ~layout:
                {
                  Linker.Link.text_base = tdec.Constraints.Placement.base;
                  data_base = ddec.Constraints.Placement.base;
                }
              (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
          in
          charge_link t lstats;
          (img, lstats)
        in
        Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
        let provenance =
          Telemetry.Provenance.capture ~key:job.jkey
            ~text_base:tdec.Constraints.Placement.base
            ~data_base:ddec.Constraints.Placement.base
            ~placement:
              (placement_summary [ ("text", Some tdec); ("data", Some ddec) ])
            ~generation:(Cache.generation t.cache) ()
        in
        Telemetry.Provenance.note_built ~name provenance;
        let e =
          Cache.insert t.cache ~key:job.jkey
            ~text_base:tdec.Constraints.Placement.base
            ~data_base:ddec.Constraints.Placement.base ~provenance
            { img with Linker.Image.name }
        in
        Residency.note_placed t.residency e;
        { entry = e; key = job.jkey ^ "@" ^ Linker.Image.digest img }
    | Static { entry_symbol; _ } ->
        let t0 = Telemetry.now_us () in
        let img, _lstats =
          Telemetry.with_span "server.link" @@ fun () ->
          let img, lstats =
            Linker.Link.link ?entry:entry_symbol ~externals:job.jreq.externals
              ~layout:
                {
                  Linker.Link.text_base = client_text_base;
                  data_base = client_data_base;
                }
              (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
          in
          charge_link t lstats;
          (img, lstats)
        in
        Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
        let provenance =
          Telemetry.Provenance.capture ~key:job.jkey
            ~text_base:client_text_base ~data_base:client_data_base
            ~placement:
              (Printf.sprintf "static text@0x%08x data@0x%08x" client_text_base
                 client_data_base)
            ~generation:(Cache.generation t.cache) ()
        in
        Telemetry.Provenance.note_built ~name provenance;
        let e =
          Cache.insert t.cache ~key:job.jkey ~text_base:client_text_base
            ~data_base:client_data_base ~provenance
            { img with Linker.Image.name }
        in
        Residency.note_static t.residency e;
        { entry = e; key = job.jkey ^ "@" ^ Linker.Image.digest img }
  in
  (* a failed reacquisition of a cached placement is a conflict:
     record where the image wanted to be vs. where it went *)
  (match job.jreacquire_conflict with
  | Some wanted ->
      Telemetry.Counter.incr tm_arena_conflicts;
      t.conflicts <-
        {
          c_owner = name;
          c_seg = Blueprint.Mgraph.Seg_text;
          c_wanted = Constraints.Placement.At wanted;
          c_got = b.entry.Cache.text_base;
        }
        :: t.conflicts
  | None -> ());
  spawn_stage t job "map" (stage_map t job b)

(* place (single): the unbatched path — one solver pass per request. *)
and stage_place_single (t : t) (job : job) () : unit =
  if t.charge_build_work then
    Simos.Kernel.charge_sys t.kernel
      t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
  Telemetry.Histogram.observe tm_batch_size 1.0;
  let r = Option.get job.jeval in
  let place_noting arena seg size prefs =
    Residency.with_place_conflict t.residency ~arena ~prefs @@ fun () ->
    let dec =
      Constraints.Placement.place arena ~size ~owner:job.jname ~prefs ()
    in
    note_pref_conflict t ~owner:job.jname seg prefs dec;
    dec
  in
  job.jtdec <-
    Some
      (place_noting t.text_arena Blueprint.Mgraph.Seg_text job.jtext_size
         (prefs_for Blueprint.Mgraph.Seg_text r.Blueprint.Mgraph.constraints));
  job.jddec <-
    Some
      (place_noting t.data_arena Blueprint.Mgraph.Seg_data job.jdata_size
         (prefs_for Blueprint.Mgraph.Seg_data r.Blueprint.Mgraph.constraints));
  spawn_stage t job "link" (stage_link t job)

(* eval: force the m-graph (misses only — hits never re-evaluate). *)
and stage_eval (t : t) (job : job) () : unit =
  (match job.jframe with
  | Some f -> Telemetry.Provenance.resume_build f
  | None -> ());
  t.work.instantiations <- t.work.instantiations + 1;
  let r = eval t (Option.get job.jgraph) in
  job.jframe <- Some (Telemetry.Provenance.suspend_build ());
  job.jeval <- Some r;
  match job.jreq.target with
  | Static _ -> spawn_stage t job "link" (stage_link t job)
  | Library _ ->
      let text_size, data_size = module_sizes r.Blueprint.Mgraph.m in
      job.jtext_size <- max text_size 1;
      job.jdata_size <- max data_size 1;
      if t.batch_place then begin
        (* park at the place barrier; the drain loop flushes the whole
           queue as one constraint pass when nothing else can run. No
           time is charged between here and the end of the eval stage,
           so the park timestamp tiles exactly against the segment. *)
        job.jpark_us <- Telemetry.now_us ();
        Telemetry.Causal.park ~id:job.jt Telemetry.Causal.Batch
          ~at:job.jpark_us ();
        t.place_q <- job :: t.place_q
      end
      else spawn_stage t job "place" (stage_place_single t job)

(* lint: open the binding-journal frame and replay the registration-time
   findings into it, so every build of the meta carries them. *)
and stage_lint (t : t) (job : job) () : unit =
  Telemetry.Provenance.begin_build ();
  (match Hashtbl.find_opt t.lints job.jname with
  | Some (rep : Analysis.Lint.report) ->
      List.iter
        (fun (f : Analysis.Lint.finding) ->
          Telemetry.Provenance.record_lint ~code:f.Analysis.Lint.code
            ~severity:(Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
            ~path:f.Analysis.Lint.path f.Analysis.Lint.message)
        rep.Analysis.Lint.findings
  | None -> ());
  (* followers that coalesced onto this build before its frame existed *)
  for _ = 1 to job.jpending_coalesced do
    Telemetry.Provenance.record_coalesced ~leader_request:job.jt
  done;
  job.jpending_coalesced <- 0;
  job.jframe <- Some (Telemetry.Provenance.suspend_build ());
  spawn_stage t job "eval" (stage_eval t job)

(* parse: resolve the target, fix the cache key, and serve cache hits
   without touching the build stages. A job whose key is already being
   built parks as a waiter (request coalescing). *)
and stage_parse (t : t) (job : job) () : unit =
  let fresh () =
    Hashtbl.replace t.building job.jkey job.jt;
    spawn_stage t job "lint" (stage_lint t job)
  in
  (match job.jreq.target with
  | Library { path; spec } ->
      let meta = find_meta t path in
      let graph = Blueprint.Meta.effective_graph meta ~spec in
      job.jname <- path;
      job.jgraph <- Some graph;
      job.jkey <-
        "lib:" ^ path ^ ":" ^ Blueprint.Mgraph.digest graph
        ^ String.concat ""
            (List.map
               (fun i -> ":" ^ Linker.Image.digest i)
               job.jreq.externals)
  | Static { name; graph; _ } ->
      job.jname <- name;
      job.jgraph <- Some graph;
      job.jkey <-
        "static:" ^ name ^ ":" ^ Blueprint.Mgraph.digest graph
        ^ String.concat ""
            (List.map
               (fun i -> ":" ^ Linker.Image.digest i)
               job.jreq.externals));
  match Hashtbl.find_opt t.building job.jkey with
  | Some leader ->
      Telemetry.Counter.incr tm_coalesced;
      (* journal the fold on the leader's build so [ofe explain] can
         show this hit was served by another in-flight request *)
      (match Hashtbl.find_opt t.jobs leader with
      | Some lj -> (
          match lj.jframe with
          | Some f ->
              Telemetry.Provenance.record_coalesced_into f
                ~leader_request:leader
          | None -> lj.jpending_coalesced <- lj.jpending_coalesced + 1)
      | None -> ());
      job.jpark_us <- Telemetry.now_us ();
      Telemetry.Causal.park ~id:job.jt Telemetry.Causal.Coalesce ~on:leader
        ~at:job.jpark_us ();
      t.waiters <- t.waiters @ [ (job.jkey, job) ]
  | None -> (
      match job.jreq.target with
      | Static _ -> (
        match Cache.find t.cache job.jkey ~acceptable:(fun _ -> true) with
        | Some e ->
            job.jhit <- true;
            spawn_stage t job "map"
              (stage_map t job
                 {
                   entry = e;
                   key = job.jkey ^ "@" ^ Linker.Image.digest e.Cache.image;
                 })
        | None -> fresh ())
    | Library _ -> (
        let acceptable = Residency.acceptable t.residency ~owner:job.jname in
        match Cache.find t.cache job.jkey ~acceptable with
        | Some e -> (
            (* re-establish the reservation of the revived placement *)
            match Residency.reacquire t.residency ~owner:job.jname e with
            | Ok () ->
                job.jhit <- true;
                spawn_stage t job "map"
                  (stage_map t job
                     {
                       entry = e;
                       key =
                         job.jkey ^ "@" ^ Linker.Image.digest e.Cache.image;
                     })
            | Error _conflicting ->
                (* the range was taken between the acceptability check
                   and the reservation (or a reserve fault fired):
                   rebuild as an alternate placement *)
                job.jreacquire_conflict <- Some e.Cache.text_base;
                fresh ())
        | None ->
            (* stale candidates whose reservations are gone drop to
               Evicted so they can never shadow the fresh construction *)
            List.iter
              (fun e -> ignore (Residency.demote_if_lost t.residency e))
              (Cache.candidates t.cache job.jkey);
            fresh ()))

(* Flush the place barrier: solve every parked placement in one
   constraint pass (ticket order), one solver charge for the whole
   batch — N queued requests, one [Constraints.Placement.place_batch]
   deltablue pass per arena instead of N independent solves. *)
and flush_place (t : t) : unit =
  let jobs =
    List.sort (fun a b -> compare a.jt b.jt) (List.rev t.place_q)
  in
  t.place_q <- [];
  match jobs with
  | [] -> ()
  | _ ->
      let n = List.length jobs in
      Telemetry.Histogram.observe tm_batch_size (float_of_int n);
      let t0 = Telemetry.now_us () in
      if t.charge_build_work then
        Simos.Kernel.charge_sys t.kernel
          t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
      let by_index = Array.of_list jobs in
      (* per-member simulated time spent inside its own wrapped solve
         (both arenas) — the member's self-share of the flush interval;
         the residue is the shared batched-solver charge *)
      let wraps = Array.make n 0.0 in
      let solve seg arena =
        let items =
          List.map
            (fun j ->
              let r = Option.get j.jeval in
              {
                Constraints.Placement.bi_size =
                  (match seg with
                  | Blueprint.Mgraph.Seg_text -> j.jtext_size
                  | _ -> j.jdata_size);
                bi_owner = j.jname;
                bi_existing = None;
                bi_prefs = prefs_for seg r.Blueprint.Mgraph.constraints;
              })
            jobs
        in
        (* each member's individual solve runs under its own request
           context, so placement spans, counters, and injected faults
           stay attributed to the request that owns them *)
        let wrap i (it : Constraints.Placement.batch_item) f =
          let j = by_index.(i) in
          Telemetry.Request.resume ~client:j.jclient ~id:j.jt "instantiate";
          let w0 = Telemetry.now_us () in
          Fun.protect
            ~finally:(fun () ->
              wraps.(i) <- wraps.(i) +. (Telemetry.now_us () -. w0);
              Telemetry.Request.suspend ())
          @@ fun () ->
          let d =
            Residency.with_place_conflict t.residency ~arena
              ~prefs:it.Constraints.Placement.bi_prefs f
          in
          note_pref_conflict t ~owner:j.jname seg
            it.Constraints.Placement.bi_prefs d;
          d
        in
        Constraints.Placement.place_batch ~wrap arena items
      in
      let tdecs = solve Blueprint.Mgraph.Seg_text t.text_arena in
      let ddecs = solve Blueprint.Mgraph.Seg_data t.data_arena in
      let t1 = Telemetry.now_us () in
      let dt = t1 -. t0 in
      Telemetry.Histogram.observe tm_place_us dt;
      let solver_us =
        Float.max 0.0 (dt -. Array.fold_left ( +. ) 0.0 wraps)
      in
      List.iteri
        (fun i j ->
          j.jtdec <- Some (List.nth tdecs i);
          j.jddec <- Some (List.nth ddecs i);
          (* the pass worked for every member of the batch *)
          j.jwork_us <- j.jwork_us +. dt;
          j.jbatch_us <- j.jbatch_us +. Float.max 0.0 (t0 -. j.jpark_us);
          Telemetry.Causal.unpark ~id:j.jt ~at:t0 ();
          Telemetry.Causal.segment ~id:j.jt ~stage:"place" ~t0 ~t1
            ~self:wraps.(i) ();
          Telemetry.Causal.set_solver_us ~id:j.jt solver_us;
          spawn_stage t j "link" (stage_link t j))
        jobs

(* Record when the strongest preference could not be honoured (shared
   by the batched and unbatched place paths). *)
and note_pref_conflict (t : t) ~(owner : string) (seg : Blueprint.Mgraph.seg)
    (prefs : (int * Constraints.Placement.pref) list)
    (dec : Constraints.Placement.decision) : unit =
  match List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs with
  | (_, wanted) :: _ when dec.Constraints.Placement.satisfied <> Some wanted ->
      Telemetry.Counter.incr tm_arena_conflicts;
      t.conflicts <-
        {
          c_owner = owner;
          c_seg = seg;
          c_wanted = wanted;
          c_got = dec.Constraints.Placement.base;
        }
        :: t.conflicts
  | _ -> ()

(* -- submit / await / poll / drain ------------------------------------------ *)

(** Admit one request into the pipeline: assigns the ticket (= the
    telemetry request id), runs admission control, and queues the parse
    stage. Raises {!Overload} when the pipeline is full. *)
let submit (t : t) (req : request) : ticket =
  if t.inflight >= t.queue_limit then begin
    Telemetry.Counter.incr tm_overloads;
    (* overload is an anomaly like faults and invariant violations:
       leave a flight dump behind so the storm can be reconstructed *)
    Telemetry.Flight.record
      ~detail:(Printf.sprintf "inflight=%d limit=%d" t.inflight t.queue_limit)
      Telemetry.Flight.Fault "server.overload";
    ignore (Telemetry.Flight.trip ~reason:"overload server.submit" ());
    raise
      (Overload
         (Printf.sprintf "pipeline full: %d requests in flight (limit %d)"
            t.inflight t.queue_limit))
  end;
  let client = Telemetry.Request.effective_client () in
  let id = Telemetry.Request.begin_detached ~client "instantiate" in
  let submit_us = Telemetry.now_us () in
  Telemetry.Causal.begin_request ~id ~client
    ~target:(target_label req.target) ~at:submit_us;
  let job =
    {
      jt = id;
      jclient = client;
      jreq = req;
      jsubmit_us = submit_us;
      jwork_us = 0.0;
      jhit = false;
      jname = "";
      jkey = "";
      jgraph = None;
      jeval = None;
      jtext_size = 1;
      jdata_size = 1;
      jtdec = None;
      jddec = None;
      jframe = None;
      jreacquire_conflict = None;
      jpark_us = 0.0;
      jbatch_us = 0.0;
      jcoalesce_us = 0.0;
      jpending_coalesced = 0;
      joutcome = None;
    }
  in
  Hashtbl.replace t.jobs id job;
  t.inflight <- t.inflight + 1;
  Telemetry.Counter.incr tm_submitted;
  Telemetry.Histogram.observe tm_depth (float_of_int t.inflight);
  (* the eviction-storm fault, when enabled, empties the cache at
     admission — the request must then rebuild and re-place *)
  Telemetry.Request.resume ~client:job.jclient ~id "instantiate";
  ignore (Residency.maybe_evict_storm t.residency);
  Telemetry.Request.suspend ();
  spawn_stage t job "parse" (stage_parse t job);
  id

(* One pump round: run scheduler tasks; when nothing is runnable,
   flush the place barrier and keep going. *)
let rec pump (t : t) : unit =
  if Simos.Sched.step t.sched then pump t
  else if t.place_q <> [] then begin
    flush_place t;
    pump t
  end

(** Run the pipeline until every submitted request has completed. *)
let drain (t : t) : unit = if not (Simos.Sched.running t.sched) then pump t

(** Requests submitted but not yet completed. *)
let in_flight (t : t) : int = t.inflight

(* Deliver a finished job's outcome (the ticket is spent). *)
let deliver (t : t) (tk : ticket) (job : job) : response =
  match job.joutcome with
  | Some (Ok r) ->
      Hashtbl.remove t.jobs tk;
      r
  | Some (Error e) ->
      Hashtbl.remove t.jobs tk;
      raise e
  | None -> fail "ticket %d has not completed" tk

(** Completed? [None] while the request is still in flight; delivers
    the response (or re-raises the request's failure) once done. A
    delivered ticket is spent. *)
let poll (t : t) (tk : ticket) : response option =
  match Hashtbl.find_opt t.jobs tk with
  | None -> fail "unknown (or already delivered) ticket %d" tk
  | Some job -> (
      match job.joutcome with None -> None | Some _ -> Some (deliver t tk job))

(** Drive the pipeline until this ticket completes, then deliver it. *)
let await (t : t) (tk : ticket) : response =
  match Hashtbl.find_opt t.jobs tk with
  | None -> fail "unknown (or already delivered) ticket %d" tk
  | Some job ->
      let rec loop () =
        match job.joutcome with
        | Some _ -> deliver t tk job
        | None ->
            if Simos.Sched.step t.sched then loop ()
            else if t.place_q <> [] then begin
              flush_place t;
              loop ()
            end
            else fail "pipeline stalled awaiting ticket %d" tk
      in
      loop ()

(* The synchronous path for nested instantiations: a specializer or an
   upcall may instantiate a library while the scheduler is mid-drain
   (its request is a stage of another request) — those run inline,
   bypassing the queue, exactly like the pre-pipeline server. *)
let instantiate_inline (t : t) (req : request) : response =
  Telemetry.Request.with_request "instantiate" @@ fun () ->
  let t0 = Telemetry.now_us () in
  let links0 = t.work.links in
  ignore (Residency.maybe_evict_storm t.residency);
  let built =
    match req.target with
    | Library { path; spec } ->
        build_library_raw t ~path ?spec ~externals:req.externals ()
    | Static { name; graph; entry_symbol } ->
        build_static_raw t ~name ?entry_symbol ~externals:req.externals graph
  in
  let cache_hit = t.work.links = links0 in
  let sim_us = Telemetry.now_us () -. t0 in
  Telemetry.Counter.incr tm_instantiations;
  Telemetry.Histogram.observe tm_instantiate_us sim_us;
  Residency.self_check t.residency;
  Telemetry.Health.record ~hit:cache_hit ~cost_us:sim_us ();
  { built; cache_hit; sim_us; queue_us = 0.0; batch_us = 0.0; coalesce_us = 0.0 }

(** Serve one instantiation request synchronously: submit it, drive the
    pipeline until it completes. Opens the root ["omos.instantiate"]
    span; evaluation, placement, linking and caching all nest under it
    (a nested call from inside a running stage executes inline). *)
let instantiate (t : t) (req : request) : response =
  if Simos.Sched.running t.sched then instantiate_inline t req
  else begin
    let span =
      Telemetry.Span.enter "omos.instantiate"
        ~attrs:[ ("target", Telemetry.S (target_label req.target)) ]
    in
    Fun.protect ~finally:(fun () -> Telemetry.Span.exit span) @@ fun () ->
    let resp = await t (submit t req) in
    Telemetry.Span.add_attr span "cache_hit" (Telemetry.B resp.cache_hit);
    resp
  end

(** [build t req] = [(instantiate t req).built] — the one-call
    convenience for callers that only want the image. *)
let build (t : t) (req : request) : built = (instantiate t req).built

(* -- pipeline knobs ---------------------------------------------------------- *)

(** Bound the number of in-flight requests ({!submit} raises
    {!Overload} beyond it). *)
let set_queue_limit (t : t) (n : int) : unit =
  if n < 1 then invalid_arg "Server.set_queue_limit";
  t.queue_limit <- n;
  Telemetry.Runinfo.set "queue_limit" (Telemetry.I n)

let queue_limit (t : t) : int = t.queue_limit

(** Solve queued placements as one batched constraint pass (default) or
    one pass per request? *)
let set_batch_placement (t : t) (b : bool) : unit =
  t.batch_place <- b;
  Telemetry.Runinfo.set "batch_placement" (Telemetry.B b)

(** Reseed the pipeline scheduler: 0 (the default) runs stages in
    strict FIFO order; any other seed interleaves ready stages in a
    deterministic shuffled order. *)
let set_sched_seed (t : t) (seed : int) : unit =
  Simos.Sched.set_seed t.sched seed;
  Telemetry.Runinfo.set "sched_seed" (Telemetry.I seed)

(** Register a specialization style (the schemes install theirs here). *)
let register_specializer (t : t) (style : string) (f : Blueprint.Mgraph.specializer) :
    unit =
  Blueprint.Mgraph.register t.env style f

(** Trim the image cache to a disk budget, releasing the arena
    reservations of evicted libraries (and only those — [static:]
    entries never held lib-arena ranges) so their address ranges can be
    reused. A later request for an evicted construction rebuilds it
    (and, via the reuse constraint, usually at the same addresses). *)
let evict_to_budget (t : t) ~(bytes : int) : int =
  Telemetry.Request.with_request "evict" @@ fun () ->
  List.length (Residency.evict_to_budget t.residency ~bytes)

(** Recorded placement conflicts, most recent first. *)
let conflicts (t : t) : conflict list = t.conflicts

(** Suggested constraint-list revisions derived from the conflict log:
    for each conflicted object, the base it actually received — feeding
    this back as its new preferred address makes future placements
    conflict-free (the "system manager could feed that data" loop). *)
let suggest_placements (t : t) : (string * Blueprint.Mgraph.seg * int) list =
  List.rev_map (fun c -> (c.c_owner, c.c_seg, c.c_got)) t.conflicts

(* -- mapping into client tasks ---------------------------------------------- *)

(** Map a built image into a process (cf. Mach [vm_map] into the target
    task): segments come from the server's memory, so they are resident
    — no file opening, no header parsing, no disk reads. *)
let map_into (t : t) ?(touch_user_cost = 0.0) ?(fresh_from_disk = false)
    (p : Simos.Proc.t) (b : built) : unit =
  if b.entry.Cache.residency = Cache.Evicted then
    fail "map_into: cached image of %s was evicted; re-instantiate it"
      b.entry.Cache.image.Linker.Image.name;
  Simos.Kernel.map_image t.kernel p ~key:b.key ~fresh_from_disk ~touch_user_cost
    b.entry.Cache.image

(** Everything needed to start a program built by a scheme. *)
type loadable = {
  parts : built list; (* map order: libraries first, client last *)
  entry : int;
}

let loadable_entry (parts : built list) : loadable =
  match
    List.find_map
      (fun (b : built) ->
        let e = b.entry.Cache.image.Linker.Image.entry in
        if e >= 0 then Some e else None)
      (List.rev parts)
  with
  | Some entry -> { parts; entry }
  | None -> fail "no entry point in any part"
