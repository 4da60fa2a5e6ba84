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
  mutable instantiations : int;
  mutable nodes_walked : int; (* m-graph nodes the analysis walked *)
  mutable subtrees_replayed : int; (* ... and replayed from a kept walk *)
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

(* One request moving through the staged pipeline (parse → lint → eval
   → place → link → map). The job carries everything a stage hands the
   next one, so stages of different requests can interleave freely. Its
   timing is its timeline alone: the response's latency split is a fold
   over [jtl]. *)
type job = {
  jt : int; (* ticket = telemetry request id, assigned at submission *)
  jclient : int;
  jreq : request;
  jtl : Telemetry.Causal.req; (* submission, stage segments, typed waits *)
  mutable jhit : bool;
  mutable jname : string;
  mutable jkey : string; (* cache key, fixed at parse *)
  mutable jgraph : Blueprint.Mgraph.node option;
  mutable jtree : Analysis.Impact.tree option;
      (* a library's tree, looked up at parse: key, findings, memo keys *)
  mutable jeval : Blueprint.Mgraph.result option;
  mutable jtext_size : int;
  mutable jdata_size : int;
  mutable jtdec : Constraints.Placement.decision option;
  mutable jddec : Constraints.Placement.decision option;
  mutable jframe : Telemetry.Provenance.frame option;
      (* the build's binding journal, opened at lint; the lint, eval
         and link stages install it while they run *)
  mutable jreacquire_conflict : int option;
      (* wanted text base of a failed cache-hit reacquisition *)
  mutable jfollowers : job list;
      (* requests coalesced onto this job's build, newest-first *)
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

and built = { entry : Cache.entry }

and request =
  | Library of { path : string }
  | Static of {
      name : string;
      graph : Blueprint.Mgraph.node;
      externals : Linker.Image.t list;
    }

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
  mutable impact_trees : (string, Analysis.Impact.tree) Hashtbl.t;
      (* per bound meta path, current after every bind: its lint report,
         image key (root digest) and the tree the memo is answered through *)
  impact_diffs : (string, Analysis.Impact.diff Lazy.t) Hashtbl.t;
      (* verdicts of the latest re-registration of each meta path,
         computed from its old and new trees on first query *)
  named : (string, int) Hashtbl.t;
      (* interface digest -> reusable infos of the trees naming it *)
  mutable subtree_reuse : bool; (* consult the memo table during eval? *)
  mutable conflicts : conflict list;
  (* -- the staged request pipeline -- *)
  sched : Simos.Sched.t;
  jobs : (int, job) Hashtbl.t; (* ticket -> job (pruned on delivery) *)
  mutable inflight : int;
  mutable queue_limit : int; (* admission control: max in-flight *)
  mutable batch_place : bool; (* solve queued placements as one pass? *)
  mutable place_q : job list; (* parked at the place barrier, newest-first *)
  building : (string, job) Hashtbl.t; (* cache keys being built -> leader *)
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
let tm_batch_solves = Telemetry.Counter.make "constraints.batch_solves"
let tm_depth = Telemetry.Histogram.make "pipeline.depth.inflight"
let tm_submitted = Telemetry.Counter.make "pipeline.submitted"
let tm_completed = Telemetry.Counter.make "pipeline.completed"
let tm_coalesced = Telemetry.Counter.make "pipeline.coalesced"
let tm_overloads = Telemetry.Counter.make "server.overloads"

(* A request that spent more than this share of its latency waiting
   (rather than working) leaves a Note in the flight ring for triage. *)
let wait_share_note_threshold = 0.5

(* -- construction --------------------------------------------------------- *)

(* The graph a server-object path names: what evaluation and the
   analyses resolve a [Name] to. *)
let lookup_graph (ns : Namespace.t) (path : string) :
    (Blueprint.Mgraph.node, string) result =
  match Namespace.lookup ns path with
  | Some (Namespace.Fragment o) -> Ok (Blueprint.Mgraph.Leaf o)
  | Some (Namespace.Meta m) -> Ok (Blueprint.Meta.effective_graph m ~spec:None)
  | Some (Namespace.Directory _) -> Error (path ^ " is a directory")
  | None -> Error ("unknown server object " ^ path)

let create ~(kernel : Simos.Kernel.t) ?(faults : Residency.faults option) () : t
    =
  let ns = Namespace.create () in
  let env =
    Blueprint.Mgraph.make_env
      ~resolve:(fun path ->
        match lookup_graph ns path with
        | Ok g -> g
        | Error msg -> raise (Blueprint.Mgraph.Eval_error msg))
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
  {
    ns;
    cache;
    text_arena;
    data_arena;
    residency;
    kernel;
    env;
    work =
      {
        links = 0;
        relocs = 0;
        instantiations = 0;
        nodes_walked = 0;
        subtrees_replayed = 0;
      };
    impact_trees = Hashtbl.create 16;
    impact_diffs = Hashtbl.create 16;
    named = Hashtbl.create 64;
    subtree_reuse = true;
    conflicts = [];
    sched = Simos.Sched.create ();
    jobs = Hashtbl.create 64;
    inflight = 0;
    queue_limit = 64;
    batch_place = true;
    place_q = [];
    building = Hashtbl.create 16;
  }

(* -- read-only views ------------------------------------------------------- *)

(** Immutable snapshot of the work counters. *)
type stats = {
  links : int;
  relocs : int;
  source_compiles : int;
  instantiations : int;
  nodes_walked : int;
  subtrees_replayed : int;
}

let stats (t : t) : stats =
  {
    links = t.work.links;
    relocs = t.work.relocs;
    (* source compiles happen inside the blueprint evaluator; one server
       per process, so the global counter is this server's count *)
    source_compiles = Telemetry.Counter.get "blueprint.source_compiles";
    instantiations = t.work.instantiations;
    nodes_walked = t.work.nodes_walked;
    subtrees_replayed = t.work.subtrees_replayed;
  }

let namespace (t : t) : Namespace.t = t.ns
let cache_stats (t : t) : Cache.stats = Cache.stats t.cache
let kernel (t : t) : Simos.Kernel.t = t.kernel
let text_arena (t : t) : Constraints.Placement.t = t.text_arena
let data_arena (t : t) : Constraints.Placement.t = t.data_arena
let residency (t : t) : Residency.t = t.residency

let resolve_graph (t : t) (path : string) :
    (Blueprint.Mgraph.node, string) result =
  lookup_graph t.ns path

(* The memo key of an analyzed node: its interface digest, for a node
   the memo may answer. Leaves are free to re-make, and unmodeled nodes
   can never be proven reusable. *)
let memo_key (i : Analysis.Impact.info) : string option =
  match i.Analysis.Lint.i_node with
  | Blueprint.Mgraph.Leaf _ -> None
  | _ when i.Analysis.Lint.i_modeled -> Some i.Analysis.Lint.i_digest
  | _ -> None

(* Count one more analyzed node naming its memo key. *)
let count_named (t : t) (i : Analysis.Impact.info) : unit =
  Option.iter
    (fun d ->
      Hashtbl.replace t.named d
        (1 + Option.value (Hashtbl.find_opt t.named d) ~default:0))
    (memo_key i)

(* Count one analyzed node fewer naming its memo key; a digest nothing
   names any more goes onto [unnamed]. *)
let uncount_named (t : t) (unnamed : string list ref)
    (i : Analysis.Impact.info) : unit =
  Option.iter
    (fun d ->
      match Hashtbl.find_opt t.named d with
      | Some n when n > 1 -> Hashtbl.replace t.named d (n - 1)
      | _ ->
          Hashtbl.remove t.named d;
          unnamed := d :: !unnamed)
    (memo_key i)

(* Re-run the analysis over every bound meta-object, at every
   registration and every rebind — one kept walk per meta yields its
   {!Analysis.Impact} tree, which carries its lint report and its image
   key — and build the table afresh from the bound metas: a path no
   longer bound keeps no tree. Re-analyzing the whole namespace (not just
   the edited meta) keeps reports and trees fresh for metas that
   reference the edited path through [Name] nodes: their findings and
   interface digests move with the content they resolve to. With
   subtree reuse on, each walk replays from the meta's previous one
   every subtree whose occurrence path and content key are unchanged,
   so an edit walks its spine and replays the rest, and a meta the edit
   does not reach is replayed at its root; with reuse off, every meta
   is walked from scratch. A replayed subtree is physically the
   previous tree's, so [named], which counts the analyzed nodes naming
   each memo key, has nothing to do for it: only the nodes the new
   trees no longer share with the old ones are uncounted, and only the
   new trees' own nodes are counted. Every old tree is uncounted before
   any new one is counted, so a digest that stays named is never
   dropped at a transient zero. A meta no longer bound has its whole
   tree uncounted. What stays proportional to the world is the key
   pass, which resolves every name. Memo entries whose digest nothing
   names any more (the spine an edit replaced) are dropped, so the memo
   table tracks the bound blueprints rather than their edit history. *)
let refresh_analysis (t : t) : unit =
  let resolve = resolve_graph t in
  let trees = Hashtbl.create (Hashtbl.length t.impact_trees + 1) in
  List.iter
    (fun p ->
      match Namespace.lookup t.ns p with
      | Some (Namespace.Meta m) ->
          let tree, w =
            Analysis.Impact.reanalyze ~resolve
              ~prev:
                (if t.subtree_reuse then Hashtbl.find_opt t.impact_trees p
                 else None)
              (Blueprint.Meta.effective_graph m ~spec:None)
          in
          t.work.nodes_walked <- t.work.nodes_walked + w.Analysis.Lint.walked;
          t.work.subtrees_replayed <-
            t.work.subtrees_replayed + w.Analysis.Lint.replayed;
          Hashtbl.replace trees p tree
      | _ -> ())
    (Namespace.all_metas t.ns);
  let unnamed = ref [] in
  Hashtbl.iter
    (fun p old ->
      Analysis.Impact.iter_unshared (uncount_named t unnamed)
        ~other:(Hashtbl.find_opt trees p) old)
    t.impact_trees;
  Hashtbl.iter
    (fun p tree ->
      Analysis.Impact.iter_unshared (count_named t)
        ~other:(Hashtbl.find_opt t.impact_trees p) tree)
    trees;
  t.impact_trees <- trees;
  Cache.memo_drop t.cache
    (List.filter (fun d -> not (Hashtbl.mem t.named d)) !unnamed)

(* Whether some bound tree reports [path] as an unknown server object. *)
let reported_unknown (t : t) (path : string) : bool =
  Hashtbl.fold
    (fun _ (tree : Analysis.Impact.tree) found ->
      found
      || List.exists
           (fun (f : Analysis.Lint.finding) ->
             f.Analysis.Lint.code = "E005" && f.Analysis.Lint.symbols = [ path ])
           tree.Analysis.Impact.t_report.Analysis.Lint.findings)
    t.impact_trees false

(* A rebind refreshes the analysis, and so does binding a path some
   tree reports unknown; server.mli says why no other fresh path needs
   to. *)
let add_fragment (t : t) (path : string) (o : Sof.Object_file.t) : unit =
  let refresh = Namespace.exists t.ns path || reported_unknown t path in
  Namespace.bind_fragment t.ns path o;
  if refresh then refresh_analysis t

(* Bind and refresh every tree; only the registered path feeds the
   finding counters, and a re-registration keeps its old and new trees
   for [impact_diff], diffed on first query. Registration never fails on
   findings: a broken blueprint fails again, fatally, when instantiated. *)
let register_meta (t : t) (path : string) (m : Blueprint.Meta.t) : unit =
  let old_tree = Hashtbl.find_opt t.impact_trees path in
  Namespace.bind_meta t.ns path m;
  refresh_analysis t;
  let new_tree = Hashtbl.find t.impact_trees path in
  let report = new_tree.Analysis.Impact.t_report in
  let errs = Analysis.Lint.errors report and warns = Analysis.Lint.warnings report in
  if errs > 0 then Telemetry.Counter.incr ~by:errs tm_lint_errors;
  if warns > 0 then Telemetry.Counter.incr ~by:warns tm_lint_warnings;
  Option.iter
    (fun old_tree ->
      Hashtbl.replace t.impact_diffs path (lazy (Analysis.Impact.diff ~old_tree ~new_tree)))
    old_tree

(** The registration-time dependence analysis of a bound meta-object. *)
let impact_tree (t : t) (path : string) : Analysis.Impact.tree option =
  Hashtbl.find_opt t.impact_trees path

(** The registration-time lint report of a bound meta-object. *)
let lint_report (t : t) (path : string) : Analysis.Lint.report option =
  Option.map (fun tree -> tree.Analysis.Impact.t_report) (impact_tree t path)

(** The interface digests the bound trees name, each with the number of
    reusable nodes naming it, sorted. *)
let named_digests (t : t) : (string * int) list =
  Hashtbl.fold (fun d n acc -> (d, n) :: acc) t.named [] |> List.sort compare

(** The interface digests the memo table holds, sorted. *)
let memo_digests (t : t) : string list = Cache.memo_digests t.cache

(** The reuse/respin verdicts of the last time [path] was re-registered
    over an existing binding, computed on first query. *)
let impact_diff (t : t) (path : string) : Analysis.Impact.diff option =
  Option.map Lazy.force (Hashtbl.find_opt t.impact_diffs path)

(** Toggle incremental relinking (default on): when off, evaluation
    never consults or fills the per-node memo table and every refresh
    walks every meta from scratch. *)
let set_subtree_reuse (t : t) (b : bool) : unit = t.subtree_reuse <- b

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

(* The subtree-reuse hook evaluation runs under, [tree] the
   registration analysis of the graph evaluated. A node the tree
   vouches for and the memo may answer is answered from the memo table
   when it holds the node's interface digest; otherwise it is evaluated
   and entered (first materialization of a digest wins). *)
let memo (t : t) (tree : Analysis.Impact.tree) : Blueprint.Mgraph.memo =
  let resolve = resolve_graph t in
  fun occ n eval ->
    match n with
    | Blueprint.Mgraph.Leaf _ -> eval ()
    | _ -> (
        match Option.bind (Analysis.Impact.info_at ~resolve tree occ n) memo_key with
        | None -> eval ()
        | Some d -> (
            match Cache.memo_find t.cache d with
            | Some me ->
                Telemetry.Counter.incr tm_impact_reused;
                Telemetry.Provenance.record_reused ~digest:d;
                me.Cache.m_result
            | None ->
                let r = eval () in
                Telemetry.Counter.incr tm_impact_respun;
                Cache.memo_insert t.cache ~digest:d r;
                r))

let eval_with (t : t) (tree : Analysis.Impact.tree option)
    (node : Blueprint.Mgraph.node) : Blueprint.Mgraph.result =
  let t0 = Telemetry.now_us () in
  let r =
    match tree with
    | Some tree when t.subtree_reuse ->
        Blueprint.Mgraph.eval_memo t.env (memo t tree) node
    | _ -> Blueprint.Mgraph.eval t.env node
  in
  Telemetry.Histogram.observe tm_eval_us (Telemetry.now_us () -. t0);
  r

(** Evaluate a graph, through the memo table when it is the graph a
    bound meta's registration analyzed. *)
let eval (t : t) (node : Blueprint.Mgraph.node) : Blueprint.Mgraph.result =
  eval_with t
    (Seq.find
       (fun tree -> tree.Analysis.Impact.t_graph == node)
       (Hashtbl.to_seq_values t.impact_trees))
    node

(* Charge the cost of a full link to the simulated clock: this is the
   work a cache hit avoids. *)
let charge_link (t : t) (stats : Linker.Link.stats) : unit =
  t.work.links <- t.work.links + 1;
  t.work.relocs <- t.work.relocs + stats.Linker.Link.relocs_applied;
  let cost = t.kernel.Simos.Kernel.cost in
  Simos.Kernel.charge_sys t.kernel
    (cost.Simos.Cost.reloc_apply *. float_of_int stats.Linker.Link.relocs_applied);
  Simos.Kernel.charge_sys t.kernel
    (cost.Simos.Cost.symbol_lookup *. float_of_int stats.Linker.Link.symbols_resolved)

(* Human-readable placement decision for the provenance record. *)
let placement_summary (parts : (string * Constraints.Placement.decision) list)
    : string =
  String.concat " "
    (List.map
       (fun (seg, (d : Constraints.Placement.decision)) ->
         Printf.sprintf "%s@0x%08x%s" seg d.Constraints.Placement.base
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

(* One member's placement of one segment: the conflict-fault hook
   around the solve, then a recorded conflict when the strongest
   preference could not be honoured. *)
let place_member (t : t) (j : job) (seg : Blueprint.Mgraph.seg) : unit =
  let arena, size =
    match seg with
    | Blueprint.Mgraph.Seg_text -> (t.text_arena, j.jtext_size)
    | Blueprint.Mgraph.Seg_data -> (t.data_arena, j.jdata_size)
  in
  let prefs = prefs_for seg (Option.get j.jeval).Blueprint.Mgraph.constraints in
  let dec =
    Residency.with_place_conflict t.residency ~arena ~prefs (fun () ->
        Constraints.Placement.place arena ~size ~owner:j.jname ~prefs ())
  in
  (match List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs with
  | (_, wanted) :: _ when dec.Constraints.Placement.satisfied <> Some wanted ->
      Telemetry.Counter.incr tm_arena_conflicts;
      t.conflicts <-
        {
          c_owner = j.jname;
          c_seg = seg;
          c_wanted = wanted;
          c_got = dec.Constraints.Placement.base;
        }
        :: t.conflicts
  | _ -> ());
  match seg with
  | Blueprint.Mgraph.Seg_text -> j.jtdec <- Some dec
  | Blueprint.Mgraph.Seg_data -> j.jddec <- Some dec

(* The one placement loop, over one job or a flushed queue in ticket
   order: every text segment, then every data segment, each member
   under its own request context, so fault draws, spans and flight
   records stay attributed to the request that owns them and land in
   submission order (the first queued request wins a preference tie,
   as it does serially). [pass] brackets each arena's pass. *)
let place_jobs (t : t) ~(pass : (unit -> unit) -> unit) (jobs : job list) : unit =
  List.iter
    (fun seg ->
      pass (fun () ->
          List.iter
            (fun j ->
              Telemetry.Request.within ~client:j.jclient ~id:j.jt (fun () ->
                  place_member t j seg))
            jobs))
    [ Blueprint.Mgraph.Seg_text; Blueprint.Mgraph.Seg_data ]

(** Has this built's cache entry been evicted since it was handed out?
    Stale builts must be re-requested before mapping. *)
let built_evicted (b : built) : bool =
  b.entry.Cache.residency = Cache.Evicted

(* Evicted entries release the image they cached for mapping, if any;
   a revived one caches it afresh. Recursive rather than a [List.iter]
   closure: every submit passes the storm check's victims here, almost
   always none, and must allocate nothing for them. *)
let rec drop_mapped (t : t) : Cache.entry list -> unit = function
  | [] -> ()
  | e :: victims ->
      (match e.Cache.mapped with Some m -> Simos.Kernel.release t.kernel m | None -> ());
      e.Cache.mapped <- None;
      drop_mapped t victims

(* -- the unified request API ------------------------------------------------ *)

let library (path : string) : request = Library { path }

let static ?(externals = []) ~(name : string) (graph : Blueprint.Mgraph.node) :
    request =
  Static { name; graph; externals }

let target_label = function
  | Library l -> "lib:" ^ l.path
  | Static s -> "static:" ^ s.name

(* -- the staged pipeline ----------------------------------------------------- *)

(* Stages run as cooperative scheduler tasks; a job's stages always run
   in order, but stages of different jobs interleave. Every stage
   execution runs within the job's request context (so spans, counters,
   faults recorded inside carry its (client, ticket)), appends the
   segment it executed to the job's timeline, and records a stage
   transition in the flight recorder. *)

type ticket = int

let ticket_id (tk : ticket) : int = tk

let stage_transition (job : job) (stage : string) : unit =
  Telemetry.Flight.record ~detail:job.jtl.Telemetry.Causal.g_target
    Telemetry.Flight.Transition
    ("pipeline." ^ stage)

(* Finish a job (success or error): deliver the outcome, release the
   build-key claim, and wake the followers coalesced onto it, in arrival
   order, so they re-enter parse (and now find the cache populated — or
   rebuild after a failure). *)
let rec finish (t : t) (job : job) (outcome : (response, exn) result) : unit =
  job.joutcome <- Some outcome;
  t.inflight <- t.inflight - 1;
  Telemetry.Counter.incr tm_completed;
  (match Hashtbl.find_opt t.building job.jkey with
  | Some leader when leader == job ->
      Hashtbl.remove t.building job.jkey;
      let followers = List.rev job.jfollowers in
      job.jfollowers <- [];
      let now = Telemetry.now_us () in
      List.iter
        (fun w ->
          Telemetry.Causal.unpark w.jtl ~at:now ();
          spawn_stage t w "parse" (stage_parse t w))
        followers
  | _ -> ());
  Telemetry.Request.end_detached ~client:job.jclient ~id:job.jt "instantiate"

(* Run one stage body within the job's request context, trapping errors
   into the job's outcome. *)
and run_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  Telemetry.Request.within ~client:job.jclient ~id:job.jt @@ fun () ->
  stage_transition job stage;
  let t0 = Telemetry.now_us () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Telemetry.now_us () in
      Telemetry.Causal.segment job.jtl ~stage ~t0 ~t1 ();
      if stage = "parse" then Telemetry.Histogram.observe tm_parse_us (t1 -. t0))
    (fun () -> try f () with e -> finish t job (Error e))

and spawn_stage (t : t) (job : job) (stage : string) (f : unit -> unit) : unit =
  Simos.Sched.spawn t.sched (fun () -> run_stage t job stage f)

(* map: the last stage — the built image is mappable; seal the
   response, observe the request-level metrics, and run the residency
   self-check. *)
and stage_map (t : t) (job : job) (b : built) () : unit =
  let tl = job.jtl in
  let done_us = Telemetry.now_us () in
  let sim_us = done_us -. tl.Telemetry.Causal.g_submit in
  (* split the wait (everything that was not this job's own work) into
     its typed causes, folded from the timeline; the three parts sum to
     it *)
  let total_wait = Float.max 0.0 (sim_us -. Telemetry.Causal.work_us tl) in
  let coalesce_us =
    Float.min (Telemetry.Causal.waited_us tl Telemetry.Causal.Coalesce) total_wait
  in
  let batch_us =
    Float.min
      (Telemetry.Causal.waited_us tl Telemetry.Causal.Batch)
      (total_wait -. coalesce_us)
  in
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
        (Printf.sprintf "%s wait_frac=%.2f" tl.Telemetry.Causal.g_target
           wait_frac)
      ~value:wait_frac Telemetry.Flight.Note "blame.wait_share";
  Telemetry.Causal.complete tl ~at:done_us ~sim_us ~hit:job.jhit ();
  finish t job
    (Ok { built = b; cache_hit = job.jhit; sim_us; queue_us; batch_us; coalesce_us })

(* link: place decisions are in; perform the real link into the job's
   journal, capture it, insert into the cache, establish residency. The
   targets differ only in where the image goes and how it is held: a
   library at its placed arena bases, undefined symbols allowed; a
   static image at the client bases, with its entry point. *)
and stage_link (t : t) (job : job) () : unit =
  let frame = Option.get job.jframe in
  let r = Option.get job.jeval in
  let name = job.jname in
  let text_base, data_base, externals, allow_undefined, placement, note =
    match job.jreq with
    | Library _ ->
        let tdec = Option.get job.jtdec and ddec = Option.get job.jddec in
        ( tdec.Constraints.Placement.base,
          ddec.Constraints.Placement.base,
          [],
          Some true,
          placement_summary [ ("text", tdec); ("data", ddec) ],
          Residency.note_placed )
    | Static { externals; _ } ->
        ( client_text_base,
          client_data_base,
          externals,
          None,
          Printf.sprintf "static text@0x%08x data@0x%08x" client_text_base
            client_data_base,
          Residency.note_static )
  in
  let link () =
    let img, lstats =
      Linker.Link.link ~externals ?allow_undefined
        ~layout:{ Linker.Link.text_base; data_base }
        (Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m)
    in
    charge_link t lstats;
    img
  in
  let t0 = Telemetry.now_us () in
  (* the link and its simulated-cost charges share one span, so the
     profiler attributes the whole link phase to "server.link" *)
  let img =
    Telemetry.Provenance.with_frame frame (fun () ->
        Telemetry.with_span "server.link" link)
  in
  Telemetry.Histogram.observe tm_link_us (Telemetry.now_us () -. t0);
  let provenance =
    Telemetry.Provenance.capture frame ~key:job.jkey ~text_base ~data_base
      ~placement ~generation:(Cache.generation t.cache)
  in
  Telemetry.Provenance.note_built ~name provenance;
  let e =
    Cache.insert t.cache ~key:job.jkey ~text_base ~data_base ~provenance
      { img with Linker.Image.name }
  in
  note t.residency e;
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
          c_got = text_base;
        }
        :: t.conflicts
  | None -> ());
  spawn_stage t job "map" (stage_map t job { entry = e })

(* place (single): the unbatched path — one solver pass per request. *)
and stage_place_single (t : t) (job : job) () : unit =
  Simos.Kernel.charge_sys t.kernel
    t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
  Telemetry.Histogram.observe tm_batch_size 1.0;
  place_jobs t ~pass:(fun f -> f ()) [ job ];
  spawn_stage t job "link" (stage_link t job)

(* eval: force the m-graph (misses only — hits never re-evaluate). *)
and stage_eval (t : t) (job : job) () : unit =
  t.work.instantiations <- t.work.instantiations + 1;
  let r =
    Telemetry.Provenance.with_frame (Option.get job.jframe) @@ fun () ->
    eval_with t job.jtree (Option.get job.jgraph)
  in
  job.jeval <- Some r;
  match job.jreq with
  | Static _ -> spawn_stage t job "link" (stage_link t job)
  | Library _ ->
      let text_size, data_size = module_sizes r.Blueprint.Mgraph.m in
      job.jtext_size <- max text_size 1;
      job.jdata_size <- max data_size 1;
      if t.batch_place then begin
        (* park at the place barrier; the pump loop flushes the whole
           queue as one constraint pass when nothing else can run. No
           time is charged between here and the end of the eval stage,
           so the park timestamp tiles exactly against the segment. *)
        Telemetry.Causal.park job.jtl Telemetry.Causal.Batch
          ~at:(Telemetry.now_us ()) ();
        t.place_q <- job :: t.place_q
      end
      else spawn_stage t job "place" (stage_place_single t job)

(* lint: open the build's binding-journal frame and replay the
   registration-time findings into it, so every build of the meta
   carries them; one Coalesced event for each follower that coalesced
   onto this build before its frame existed follows the findings. *)
and stage_lint (t : t) (job : job) () : unit =
  let frame = Telemetry.Provenance.open_frame () in
  job.jframe <- Some frame;
  Option.iter
    (fun tree ->
      Telemetry.Provenance.with_frame frame @@ fun () ->
      List.iter
        (fun (f : Analysis.Lint.finding) ->
          Telemetry.Provenance.record_lint ~code:f.Analysis.Lint.code
            ~severity:(Analysis.Lint.severity_to_string f.Analysis.Lint.severity)
            ~path:f.Analysis.Lint.path f.Analysis.Lint.message)
        tree.Analysis.Impact.t_report.Analysis.Lint.findings)
    job.jtree;
  List.iter
    (fun _ ->
      Telemetry.Provenance.record_coalesced_into frame ~leader_request:job.jt)
    job.jfollowers;
  spawn_stage t job "eval" (stage_eval t job)

(* parse: resolve the target, fix the cache key (a library's tree's root
   digest, a static graph's construction digest), and serve cache hits
   without touching the build stages. A job whose key is already being
   built parks as a waiter (request coalescing). *)
and stage_parse (t : t) (job : job) () : unit =
  let name, graph, digest, externals =
    match job.jreq with
    | Library { path } ->
        (* every bound meta has a tree: [find_meta] says what else [path] is *)
        let tree =
          try Hashtbl.find t.impact_trees path
          with Not_found -> ignore (find_meta t path); raise Not_found
        in
        job.jtree <- Some tree;
        ( path,
          tree.Analysis.Impact.t_graph,
          tree.Analysis.Impact.t_root.Analysis.Lint.i_digest,
          [] )
    | Static { name; graph; externals } ->
        (name, graph, Blueprint.Mgraph.digest graph, externals)
  in
  job.jname <- name;
  job.jgraph <- Some graph;
  job.jkey <-
    job.jtl.Telemetry.Causal.g_target ^ ":" ^ digest
    ^ String.concat ""
        (List.map (fun i -> ":" ^ Linker.Image.digest i) externals);
  let hit (e : Cache.entry) =
    job.jhit <- true;
    spawn_stage t job "map" (stage_map t job { entry = e })
  in
  let fresh () =
    Hashtbl.replace t.building job.jkey job;
    spawn_stage t job "lint" (stage_lint t job)
  in
  match Hashtbl.find_opt t.building job.jkey with
  | Some leader ->
      Telemetry.Counter.incr tm_coalesced;
      (* journal the fold on the leader's build so [ofe explain] can
         show this hit was served by another in-flight request (a
         leader whose frame is not open yet replays it at lint) *)
      (match leader.jframe with
      | Some f ->
          Telemetry.Provenance.record_coalesced_into f ~leader_request:leader.jt
      | None -> ());
      Telemetry.Causal.park job.jtl Telemetry.Causal.Coalesce ~on:leader.jt
        ~at:(Telemetry.now_us ()) ();
      leader.jfollowers <- job :: leader.jfollowers
  | None -> (
      match job.jreq with
      | Static _ -> (
          match Cache.find t.cache job.jkey ~acceptable:(fun _ -> true) with
          | Some e -> hit e
          | None -> fresh ())
      | Library _ -> (
          let acceptable = Residency.acceptable t.residency ~owner:name in
          match Cache.find t.cache job.jkey ~acceptable with
          | Some e -> (
              (* re-establish the reservation of the revived placement *)
              match Residency.reacquire t.residency ~owner:name e with
              | Ok () -> hit e
              | Error _conflicting ->
                  (* the range was taken between the acceptability check
                     and the reservation (or a reserve fault fired):
                     rebuild as an alternate placement *)
                  job.jreacquire_conflict <- Some e.Cache.text_base;
                  fresh ())
          | None ->
              (* stale candidates whose reservations are gone drop to
                 Evicted so they can never shadow the fresh construction,
                 and release their mapped image as an evicted one does *)
              List.iter
                (fun e ->
                  if Residency.demote_if_lost t.residency e then drop_mapped t [ e ])
                (Cache.candidates t.cache job.jkey);
              fresh ()))

(* Flush the place barrier: solve every parked placement in one
   constraint pass per arena (ticket order), one solver charge for the
   whole batch — N queued requests, one ["constraints.place_batch"] span
   per arena instead of N passes. Each member is placed as the
   unbatched path places it. *)
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
      Simos.Kernel.charge_sys t.kernel
        t.kernel.Simos.Kernel.cost.Simos.Cost.place_solve;
      place_jobs t jobs ~pass:(fun f ->
          Telemetry.with_span "constraints.place_batch"
            ~attrs:[ ("n", Telemetry.I n) ]
          @@ fun () ->
          Telemetry.Counter.incr tm_batch_solves;
          f ());
      let t1 = Telemetry.now_us () in
      Telemetry.Histogram.observe tm_place_us (t1 -. t0);
      List.iter
        (fun j ->
          Telemetry.Causal.unpark j.jtl ~at:t0 ();
          (* the member solves charge nothing, so the whole flush is
             the one shared solve: a segment of every member, none of
             it the member's own *)
          Telemetry.Causal.segment j.jtl ~stage:"place" ~t0 ~t1 ~self:0.0 ();
          j.jtl.Telemetry.Causal.g_solver_us <- t1 -. t0;
          spawn_stage t j "link" (stage_link t j))
        jobs

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
  let job =
    {
      jt = id;
      jclient = client;
      jreq = req;
      jtl =
        Telemetry.Causal.begin_request ~id ~client
          ~target:(target_label req) ~at:(Telemetry.now_us ());
      jhit = false;
      jname = "";
      jkey = "";
      jgraph = None;
      jtree = None;
      jeval = None;
      jtext_size = 1;
      jdata_size = 1;
      jtdec = None;
      jddec = None;
      jframe = None;
      jreacquire_conflict = None;
      jfollowers = [];
      joutcome = None;
    }
  in
  Hashtbl.replace t.jobs id job;
  t.inflight <- t.inflight + 1;
  Telemetry.Counter.incr tm_submitted;
  Telemetry.Histogram.observe tm_depth (float_of_int t.inflight);
  (* the eviction-storm fault, when enabled, empties the cache at
     admission — the request must then rebuild and re-place *)
  Telemetry.Request.within ~client ~id (fun () ->
      drop_mapped t (Residency.maybe_evict_storm t.residency));
  spawn_stage t job "parse" (stage_parse t job);
  id

(* Drive the pipeline until [stop ()] holds or nothing is left to run:
   a ready stage runs first; when none is, the place barrier flushes. *)
let rec pump (t : t) ~(stop : unit -> bool) : unit =
  if
    (not (stop ()))
    && (Simos.Sched.step t.sched
       || (t.place_q <> [] && (flush_place t; true)))
  then pump t ~stop

(** Run the pipeline until every submitted request has completed. *)
let drain (t : t) : unit =
  if not (Simos.Sched.running t.sched) then pump t ~stop:(fun () -> false)

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
  | Some job -> (
      pump t ~stop:(fun () -> job.joutcome <> None);
      match job.joutcome with
      | Some _ -> deliver t tk job
      | None -> fail "pipeline stalled awaiting ticket %d" tk)

(** Serve one instantiation request synchronously: submit it, drive the
    pipeline until it completes. Opens the root ["omos.instantiate"]
    span; evaluation, placement, linking and caching all nest under it.
    A call from inside a running stage (a specializer evaluating a
    graph, say) raises [Server_error] naming its target, which fails
    the enclosing request: nested instantiation is not supported. *)
let instantiate (t : t) (req : request) : response =
  if Simos.Sched.running t.sched then
    fail "nested instantiate of %s: called from inside a pipeline stage"
      (target_label req);
  Telemetry.with_span "omos.instantiate"
    ~attrs:[ ("target", Telemetry.S (target_label req)) ]
  @@ fun () ->
  let resp = await t (submit t req) in
  Telemetry.add_attr "cache_hit" (Telemetry.B resp.cache_hit);
  resp

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
    reused. A later request for an evicted construction rebuilds it,
    placed afresh: wherever the arenas have room then, which is not
    necessarily where it was. Every evicted entry that was mapped
    releases its cached image. *)
let evict_to_budget (t : t) ~(bytes : int) : int =
  Telemetry.Request.with_request "evict" @@ fun () ->
  let victims = Residency.evict_to_budget t.residency ~bytes in
  drop_mapped t victims;
  List.length victims

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
    — no file opening, no header parsing, no disk reads. Every client
    of a cache entry, the one whose request built it included, maps the
    image the entry's first mapping cached ([Cache.entry.mapped]),
    labelled with the entry's cache key. *)
let map_into (t : t) ?(touch_user_cost = 0.0) (p : Simos.Proc.t) (b : built) :
    unit =
  let e = b.entry in
  if e.Cache.residency = Cache.Evicted then
    fail "map_into: cached image of %s was evicted; re-instantiate it"
      e.Cache.image.Linker.Image.name;
  if Option.is_none e.Cache.mapped then
    e.Cache.mapped <- Some (Simos.Kernel.cache_image t.kernel ~label:e.Cache.key e.Cache.image);
  Simos.Kernel.map_image t.kernel p ~touch_user_cost (Option.get e.Cache.mapped)

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
