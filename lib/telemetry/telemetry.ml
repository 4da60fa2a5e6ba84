(** Structured tracing and metrics for the OMOS request path.

    The paper sells OMOS on {e measured} wins — link work avoided, cache
    hits, map-time costs (§3.1, §5) — so the reproduction carries a
    first-class observation layer: hierarchical spans over every request
    phase (blueprint eval → merge/override → placement → relocation →
    map), plus a registry of monotonic counters, gauges, and histograms
    that the server, linker, cache, constraint system, and simulated
    kernel all feed.

    Design points:

    - One global collector. The simulation is single-threaded and a
      process hosts one "world" at a time; a global sink keeps
      instrumentation call sites to a single line.
    - Counters/gauges/histograms are {e always on} (a few word writes).
      Spans are recorded only while {!set_enabled}[ true]; while off,
      {!with_span} is a direct call of its body, so steady-state
      benchmarks pay nothing for the tracing machinery.
    - One way to record a span, {!with_span}; {!add_attr} annotates the
      innermost open one. The simulated-cost profiler rides the same
      stack: each open span carries its root-to-leaf path, built once
      when it opens.
    - Timestamps come from the flight recorder's clock ({!set_clock});
      {!Server.create} points it at the simulated clock, so exported
      traces are in {e simulated} microseconds — the unit every table in
      the paper uses.
    - Exporters: the Chrome [trace_event] format ({!Export.chrome},
      loadable in about://tracing or Perfetto) and the stable-schema
      [omos.metrics/1] and [omos.hotspots/1] objects. *)

(* -- attribute values ----------------------------------------------------- *)

type value = S of string | I of int | F of float | B of bool

type attr = string * value

(* -- global collector state ----------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, or -1 for a root *)
  depth : int;
  name : string;
  start_us : float;
  mutable end_us : float;  (** nan while the span is open *)
  mutable attrs : attr list;
}

(* An open span and its profile path: the root-to-leaf span names
   joined with ";", the parent's path plus this span's name. *)
type live = { span : span; path : string }

let enabled = ref false
let next_id = ref 0
let open_stack : live list ref = ref []
let completed : span list ref = ref [] (* reverse completion order *)

let set_enabled b = enabled := b
let is_enabled () = !enabled

(* the flight recorder's clock is the only one: span and ring
   timestamps read the same time source *)
let set_clock = Flight.set_clock
let now_us = Flight.now_us

(* -- spans ----------------------------------------------------------------- *)

let open_span (attrs : attr list) (name : string) : span =
  incr next_id;
  let parent, depth, path =
    match !open_stack with
    | [] -> (-1, 0, name)
    | p :: _ -> (p.span.id, p.span.depth + 1, p.path ^ ";" ^ name)
  in
  (* spans opened inside a request carry its attribution *)
  let attrs =
    let c = Flight.current_client () and r = Flight.current_request () in
    if r < 0 then attrs else attrs @ [ ("client", I c); ("request", I r) ]
  in
  let span =
    { id = !next_id; parent; depth; name; start_us = now_us ();
      end_us = Float.nan; attrs }
  in
  open_stack := { span; path } :: !open_stack;
  Flight.emit Flight.Span_enter name "" (float_of_int span.id);
  span

(* Spans close in the order they opened ([with_span] is the only
   opener), so closing one pops it and reinstates [outer]. *)
let close_span (outer : live list) (s : span) : unit =
  s.end_us <- now_us ();
  open_stack := outer;
  completed := s :: !completed;
  Flight.emit Flight.Span_exit s.name "" (float_of_int s.id)

let with_span ?(attrs = []) (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let outer = !open_stack in
    let span = open_span attrs name in
    match f () with
    | v ->
        close_span outer span;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_span outer span;
        Printexc.raise_with_backtrace e bt
  end

let add_attr (key : string) (v : value) : unit =
  if !enabled then
    match !open_stack with
    | [] -> ()
    | { span = s; _ } :: _ -> s.attrs <- s.attrs @ [ (key, v) ]

(** Completed spans, in completion order (children before parents). *)
let spans () : span list = List.rev !completed

(* -- simulated-cost profiler ------------------------------------------------ *)

(** Attribution of {!Simos.Cost} charges to the live span stack. Every
    [Simos.Clock.charge_*] call forwards here; while spans are
    recorded, the charge is credited to the innermost open span's
    {e path} (root-to-leaf span names joined with [";"] — exactly the
    folded-stack key flamegraph tools consume). Charges arriving
    outside any span accumulate under ["(unattributed)"], so the folded
    output always sums to the total charged. *)
module Profile = struct
  type kind = User | System | Io

  type cell = {
    mutable p_user : float;
    mutable p_system : float;
    mutable p_io : float;
  }

  let table : (string, cell) Hashtbl.t = Hashtbl.create 32

  let clear () = Hashtbl.reset table

  let unattributed = "(unattributed)"

  let charge (k : kind) (us : float) : unit =
    if !enabled && us <> 0.0 then begin
      let path = match !open_stack with [] -> unattributed | f :: _ -> f.path in
      let c =
        match Hashtbl.find table path with
        | c -> c
        | exception Not_found ->
            let c = { p_user = 0.0; p_system = 0.0; p_io = 0.0 } in
            Hashtbl.replace table path c;
            c
      in
      match k with
      | User -> c.p_user <- c.p_user +. us
      | System -> c.p_system <- c.p_system +. us
      | Io -> c.p_io <- c.p_io +. us
    end

  let cell_total (c : cell) : float = c.p_user +. c.p_system +. c.p_io

  (** (path, user, system, io) rows, sorted by path. *)
  let rows () : (string * float * float * float) list =
    Hashtbl.fold (fun p c acc -> (p, c.p_user, c.p_system, c.p_io) :: acc) table []
    |> List.sort compare

  (** Folded-stack lines: (path, total us), sorted by path. *)
  let folded () : (string * float) list =
    Hashtbl.fold (fun p c acc -> (p, cell_total c) :: acc) table []
    |> List.sort compare

  let total () : float =
    Hashtbl.fold (fun _ c acc -> acc +. cell_total c) table 0.0

  (** Per-operator totals: cost keyed by the innermost span name of each
      path, sorted by descending cost then name. *)
  let by_leaf () : (string * float) list =
    let leaves : (string, float) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun path c ->
        let leaf =
          match String.rindex_opt path ';' with
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
          | None -> path
        in
        let prev = Option.value (Hashtbl.find_opt leaves leaf) ~default:0.0 in
        Hashtbl.replace leaves leaf (prev +. cell_total c))
      table;
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) leaves []
    |> List.sort (fun (l1, v1) (l2, v2) ->
           match compare v2 v1 with 0 -> compare l1 l2 | c -> c)
end

(* -- metrics registry ------------------------------------------------------- *)

module Counter = struct
  type t = { c_name : string; mutable count : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  (* Interned: the same name always yields the same counter, so module
     initializers can hold a handle while exporters walk the registry. *)
  let make (name : string) : t =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { c_name = name; count = 0 } in
        Hashtbl.replace registry name c;
        c

  let incr ?(by = 1) (c : t) : unit =
    c.count <- c.count + by;
    Flight.emit Flight.Count c.c_name "" (float_of_int by)

  let value (c : t) : int = c.count
  let get (name : string) : int = (make name).count
end

module Gauge = struct
  let registry : (string, float) Hashtbl.t = Hashtbl.create 32

  let set (name : string) (v : float) : unit =
    Hashtbl.replace registry name v;
    Flight.emit Flight.Gauge_set name "" v
end

(** Nearest-rank percentile of an ascending-sorted sample ([q] in
    [0,100]); [0] when the sample is empty. *)
let nearest_rank (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

module Histogram = struct
  (* Bounded memory: count/sum/min/max plus a fixed-size sample
     reservoir for percentiles — safe to feed from per-syscall paths
     that fire millions of times. Reservoir replacement uses a
     per-histogram xorshift stream seeded from the name, so the same
     observation sequence always keeps the same samples (the simulated
     world is deterministic and the exports must be too). *)
  let reservoir_cap = 512

  type t = {
    h_name : string;
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
    samples : float array; (* valid in [0, filled) *)
    mutable filled : int;
    seed : int;
    mutable rng : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make (name : string) : t =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let seed = (Hashtbl.hash name land 0xFFFFFF) lor 1 in
        let h =
          { h_name = name; n = 0; sum = 0.0; minv = infinity; maxv = neg_infinity;
            samples = Array.make reservoir_cap 0.0; filled = 0; seed; rng = seed }
        in
        Hashtbl.replace registry name h;
        h

  let observe (h : t) (v : float) : unit =
    Flight.emit Flight.Observe h.h_name "" v;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.minv then h.minv <- v;
    if v > h.maxv then h.maxv <- v;
    if h.filled < reservoir_cap then begin
      h.samples.(h.filled) <- v;
      h.filled <- h.filled + 1
    end
    else begin
      (* classic reservoir sampling: keep with probability cap/n *)
      let x = h.rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      h.rng <- (x land max_int) lor 1;
      let slot = h.rng mod h.n in
      if slot < reservoir_cap then h.samples.(slot) <- v
    end

  let count (h : t) : int = h.n
  let sum (h : t) : float = h.sum
  let mean (h : t) : float = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n
  let min_value (h : t) : float = if h.n = 0 then 0.0 else h.minv
  let max_value (h : t) : float = if h.n = 0 then 0.0 else h.maxv

  (** Nearest-rank percentile over the reservoir ([q] in [0,100]);
      exact while fewer than [reservoir_cap] observations arrived. *)
  let percentile (h : t) (q : float) : float =
    let a = Array.sub h.samples 0 h.filled in
    Array.sort compare a;
    nearest_rank a q
end

(* Count flight-recorder dumps, labeled by cause: flight.ml sits below
   the metrics registry in the module graph, so it reports each dump
   through this hook instead of incrementing counters itself. The cause
   label is the first word of the dump reason ("fault", "overload",
   "ofe", ...). *)
let () =
  Flight.set_on_dump (fun reason ->
      let cause =
        match String.index_opt reason ' ' with
        | Some i -> String.sub reason 0 i
        | None -> reason
      in
      Counter.incr (Counter.make "flight.dumps");
      if cause <> "" then Counter.incr (Counter.make ("flight.dumps." ^ cause)))

(* -- continuous hotness profiling -------------------------------------------- *)

(** The hotness store: every {!Monitor} trace event flowing through the
    server's monitor specializer is aggregated here, keyed by the
    monitored meta path (or blueprint digest), across requests — the
    always-on sensing layer of the paper's §4.1 reordering loop.

    Events live in a deterministic rolling window ({!window_cap} most
    recent calls); windowed statistics — per-key call counts, first-call
    order, caller→callee transition pairs — are derived by replaying the
    window, so equal event sequences always serialize byte-identically.
    A cumulative per-key table (since the last reset) additionally
    tracks the identity of each key's hottest function; every change of
    identity is "churn" ([hotness.top_changes]), an input to
    {!Health}. *)
module Hotness = struct
  let window_cap = 4096

  (* the rolling window: parallel arrays of (key, function) call events *)
  let ev_key : string array = Array.make window_cap ""
  let ev_fn : string array = Array.make window_cap ""
  let total = ref 0

  let events = Counter.make "hotness.events"
  let top_changes = Counter.make "hotness.top_changes"

  (* cumulative since reset: per-key counts plus the current hottest
     function, kept incrementally so churn detection is O(1) per call *)
  type krec = {
    counts : (string, int) Hashtbl.t;
    mutable top_fn : string;
    mutable top_n : int;
  }

  let cum : (string, krec) Hashtbl.t = Hashtbl.create 8

  (* latest layout audit per key: (pages_actual, pages_optimal,
     pages_reordered) — fed by the locality auditor in lib/core *)
  let audits : (string, int * int * int) Hashtbl.t = Hashtbl.create 8

  let total_events () : int = !total

  (* The current hot set, for flight-ring notes: "key=fn:count" pairs,
     sorted by key, capped so ring entries stay bounded. *)
  let hot_set_label () : string =
    let rows =
      Hashtbl.fold (fun k r acc -> (k, r.top_fn, r.top_n) :: acc) cum []
      |> List.sort compare
    in
    let rows = List.filteri (fun i _ -> i < 6) rows in
    String.concat ","
      (List.map (fun (k, f, n) -> Printf.sprintf "%s=%s:%d" k f n) rows)

  (** Record one monitored function entry under [key]. *)
  let record_call ~(key : string) (fn : string) : unit =
    let i = !total mod window_cap in
    ev_key.(i) <- key;
    ev_fn.(i) <- fn;
    incr total;
    Counter.incr events;
    let r =
      match Hashtbl.find_opt cum key with
      | Some r -> r
      | None ->
          let r = { counts = Hashtbl.create 16; top_fn = ""; top_n = 0 } in
          Hashtbl.replace cum key r;
          r
    in
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt r.counts fn) in
    Hashtbl.replace r.counts fn n;
    if fn = r.top_fn then r.top_n <- n
    else if n > r.top_n then begin
      if r.top_fn <> "" then begin
        Counter.incr top_changes;
        Flight.emit Flight.Note "hotness.top" (key ^ " -> " ^ fn)
          (float_of_int n)
      end;
      r.top_fn <- fn;
      r.top_n <- n
    end;
    (* periodic hot-set snapshot, so any anomaly dump carries it *)
    if !total mod 256 = 0 then
      Flight.emit Flight.Note "hotness.hotset" (hot_set_label ())
        (float_of_int !total)

  (* window replay, oldest first *)
  let window_events () : (string * string) list =
    let n = min !total window_cap in
    List.init n (fun k ->
        let i = (!total - n + k) mod window_cap in
        (ev_key.(i), ev_fn.(i)))

  let keys () : string list =
    List.sort_uniq compare (List.map fst (window_events ()))

  type stat = {
    hs_key : string;
    hs_calls : int;  (** call events for this key in the window *)
    hs_functions : (string * int) list;
        (** per-function call counts, hottest first (name breaks ties) *)
    hs_first_call : string list;  (** first-call order within the window *)
    hs_transitions : ((string * string) * int) list;
        (** consecutive-call (caller → callee) pairs, hottest first *)
  }

  let stats () : stat list =
    let evs = window_events () in
    List.map
      (fun key ->
        let fns = List.filter_map (fun (k, f) -> if k = key then Some f else None) evs in
        let counts = Hashtbl.create 16 in
        let seen = Hashtbl.create 16 in
        let first = ref [] in
        let trans = Hashtbl.create 16 in
        let prev = ref None in
        List.iter
          (fun f ->
            Hashtbl.replace counts f
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts f));
            if not (Hashtbl.mem seen f) then begin
              Hashtbl.replace seen f ();
              first := f :: !first
            end;
            (match !prev with
            | Some p ->
                Hashtbl.replace trans (p, f)
                  (1 + Option.value ~default:0 (Hashtbl.find_opt trans (p, f)))
            | None -> ());
            prev := Some f)
          fns;
        let by_count_desc c1 c2 n1 n2 =
          match compare n2 n1 with 0 -> compare c1 c2 | c -> c
        in
        {
          hs_key = key;
          hs_calls = List.length fns;
          hs_functions =
            Hashtbl.fold (fun f n acc -> (f, n) :: acc) counts []
            |> List.sort (fun (f1, n1) (f2, n2) -> by_count_desc f1 f2 n1 n2);
          hs_first_call = List.rev !first;
          hs_transitions =
            Hashtbl.fold (fun p n acc -> (p, n) :: acc) trans []
            |> List.sort (fun (p1, n1) (p2, n2) -> by_count_desc p1 p2 n1 n2);
        })
      (keys ())

  let stat_for (key : string) : stat option =
    List.find_opt (fun s -> s.hs_key = key) (stats ())

  (** The hottest (key, function, windowed calls) across all keys, if
      any events were recorded. *)
  let hottest () : (string * string * int) option =
    List.fold_left
      (fun acc s ->
        match (s.hs_functions, acc) with
        | [], _ -> acc
        | (f, n) :: _, None -> Some (s.hs_key, f, n)
        | (f, n) :: _, Some (_, _, bn) when n > bn -> Some (s.hs_key, f, n)
        | _ -> acc)
      None (stats ())

  (** Record the latest layout-locality audit for [key] (called by the
      auditor in lib/core): distinct text pages the traced working set
      touches under the actual fragment order, under the optimal packed
      layout, and after {!Reorder}-style reordering. Sets the
      [hotness.headroom_pages.<key>] gauge and notes the result in the
      flight ring. *)
  let note_audit ~(key : string) ~(pages_actual : int) ~(pages_optimal : int)
      ~(pages_reordered : int) : unit =
    Hashtbl.replace audits key (pages_actual, pages_optimal, pages_reordered);
    Gauge.set ("hotness.headroom_pages." ^ key)
      (float_of_int (pages_actual - pages_optimal));
    Flight.emit Flight.Note "hotness.headroom" key
      (float_of_int (pages_actual - pages_optimal))

  let audit_pages (key : string) : (int * int * int) option =
    Hashtbl.find_opt audits key

  (** The largest audited headroom (actual - optimal pages) across all
      keys; 0 when nothing was audited. *)
  let max_headroom () : int =
    Hashtbl.fold (fun _ (a, o, _) acc -> max acc (a - o)) audits 0

  let reset_state () : unit =
    total := 0;
    Hashtbl.reset cum;
    Hashtbl.reset audits
end

(* -- run metadata ------------------------------------------------------------ *)

(** Reproducibility metadata carried as the ["meta"] object of every
    [omos.metrics/1] snapshot: the server records its scheduler seed,
    batch-placement knob, and queue limit here (at creation and on every
    knob change), so an exported run can be re-created from the snapshot
    alone. Survives {!reset} — this is configuration, not
    measurement. *)
module Runinfo = struct
  let registry : (string, value) Hashtbl.t = Hashtbl.create 8

  let set (key : string) (v : value) : unit = Hashtbl.replace registry key v

  let sorted () : (string * value) list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry []
    |> List.sort compare
end

(* -- request attribution ----------------------------------------------------- *)

(** Request-scoped attribution. The server is persistent and serves
    many clients (paper §2, §4.1): every entry point — instantiate,
    exec, dynload, evict — opens a request here, which assigns a
    monotonic request id and inherits (or sets) the client id. The live
    [(client, request)] pair is the flight recorder's context, the one
    every span, counter increment, transition, and fault recorded
    underneath is stamped with; {!within} sets it for the length of a
    call. Requests nest (a partial-image client's first call to a
    stubbed routine binds it with an instantiate inside the [exec]
    request); ids stay monotonic across the nesting. *)
module Request = struct
  let next = ref 0
  let ambient_client = ref 0

  (** Set the ambient client id inherited by requests opened outside
      any enclosing request (a driver sets this before each simulated
      client's operation). *)
  let set_client (c : int) : unit = ambient_client := c

  let current_client () = Flight.current_client ()
  let current_request () = Flight.current_request ()

  (** The client id a request opened right now would inherit: the
      innermost open request's, else the ambient one. *)
  let effective_client () =
    if Flight.current_request () >= 0 then Flight.current_client ()
    else !ambient_client

  (** The most recently assigned request id, [-1] if none yet. *)
  let last_id () = !next - 1

  (** Run [f] with [(client, id)] as the live context, then reinstall
      the previous one — on return and on exception alike. *)
  let within ~(client : int) ~(id : int) (f : unit -> 'a) : 'a =
    let prev_client = Flight.current_client ()
    and prev_request = Flight.current_request () in
    Flight.set_context ~client ~request:id;
    match f () with
    | v ->
        Flight.set_context ~client:prev_client ~request:prev_request;
        v
    | exception e ->
        Flight.set_context ~client:prev_client ~request:prev_request;
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

  (** Assign a request id and emit [Request_begin] under it, leaving
      the context as it was. Returns the id (pair it with {!within}
      around each stage and {!end_detached} at completion). *)
  let begin_detached ?client (kind : string) : int =
    let client = match client with Some c -> c | None -> effective_client () in
    let id = !next in
    incr next;
    within ~client ~id (fun () ->
        Flight.emit Flight.Request_begin kind "" (float_of_int id));
    id

  (** Emit [Request_end] for a detached request. *)
  let end_detached ~(client : int) ~(id : int) (kind : string) : unit =
    within ~client ~id (fun () ->
        Flight.emit Flight.Request_end kind "" (float_of_int id))

  (** Run [f] inside a fresh request of [kind] (ends on exceptions
      too). *)
  let with_request ?client (kind : string) (f : unit -> 'a) : 'a =
    let client = match client with Some c -> c | None -> effective_client () in
    let id = begin_detached ~client kind in
    Fun.protect
      ~finally:(fun () -> end_detached ~client ~id kind)
      (fun () -> within ~client ~id f)

  let reset_state () =
    next := 0;
    ambient_client := 0;
    Flight.clear_context ()
end

(* -- rolling health --------------------------------------------------------- *)

(** Rolling-window health over the instantiate request stream: cache
    hit ratio, cost percentiles, and per-request conflict and
    invariant-violation rates — the quantities [ofe top] tabulates and
    [ofe health --slo] gates on. {!record} is called by the server once
    per instantiate; conflict/violation counters are sampled at record
    time so window rates need no extra plumbing. *)
module Health = struct
  let window_cap = 256

  let costs = Array.make window_cap 0.0
  let hits = Array.make window_cap (-1) (* 1 hit, 0 miss, -1 unknown *)
  let conflicts_at = Array.make window_cap 0
  let violations_at = Array.make window_cap 0
  let topchg_at = Array.make window_cap 0 (* hotness top-function churn *)
  let queues = Array.make window_cap 0.0 (* pipeline depth at completion *)
  let waits = Array.make window_cap 0.0 (* wait share of each request *)
  let total = ref 0

  let record ?hit ?(queue_depth = 0) ?(wait_frac = 0.0) ~(cost_us : float) () :
      unit =
    let i = !total mod window_cap in
    costs.(i) <- cost_us;
    hits.(i) <- (match hit with Some true -> 1 | Some false -> 0 | None -> -1);
    conflicts_at.(i) <- Counter.get "server.arena_conflicts";
    violations_at.(i) <- Counter.get "residency.invariant_violations";
    topchg_at.(i) <- Counter.get "hotness.top_changes";
    queues.(i) <- float_of_int queue_depth;
    waits.(i) <- wait_frac;
    incr total

  type snapshot = {
    requests : int;  (** requests recorded since the last reset *)
    window : int;  (** samples in the rolling window *)
    hit_ratio : float;  (** over window samples with hit/miss info *)
    p50_us : float;
    p95_us : float;
    p99_us : float;
    mean_us : float;
    max_us : float;
    conflict_rate : float;  (** arena conflicts per windowed request *)
    violation_rate : float;  (** invariant violations per windowed request *)
    max_queue_depth : float;  (** deepest pipeline backlog in the window *)
    headroom_pages : float;
        (** largest audited locality headroom (actual - optimal pages)
            across resident images, from {!Hotness} *)
    hot_churn : float;  (** hot-function identity changes per windowed request *)
    hot_fn : string;  (** hottest monitored function ("-" when none) *)
    wait_frac : float;
        (** mean share of request latency spent waiting (queue, batch
            park, coalesce) rather than working, over the window *)
    wait_frac_p95 : float;  (** p95 of the per-request wait share *)
  }

  let snapshot () : snapshot =
    (* hotness reads are live, not sampled: headroom and the hot
       function are identities, not rates, so the latest value is the
       right answer even for an empty cost window *)
    let headroom_pages = float_of_int (Hotness.max_headroom ()) in
    let hot_fn =
      match Hotness.hottest () with Some (_, f, _) -> f | None -> "-"
    in
    let n = min !total window_cap in
    if n = 0 then
      { requests = 0; window = 0; hit_ratio = 1.0; p50_us = 0.0; p95_us = 0.0;
        p99_us = 0.0; mean_us = 0.0; max_us = 0.0; conflict_rate = 0.0;
        violation_rate = 0.0; max_queue_depth = 0.0; headroom_pages;
        hot_churn = 0.0; hot_fn; wait_frac = 0.0; wait_frac_p95 = 0.0 }
    else begin
      let idx k = (!total - n + k) mod window_cap in
      let w = Array.init n (fun k -> costs.(idx k)) in
      let sorted = Array.copy w in
      Array.sort compare sorted;
      let sum = Array.fold_left ( +. ) 0.0 w in
      let hs = List.init n (fun k -> hits.(idx k)) in
      let known = List.filter (fun h -> h >= 0) hs in
      let hit_ratio =
        match known with
        | [] -> 1.0
        | ks ->
            float_of_int (List.length (List.filter (fun h -> h = 1) ks))
            /. float_of_int (List.length ks)
      in
      let delta a = float_of_int (a (idx (n - 1)) - a (idx 0)) in
      let ws = Array.init n (fun k -> waits.(idx k)) in
      let wsorted = Array.copy ws in
      Array.sort compare wsorted;
      {
        requests = !total;
        window = n;
        hit_ratio;
        p50_us = nearest_rank sorted 50.0;
        p95_us = nearest_rank sorted 95.0;
        p99_us = nearest_rank sorted 99.0;
        mean_us = sum /. float_of_int n;
        max_us = sorted.(n - 1);
        conflict_rate = delta (Array.get conflicts_at) /. float_of_int n;
        violation_rate = delta (Array.get violations_at) /. float_of_int n;
        max_queue_depth =
          Array.fold_left max 0.0 (Array.init n (fun k -> queues.(idx k)));
        headroom_pages;
        hot_churn = delta (Array.get topchg_at) /. float_of_int n;
        hot_fn;
        wait_frac = Array.fold_left ( +. ) 0.0 ws /. float_of_int n;
        wait_frac_p95 = nearest_rank wsorted 95.0;
      }
    end

  (* Every SLO key, once: its name, whether it is a lower or an upper
     bound, and the snapshot field it bounds. [parse_slo] accepts these
     keys and [check] reports them in this order. *)
  type side = Lower | Upper

  let slo_keys : (string * side * (snapshot -> float)) list =
    [
      ("hit_ratio_min", Lower, fun s -> s.hit_ratio);
      ("p95_us_max", Upper, fun s -> s.p95_us);
      ("p99_us_max", Upper, fun s -> s.p99_us);
      ("conflict_rate_max", Upper, fun s -> s.conflict_rate);
      ("violation_rate_max", Upper, fun s -> s.violation_rate);
      ("queue_depth_max", Upper, fun s -> s.max_queue_depth);
      ("headroom_pages_max", Upper, fun s -> s.headroom_pages);
      ("hot_churn_max", Upper, fun s -> s.hot_churn);
      ("wait_frac_max", Upper, fun s -> s.wait_frac);
      ("wait_frac_p95_max", Upper, fun s -> s.wait_frac_p95);
    ]

  (* the configured bounds, newest first: a key given twice keeps its
     last value *)
  type slo = (string * float) list

  exception Slo_error of string

  (** Parse the line-oriented SLO format: one [key value] pair per
      line, [#] comments and blank lines ignored; the keys are those of
      [slo_keys]. *)
  let parse_slo (src : string) : slo =
    List.fold_left
      (fun acc line ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          List.filter (fun w -> w <> "")
            (String.split_on_char ' ' (String.trim line))
        with
        | [] -> acc
        | [ key; v ] ->
            let f =
              match float_of_string_opt v with
              | Some f -> f
              | None -> raise (Slo_error ("bad SLO value: " ^ line))
            in
            if not (List.exists (fun (k, _, _) -> k = key) slo_keys) then
              raise (Slo_error ("unknown SLO key: " ^ key));
            (key, f) :: acc
        | _ -> raise (Slo_error ("bad SLO line: " ^ line)))
      [] (String.split_on_char '\n' src)

  (** Evaluate a snapshot against an SLO: one
      [(name, bound, actual, ok)] row per configured bound. *)
  let check (s : slo) (snap : snapshot) : (string * float * float * bool) list =
    List.filter_map
      (fun (key, side, field) ->
        Option.map
          (fun bound ->
            let actual = field snap in
            ( key,
              bound,
              actual,
              match side with Lower -> actual >= bound | Upper -> actual <= bound ))
          (List.assoc_opt key s))
      slo_keys

  let ok (checks : (string * float * float * bool) list) : bool =
    List.for_all (fun (_, _, _, ok) -> ok) checks

  let reset_state () = total := 0
end

(* -- request timelines ------------------------------------------------------- *)

(** Every pipeline request's timeline, and the per-run store of them
    behind [ofe blame]. The server opens one {!req} per request at
    submission and owns it through the job: each stage appends the
    segment it executed (start/end on the simulated clock), and each
    park at the place boundary or on a coalesce leader becomes a typed
    wait. The response's latency split is a fold over this record
    ({!work_us}, {!waited_us}), so the record and the numbers a client
    sees cannot disagree. The deterministic clock makes the record
    exact, not sampled: the segments and waits of a completed request,
    and the gaps between them, tile the interval from submission to
    completion ([Omos.Blame] names the gaps, extracts critical paths and
    replays counterfactuals from the store). {!set_enabled} only decides
    whether submitted requests are retained for {!requests}; recording
    charges nothing to the simulated clock. *)
module Causal = struct
  (** Why a request was parked between two of its stage segments. *)
  type wait_kind =
    | Batch  (** parked at the place boundary until [flush_place] *)
    | Coalesce  (** follower waiting on its leader's build *)

  type segment = {
    g_stage : string;
    g_t0 : float;
    g_t1 : float;
    g_self : float;
        (** the request's own work within the segment — equals
            [g_t1 -. g_t0] except for the batched-place segment, whose
            whole interval is the shared solve: [0] *)
  }

  type wait = {
    w_kind : wait_kind;
    w_from : float;
    w_until : float;
    w_on : int;  (** request id waited on (coalesce leader), [-1] none *)
  }

  type req = {
    g_id : int;
    g_client : int;
    g_target : string;
    g_submit : float;
    mutable g_segments : segment list;  (** newest-first while recording *)
    mutable g_waits : wait list;  (** resolved parks, newest-first *)
    mutable g_parked : (wait_kind * float * int) option;
        (** an unresolved park: (kind, since, waited-on id) *)
    mutable g_done : float option;
        (** completion point — the map-stage start, where the server
            seals [sim_us]; [None] while in flight or failed *)
    mutable g_sim_us : float;
    mutable g_hit : bool;
    mutable g_solver_us : float;
        (** the interval of the flush that placed this request (its
            batched-place segment, all of it the shared solve), [0]
            when placed singly *)
  }

  let retain = ref false
  let set_enabled (b : bool) : unit = retain := b

  let store : (int, req) Hashtbl.t = Hashtbl.create 64

  let begin_request ~(id : int) ~(client : int) ~(target : string)
      ~(at : float) : req =
    let r =
      {
        g_id = id;
        g_client = client;
        g_target = target;
        g_submit = at;
        g_segments = [];
        g_waits = [];
        g_parked = None;
        g_done = None;
        g_sim_us = 0.0;
        g_hit = false;
        g_solver_us = 0.0;
      }
    in
    if !retain then Hashtbl.replace store id r;
    r

  let find (id : int) : req option = Hashtbl.find_opt store id

  let segment (r : req) ~(stage : string) ~(t0 : float) ~(t1 : float)
      ?(self : float option) () : unit =
    let self = match self with Some s -> s | None -> t1 -. t0 in
    r.g_segments <-
      { g_stage = stage; g_t0 = t0; g_t1 = t1; g_self = self } :: r.g_segments

  (** Start a typed wait: the request leaves the scheduler at [at]
      (always the end of the stage that parked it). *)
  let park (r : req) (kind : wait_kind) ?(on = -1) ~(at : float) () : unit =
    r.g_parked <- Some (kind, at, on)

  (** Resolve the pending park: the request became runnable at [at]. *)
  let unpark (r : req) ~(at : float) () : unit =
    match r.g_parked with
    | None -> ()
    | Some (kind, since, on) ->
        r.g_parked <- None;
        r.g_waits <-
          { w_kind = kind; w_from = since; w_until = at; w_on = on } :: r.g_waits

  let complete (r : req) ~(at : float) ~(sim_us : float) ~(hit : bool) () :
      unit =
    r.g_done <- Some at;
    r.g_sim_us <- sim_us;
    r.g_hit <- hit

  (* Both lists are newest-first; both folds add oldest-first, in the
     order the time was spent. *)

  let work_us (r : req) : float =
    List.fold_right (fun s acc -> acc +. (s.g_t1 -. s.g_t0)) r.g_segments 0.0

  let waited_us (r : req) (kind : wait_kind) : float =
    List.fold_right
      (fun w acc ->
        if w.w_kind = kind then acc +. Float.max 0.0 (w.w_until -. w.w_from)
        else acc)
      r.g_waits 0.0

  (** Every retained request, in submission (= id) order. Segments and
      waits come back chronological. *)
  let requests () : req list =
    Hashtbl.fold (fun _ r acc -> r :: acc) store []
    |> List.sort (fun a b -> compare a.g_id b.g_id)
    |> List.map (fun r ->
           {
             r with
             (* stable: consecutive zero-cost stages share one clock
                stamp, and their recorded (execution) order is what the
                blame replay walks *)
             g_segments =
               List.stable_sort
                 (fun a b -> compare (a.g_t0, a.g_t1) (b.g_t0, b.g_t1))
                 (List.rev r.g_segments);
             g_waits =
               List.stable_sort
                 (fun a b -> compare (a.w_from, a.w_until) (b.w_from, b.w_until))
                 (List.rev r.g_waits);
           })

  let reset_state () : unit = Hashtbl.reset store
end

(* Metrics/spans part of {!reset}; the public [reset] (defined after
   {!Provenance}) also clears profiler and provenance state. *)
let reset_metrics_and_spans () : unit =
  Hashtbl.iter (fun _ (c : Counter.t) -> c.Counter.count <- 0) Counter.registry;
  Hashtbl.reset Gauge.registry;
  Hashtbl.iter
    (fun _ (h : Histogram.t) ->
      h.Histogram.n <- 0;
      h.Histogram.sum <- 0.0;
      h.Histogram.minv <- infinity;
      h.Histogram.maxv <- neg_infinity;
      h.Histogram.filled <- 0;
      h.Histogram.rng <- h.Histogram.seed)
    Histogram.registry;
  open_stack := [];
  completed := [];
  next_id := 0

(* Re-export the JSON reader/writer (json.ml, below the flight recorder
   that writes its dumps with it) as [Telemetry.Json]. *)
module Json = Json

(* -- binding provenance ------------------------------------------------------ *)

(** The binding journal. While enabled, the linker and the jigsaw
    operators record per-symbol decisions into the journal frame of the
    build stage running right now; each fresh build owns one frame
    ({!open_frame}), its stages install it with {!with_frame}, and the
    server {!capture}s it into the {!t} attached to the resulting cache
    entry, so a cached image can explain itself long after the link
    that produced it ([ofe explain]).

    Stages never nest, so no frame is installed when one starts;
    {!with_frame} still reinstalls whatever was installed before, on
    return or exception, so a failed stage cannot leave its frame
    catching records made outside any build.

    Recording is off by default ({!set_enabled}): when off, captures
    still produce a provenance skeleton (key, placement, generation)
    but the per-symbol event stream stays empty, so hot paths pay only
    a flag test. *)
module Provenance = struct
  type event =
    | Op of { op : string; detail : string }
        (** a module operator was applied (merge, override, rename, …) *)
    | Sym of {
        op : string;
        symbol : string;
        prior : string option;  (** previous name, for renames *)
        action : string;
      }  (** what an operator did to one symbol *)
    | Bind of { symbol : string; addr : int; frag : string; via : string }
        (** final link-time binding: the winning definition *)
    | Interpose of { symbol : string; winner : string; loser : string; how : string }
        (** a definition shadowed another at link time *)
    | Reloc of { section : string; count : int }
        (** relocations applied per section *)
    | Lint of { code : string; severity : string; path : string; message : string }
        (** a pre-link diagnostic the analyzer attached at registration *)
    | Coalesced of { leader_request : int }
        (** a concurrent request for the same construction coalesced
            onto this in-flight build instead of building again *)
    | Reused of { digest : string }
        (** a subtree was answered from the per-node memo table — its
            interface digest proved it link-equivalent to an earlier
            materialization, so no operator ran for it *)

  type t = {
    p_key : string;  (** construction digest (the cache key) *)
    p_ops : string list;  (** operator chain, application order *)
    p_events : event list;  (** journal, chronological *)
    p_text_base : int;
    p_data_base : int;
    p_placement : string;  (** human-readable placement decision *)
    p_generation : int;  (** cache generation at insertion *)
    mutable p_transitions : (float * string) list;
        (** residency transitions (sim us, state), chronological *)
  }

  let prov_enabled = ref false
  let set_enabled b = prov_enabled := b
  let is_enabled () = !prov_enabled

  type frame = { mutable ops : string list; mutable events : event list }
  (* both newest-first *)

  (* the frame of the build stage running right now *)
  let current : frame option ref = ref None

  let open_frame () : frame = { ops = []; events = [] }

  let with_frame (f : frame) (body : unit -> 'a) : 'a =
    let prev = !current in
    current := Some f;
    match body () with
    | v ->
        current := prev;
        v
    | exception e ->
        current := prev;
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())

  let record_event (e : event) : unit =
    if !prov_enabled then
      match !current with None -> () | Some f -> f.events <- e :: f.events

  let record_op ~(op : string) ~(detail : string) : unit =
    if !prov_enabled then
      match !current with
      | None -> ()
      | Some f ->
          f.ops <- op :: f.ops;
          f.events <- Op { op; detail } :: f.events

  let record_sym ~(op : string) ~(symbol : string) ?prior (action : string) : unit
      =
    record_event (Sym { op; symbol; prior; action })

  let record_bind ~(symbol : string) ~(addr : int) ~(frag : string)
      ~(via : string) : unit =
    record_event (Bind { symbol; addr; frag; via })

  let record_interpose ~(symbol : string) ~(winner : string) ~(loser : string)
      ~(how : string) : unit =
    record_event (Interpose { symbol; winner; loser; how })

  let record_reloc ~(section : string) ~(count : int) : unit =
    if count > 0 then record_event (Reloc { section; count })

  (* Deliberately not [record_op]: findings join the journal without
     perturbing the operator chain the explain command reports. *)
  let record_lint ~(code : string) ~(severity : string) ~(path : string)
      (message : string) : unit =
    record_event (Lint { code; severity; path; message })

  (** A coalesced follower joined [f]'s build: followers coalesce
      between the leader's stages, while no frame is installed. *)
  let record_coalesced_into (f : frame) ~(leader_request : int) : unit =
    if !prov_enabled then f.events <- Coalesced { leader_request } :: f.events

  (** A memoized subtree satisfied part of this build. *)
  let record_reused ~(digest : string) : unit =
    record_event (Reused { digest })

  (** Close a build's frame into a provenance record. *)
  let capture (f : frame) ~(key : string) ~(text_base : int)
      ~(data_base : int) ~(placement : string) ~(generation : int) : t =
    {
      p_key = key;
      p_ops = List.rev f.ops;
      p_events = List.rev f.events;
      p_text_base = text_base;
      p_data_base = data_base;
      p_placement = placement;
      p_generation = generation;
      p_transitions = [];
    }

  (** Append a residency transition (entries are long-lived; the
      residency layer calls this on every state change). *)
  let transition (p : t) ~(at : float) (state : string) : unit =
    p.p_transitions <- p.p_transitions @ [ (at, state) ]

  let event_to_string : event -> string = function
    | Op { op; detail } -> Printf.sprintf "op %s %s" op detail
    | Sym { op; symbol; prior; action } ->
        Printf.sprintf "sym %s %s%s: %s" op symbol
          (match prior with Some p -> " (was " ^ p ^ ")" | None -> "")
          action
    | Bind { symbol; addr; frag; via } ->
        Printf.sprintf "bind %s @ 0x%08x in %s (%s)" symbol addr frag via
    | Interpose { symbol; winner; loser; how } ->
        Printf.sprintf "interpose %s: %s over %s (%s)" symbol winner loser how
    | Reloc { section; count } -> Printf.sprintf "relocs %s: %d" section count
    | Lint { code; severity; path; message } ->
        Printf.sprintf "lint %s %s at %s: %s" severity code path message
    | Coalesced { leader_request } ->
        Printf.sprintf "coalesced: served by in-flight request %d" leader_request
    | Reused { digest } ->
        Printf.sprintf "reused subtree %s (memoized materialization)" digest

  (* The names [symbol] has carried: follow rename links backwards so a
     query for the exported name also surfaces decisions recorded under
     the names it was derived from. *)
  let names_for (p : t) (symbol : string) : string list =
    let rec close acc =
      let extra =
        List.filter_map
          (function
            | Sym { symbol = s; prior = Some old; _ }
              when List.mem s acc && not (List.mem old acc) ->
                Some old
            | _ -> None)
          p.p_events
      in
      match List.sort_uniq compare extra with
      | [] -> acc
      | extra -> close (acc @ extra)
    in
    close [ symbol ]

  (** Journal events involving [symbol] (under any of its past names),
      chronological. *)
  let events_for (p : t) (symbol : string) : event list =
    let names = names_for p symbol in
    List.filter
      (function
        | Sym { symbol = s; _ } | Bind { symbol = s; _ }
        | Interpose { symbol = s; _ } ->
            List.mem s names
        | Op _ | Reloc _ | Lint _ | Coalesced _ | Reused _ -> false)
      p.p_events

  (** Content digest of the construction provenance (transitions
      excluded: they evolve over the entry's lifetime). *)
  let digest (p : t) : string =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (p.p_key :: p.p_placement
             :: Printf.sprintf "gen=%d text=0x%x data=0x%x" p.p_generation
                  p.p_text_base p.p_data_base
             :: (p.p_ops @ List.map event_to_string p.p_events))))

  (* Digests of provenance captured this run, by owner name — what the
     bench driver folds into BENCH_*.json. *)
  let built : (string, string) Hashtbl.t = Hashtbl.create 16
  let note_built ~(name : string) (p : t) : unit =
    Hashtbl.replace built name (digest p)

  let built_digests () : (string * string) list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) built [] |> List.sort compare

  let event_json : event -> Json.t = function
    | Op { op; detail } ->
        Json.Obj
          [ ("type", Json.Str "op"); ("op", Json.Str op);
            ("detail", Json.Str detail) ]
    | Sym { op; symbol; prior; action } ->
        Json.Obj
          ([ ("type", Json.Str "sym"); ("op", Json.Str op);
             ("symbol", Json.Str symbol) ]
          @ (match prior with
            | Some p -> [ ("prior", Json.Str p) ]
            | None -> [])
          @ [ ("action", Json.Str action) ])
    | Bind { symbol; addr; frag; via } ->
        Json.Obj
          [ ("type", Json.Str "bind"); ("symbol", Json.Str symbol);
            ("addr", Json.Num (float_of_int addr)); ("frag", Json.Str frag);
            ("via", Json.Str via) ]
    | Interpose { symbol; winner; loser; how } ->
        Json.Obj
          [ ("type", Json.Str "interpose"); ("symbol", Json.Str symbol);
            ("winner", Json.Str winner); ("loser", Json.Str loser);
            ("how", Json.Str how) ]
    | Reloc { section; count } ->
        Json.Obj
          [ ("type", Json.Str "reloc"); ("section", Json.Str section);
            ("count", Json.Num (float_of_int count)) ]
    | Lint { code; severity; path; message } ->
        Json.Obj
          [ ("type", Json.Str "lint"); ("code", Json.Str code);
            ("severity", Json.Str severity); ("path", Json.Str path);
            ("message", Json.Str message) ]
    | Coalesced { leader_request } ->
        Json.Obj
          [ ("type", Json.Str "coalesced");
            ("leader_request", Json.Num (float_of_int leader_request)) ]
    | Reused { digest } ->
        Json.Obj
          [ ("type", Json.Str "reused"); ("digest", Json.Str digest) ]

  let to_json (p : t) : Json.t =
    Json.Obj
      [ ("key", Json.Str p.p_key);
        ("digest", Json.Str (digest p));
        ("ops", Json.Arr (List.map (fun o -> Json.Str o) p.p_ops));
        ("text_base", Json.Num (float_of_int p.p_text_base));
        ("data_base", Json.Num (float_of_int p.p_data_base));
        ("placement", Json.Str p.p_placement);
        ("generation", Json.Num (float_of_int p.p_generation));
        ("events", Json.Arr (List.map event_json p.p_events));
        ("transitions",
         Json.Arr
           (List.map
              (fun (at, state) ->
                Json.Obj [ ("at_us", Json.Num at); ("state", Json.Str state) ])
              p.p_transitions)) ]

  let clear_state () : unit =
    current := None;
    Hashtbl.reset built
end

(** Zero every metric in place (interned handles stay valid), drop all
    recorded spans, and clear profiler attributions and provenance
    journal state. The clock and enabled flags are left alone. *)
let reset () : unit =
  reset_metrics_and_spans ();
  Profile.clear ();
  Provenance.clear_state ();
  Request.reset_state ();
  Health.reset_state ();
  Causal.reset_state ();
  Hotness.reset_state ();
  (* the ring is cleared; the auto-dump configuration and Runinfo
     (run configuration, not measurement) survive *)
  Flight.clear ()

let json_of_value : value -> Json.t = function
  | S s -> Json.Str s
  | I i -> Json.Num (float_of_int i)
  | F f -> Json.Num f
  | B b -> Json.Bool b

(* -- exporters -------------------------------------------------------------- *)

module Export = struct
  let sorted_counters () =
    Hashtbl.fold (fun k (c : Counter.t) acc -> (k, c.Counter.count) :: acc)
      Counter.registry []
    |> List.sort compare

  let sorted_gauges () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) Gauge.registry []
    |> List.sort compare

  let sorted_histograms () =
    Hashtbl.fold (fun k (h : Histogram.t) acc -> (k, h) :: acc) Histogram.registry []
    |> List.sort compare

  (** Chrome [trace_event] JSON (about://tracing, Perfetto): complete
      ("X") events for spans, counter ("C") samples at the trace end,
      and process metadata. Timestamps are the collector clock's
      microseconds — simulated time when the server installed the
      simulated clock. *)
  let chrome () : string =
    let all = spans () in
    let by_start =
      List.sort
        (fun a b ->
          match compare a.start_us b.start_us with 0 -> compare a.id b.id | c -> c)
        all
    in
    let end_ts =
      List.fold_left (fun acc s -> Float.max acc s.end_us) 0.0 all
    in
    let meta =
      Json.Obj
        [ ("ph", Json.Str "M"); ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
          ("name", Json.Str "process_name");
          ("args", Json.Obj [ ("name", Json.Str "omos") ]) ]
    in
    let span_event (s : span) =
      Json.Obj
        [ ("ph", Json.Str "X"); ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
          ("cat", Json.Str "omos");
          ("name", Json.Str s.name);
          ("ts", Json.Num s.start_us);
          ("dur", Json.Num (s.end_us -. s.start_us));
          ("args",
           Json.Obj
             ([ ("id", Json.Num (float_of_int s.id));
                ("parent", Json.Num (float_of_int s.parent)) ]
             @ List.map (fun (k, v) -> (k, json_of_value v)) s.attrs)) ]
    in
    let counter_event (k, v) =
      Json.Obj
        [ ("ph", Json.Str "C"); ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
          ("name", Json.Str k); ("ts", Json.Num end_ts);
          ("args", Json.Obj [ ("value", Json.Num (float_of_int v)) ]) ]
    in
    Json.to_string
      (Json.Obj
         [ ("traceEvents",
            Json.Arr
              ((meta :: List.map span_event by_start)
              @ List.map counter_event (sorted_counters ())));
           ("displayTimeUnit", Json.Str "ms") ])

  (** The full metrics registry as one JSON object with a stable schema
      — what the benchmark harness writes as BENCH_*.json. *)
  let metrics_json () : string =
    Json.to_string
      (Json.Obj
         [ ("schema", Json.Str "omos.metrics/1");
           ("meta",
            Json.Obj
              (List.map (fun (k, v) -> (k, json_of_value v)) (Runinfo.sorted ())));
           ("counters",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 (sorted_counters ())));
           ("gauges",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (sorted_gauges ())));
           ("histograms",
            Json.Obj
              (List.map
                 (fun (k, (h : Histogram.t)) ->
                   ( k,
                     Json.Obj
                       [ ("count", Json.Num (float_of_int h.Histogram.n));
                         ("sum", Json.Num h.Histogram.sum);
                         ("mean", Json.Num (Histogram.mean h));
                         ("min", Json.Num (Histogram.min_value h));
                         ("max", Json.Num (Histogram.max_value h));
                         ("p50", Json.Num (Histogram.percentile h 50.0));
                         ("p95", Json.Num (Histogram.percentile h 95.0));
                         ("p99", Json.Num (Histogram.percentile h 99.0)) ] ))
                 (sorted_histograms ())));
           ("hotness",
            Json.Obj
              [ ("window_cap", Json.Num (float_of_int Hotness.window_cap));
                ("events", Json.Num (float_of_int (Hotness.total_events ())));
                ("keys",
                 Json.Obj
                   (List.map
                      (fun (s : Hotness.stat) ->
                        (s.Hotness.hs_key,
                         Json.Num (float_of_int s.Hotness.hs_calls)))
                      (Hotness.stats ()))) ]) ])

  (** The continuous-profiling store as one JSON object with a stable
      schema: windowed per-key call counts, per-function histograms,
      first-call order, caller→callee transitions, and (when audited)
      the layout-locality audit for each key. *)
  let hotspots_json () : string =
    let meta_obj (s : Hotness.stat) : Json.t =
      let audit =
        match Hotness.audit_pages s.Hotness.hs_key with
        | None -> []
        | Some (actual, optimal, reordered) ->
            [ ("audit",
               Json.Obj
                 [ ("pages_actual", Json.Num (float_of_int actual));
                   ("pages_optimal", Json.Num (float_of_int optimal));
                   ("pages_reordered", Json.Num (float_of_int reordered));
                   ("headroom_pages", Json.Num (float_of_int (actual - optimal)));
                   ("headroom_after_reorder",
                    Json.Num (float_of_int (reordered - optimal))) ]) ]
      in
      Json.Obj
        ([ ("meta", Json.Str s.Hotness.hs_key);
           ("calls", Json.Num (float_of_int s.Hotness.hs_calls));
           ("functions",
            Json.Arr
              (List.map
                 (fun (f, n) ->
                   Json.Obj
                     [ ("name", Json.Str f);
                       ("calls", Json.Num (float_of_int n)) ])
                 s.Hotness.hs_functions));
           ("first_call",
            Json.Arr (List.map (fun f -> Json.Str f) s.Hotness.hs_first_call));
           ("transitions",
            Json.Arr
              (List.map
                 (fun ((p, f), n) ->
                   Json.Obj
                     [ ("from", Json.Str p);
                       ("to", Json.Str f);
                       ("count", Json.Num (float_of_int n)) ])
                 s.Hotness.hs_transitions)) ]
        @ audit)
    in
    Json.to_string
      (Json.Obj
         [ ("schema", Json.Str "omos.hotspots/1");
           ("window",
            Json.Obj
              [ ("cap", Json.Num (float_of_int Hotness.window_cap));
                ("events", Json.Num (float_of_int (Hotness.total_events ()))) ]);
           ("metas", Json.Arr (List.map meta_obj (Hotness.stats ()))) ])
end

(* Re-export the flight recorder so clients address it as
   [Telemetry.Flight] (its implementation lives in flight.ml, below
   every hook that feeds it). *)
module Flight = Flight
