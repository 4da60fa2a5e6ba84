(** Critical-path extraction and latency blame over the request
    timelines (see blame.mli). *)

module Causal = Telemetry.Causal

(* -- critical paths --------------------------------------------------------- *)

type category =
  | Self of string
  | Queue
  | Batch
  | Coalesce
  | Sched

let category_label = function
  | Self stage -> "self." ^ stage
  | Queue -> "queue"
  | Batch -> "batch"
  | Coalesce -> "coalesce"
  | Sched -> "sched"

(* The stable omos.blame/1 category order; unknown self stages (there
   are none today) would append after these. *)
let category_order =
  [
    "self.parse";
    "self.lint";
    "self.eval";
    "self.place";
    "self.link";
    "queue";
    "batch";
    "coalesce";
    "sched";
  ]

type slice = {
  s_cat : category;
  s_from : float;
  s_until : float;
  s_self : float; (* charged self-cost of a segment slice (= duration;
                     0 for a batched place); waits carry 0 *)
  s_on : int; (* request waited on, [-1] when not a typed wait *)
}

(* One dispatched unit of the recorded pipeline, for the what-if
   replay. Unlike slices, the chain keeps zero-duration stage hops —
   parse/lint/eval charge nothing in the committed cost model, but each
   hop is still one FIFO queue rotation, and dropping them would let a
   builder's place charge overtake a later hit's map dispatch that in
   the real schedule slipped ahead of it. *)
type hop =
  | Run of { stage : string; dur : float } (* a dispatched stage task *)
  | Park (* batch barrier; flushed when queue idles *)
  | Wait of { on : int } (* coalesced onto in-flight request [on] *)
  | Seal (* the map dispatch where sim_us was sealed *)

type path = {
  p_id : int;
  p_client : int;
  p_target : string;
  p_submit : float;
  p_done : float; (* when [sim_us] was sealed (map-stage start) *)
  p_sim_us : float;
  p_hit : bool;
  p_solver_us : float;
  p_slices : slice list; (* chronological; tiles [p_submit, p_done) *)
  p_chain : hop list; (* pipeline order, ends with [Seal] *)
}

let slice_us (s : slice) : float = s.s_until -. s.s_from

(* Build the critical path of one completed request: its recorded
   segments and typed waits in chronological order, with every uncovered
   gap filled — the gap before the first segment is admission [Queue],
   every later gap is scheduler dispatch delay [Sched] (the only way a
   request is idle without being parked). The slices tile
   [g_submit, g_done) exactly because every boundary is a shared
   simulated-clock read. *)
let critical_path (r : Causal.req) : path option =
  match r.g_done with
  | None -> None
  | Some done_us ->
      let horizon = done_us in
      (* the map segment starts exactly at [horizon] (where sim_us was
         sealed) and is excluded from the path *)
      let segs =
        List.filter (fun (s : Causal.segment) -> s.g_t0 < horizon) r.g_segments
      in
      let waits =
        List.filter_map
          (fun (w : Causal.wait) ->
            if w.w_from >= horizon then None
            else Some { w with w_until = Float.min w.w_until horizon })
          r.g_waits
      in
      (* merge chronologically; a wait starting where a segment starts
         sorts after it (waits are recorded at the end of the stage
         that parks) *)
      let events =
        List.merge compare
          (List.map (fun (s : Causal.segment) -> ((s.g_t0, 0), `Seg s)) segs)
          (List.map (fun (w : Causal.wait) -> ((w.w_from, 1), `Wait w)) waits)
      in
      let cursor = ref r.g_submit in
      let first = ref true in
      let out = ref [] in
      let chain = ref [] in
      let push cat ~from ~until ~self ~on =
        if until > from then
          out :=
            { s_cat = cat; s_from = from; s_until = until; s_self = self; s_on = on }
            :: !out
      in
      let fill_gap_to (start : float) : unit =
        if start > !cursor then begin
          let cat = if !first then Queue else Sched in
          push cat ~from:!cursor ~until:start ~self:0.0 ~on:(-1);
          cursor := start
        end
      in
      List.iter
        (fun (_, ev) ->
          match ev with
          | `Seg (s : Causal.segment) ->
              fill_gap_to s.g_t0;
              let t1 = Float.min s.g_t1 horizon in
              push (Self s.g_stage) ~from:s.g_t0 ~until:t1 ~self:s.g_self
                ~on:(-1);
              (* a batched place is recognized by the recorded shared
                 solver share — only the flush sets it; its batch wait
                 can be zero-length and is no marker *)
              chain :=
                (if s.g_stage = "place" && r.g_solver_us > 0.0 then Park
                 else Run { stage = s.g_stage; dur = t1 -. s.g_t0 })
                :: !chain;
              first := false;
              if t1 > !cursor then cursor := t1
          | `Wait (w : Causal.wait) ->
              fill_gap_to w.w_from;
              let cat =
                match w.w_kind with
                | Causal.Batch -> Batch
                | Causal.Coalesce -> Coalesce
              in
              push cat ~from:w.w_from ~until:w.w_until ~self:0.0 ~on:w.w_on;
              (* batch waits are subsumed by the Park above; queue/sched
                 gaps re-emerge from the replay's own dispatch order *)
              if w.w_kind = Causal.Coalesce then
                chain := Wait { on = w.w_on } :: !chain;
              first := false;
              if w.w_until > !cursor then cursor := w.w_until)
        events;
      fill_gap_to horizon;
      Some
        {
          p_id = r.g_id;
          p_client = r.g_client;
          p_target = r.g_target;
          p_submit = r.g_submit;
          p_done = done_us;
          p_sim_us = r.g_sim_us;
          p_hit = r.g_hit;
          p_solver_us = r.g_solver_us;
          p_slices = List.rev !out;
          p_chain = List.rev (Seal :: !chain);
        }

let paths (rs : Causal.req list) : path list = List.filter_map critical_path rs

(* -- blame profile ---------------------------------------------------------- *)

type stat = { bs_total_us : float; bs_frac : float; bs_p50_us : float; bs_p95_us : float }

type profile = {
  bp_requests : int;
  bp_total_sim_us : float;
  bp_wait_us : float; (* everything that is not self-compute *)
  bp_categories : (string * stat) list; (* category_order, then extras *)
}

let is_self = function Self _ -> true | _ -> false

let profile (ps : path list) : profile =
  (* per-request per-category sums *)
  let per_req : (string, float) Hashtbl.t list =
    List.map
      (fun p ->
        let h = Hashtbl.create 8 in
        List.iter
          (fun s ->
            let k = category_label s.s_cat in
            Hashtbl.replace h k
              ((try Hashtbl.find h k with Not_found -> 0.0) +. slice_us s))
          p.p_slices;
        h)
      ps
  in
  let keys =
    let extra = ref [] in
    List.iter
      (Hashtbl.iter (fun k _ ->
           if (not (List.mem k category_order)) && not (List.mem k !extra)
           then extra := k :: !extra))
      per_req;
    category_order @ List.sort compare !extra
  in
  let total_sim = List.fold_left (fun a p -> a +. p.p_sim_us) 0.0 ps in
  let wait_us =
    List.fold_left
      (fun a p ->
        List.fold_left
          (fun a s -> if is_self s.s_cat then a else a +. slice_us s)
          a p.p_slices)
      0.0 ps
  in
  let categories =
    List.map
      (fun k ->
        let samples =
          List.map
            (fun h -> try Hashtbl.find h k with Not_found -> 0.0)
            per_req
        in
        let total = List.fold_left ( +. ) 0.0 samples in
        let sorted = Array.of_list samples in
        Array.sort compare sorted;
        ( k,
          {
            bs_total_us = total;
            bs_frac = (if total_sim > 0.0 then total /. total_sim else 0.0);
            bs_p50_us = Telemetry.nearest_rank sorted 50.0;
            bs_p95_us = Telemetry.nearest_rank sorted 95.0;
          } ))
      keys
  in
  {
    bp_requests = List.length ps;
    bp_total_sim_us = total_sim;
    bp_wait_us = wait_us;
    bp_categories = categories;
  }

(* -- folded stacks ---------------------------------------------------------- *)

(* Flamegraph folded lines: `<target>;self;<stage>` and
   `<target>;wait;<category>`, microseconds summed, sorted by key. *)
let folded (ps : path list) : (string * float) list =
  let h = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let key =
            match s.s_cat with
            | Self stage -> p.p_target ^ ";self;" ^ stage
            | c -> p.p_target ^ ";wait;" ^ category_label c
          in
          Hashtbl.replace h key
            ((try Hashtbl.find h key with Not_found -> 0.0) +. slice_us s))
        p.p_slices)
    ps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* -- what-if replay --------------------------------------------------------- *)

type knob = Batch_off | Queue_inf | Coalesce_off

let knob_of_string = function
  | "batch=off" -> Some Batch_off
  | "queue=inf" -> Some Queue_inf
  | "coalesce=off" -> Some Coalesce_off
  | _ -> None

let knob_to_string = function
  | Batch_off -> "batch=off"
  | Queue_inf -> "queue=inf"
  | Coalesce_off -> "coalesce=off"

type whatif = {
  wi_knob : string; (* "baseline" when replaying as recorded *)
  wi_recorded_us : float; (* total recorded sim_us *)
  wi_predicted_us : float; (* total predicted sim_us under the knob *)
  wi_per_request : (int * float * float) list; (* id, recorded, predicted *)
}

(* The replay walks each request's recorded [p_chain]: [Run] advances
   the replay clock and re-enqueues FIFO (spawn-at-stage-end),
   [Park]/[Wait] remove the request from the run queue without
   consuming time (a stage parks as it ends), [Seal] is the zero-cost
   map dispatch where sim_us is measured. Queue, Sched, and Batch waits
   have no chain entry — they re-emerge from the replay itself (FIFO
   dispatch order and the flush barrier). *)

(* Apply a knob to a chain. *)
let transform (knob : knob option) (by_id : (int, path) Hashtbl.t)
    (p : path) (items : hop list) : hop list =
  match knob with
  | None | Some Queue_inf ->
      (* queue=inf only matters for runs that overloaded; overloaded
         submissions never complete, so the recorded graph is already
         the unbounded-queue execution *)
      items
  | Some Batch_off ->
      (* every member pays its own solver pass instead of parking *)
      List.map
        (function
          | Park -> Run { stage = "place"; dur = p.p_solver_us }
          | i -> i)
        items
  | Some Coalesce_off -> (
      (* a follower rebuilds instead of waiting: keep its own first
         parse, then run a clone of what its leader did after parse *)
      match
        List.find_opt (function Wait _ -> true | _ -> false) items
      with
      | None -> items
      | Some (Wait { on }) -> (
          let own_prefix =
            let rec take = function
              | Wait _ :: _ -> []
              | i :: rest -> i :: take rest
              | [] -> []
            in
            take items
          in
          match Hashtbl.find_opt by_id on with
          | None ->
              (* leader unknown: drop the wait, keep the recorded
                 cache-hit tail *)
              List.filter (function Wait _ -> false | _ -> true) items
          | Some leader ->
              let rec after_first_run = function
                | Run _ :: rest -> rest
                | _ :: rest -> after_first_run rest
                | [] -> []
              in
              own_prefix @ after_first_run leader.p_chain)
      | Some _ -> items)

(* Deterministic FIFO discrete-event replay of the recorded run. The
   cooperative scheduler is single-threaded and (seed 0) strict FIFO,
   so the replay mirrors it: one global clock, stage tasks re-enqueued
   at the tail, the place barrier flushed when the queue idles. Bursts
   are groups of equal submit stamps (the drivers submit each burst
   without advancing the clock); a later burst starts when both
   submitted and the server is free. *)
let what_if ?(knob : knob option) (ps : path list) : whatif =
  let ps = List.sort (fun a b -> compare a.p_id b.p_id) ps in
  let by_id = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace by_id p.p_id p) ps;
  (* burst groups in submit order (stable: ids ascending inside) *)
  let bursts =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun p ->
        Hashtbl.replace tbl p.p_submit
          (p :: (try Hashtbl.find tbl p.p_submit with Not_found -> [])))
      ps;
    Hashtbl.fold (fun at members acc -> (at, List.rev members) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let finish : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let predicted : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let clock = ref 0.0 in
  let run_burst (at : float) (members : path list) : unit =
    clock := Float.max !clock at;
    (* the drivers are closed-loop (they drain between rounds), so a
       round's latencies count from when it actually enters the server
       — not from the recorded stamp, which a knob that slows an
       earlier round down would otherwise leak into *)
    let base = !clock in
    let chains =
      List.map (fun p -> (p, ref (transform knob by_id p p.p_chain))) members
    in
    let runq = Queue.create () in
    List.iter (fun c -> Queue.add c runq) chains;
    let parked = ref [] in (* (path, rest) park order, newest-first *)
    let waiting = ref [] in (* (leader, (path, rest)) park order, newest-first *)
    let enqueue (p, items) = Queue.add (p, items) runq in
    let wake (id : int) : unit =
      let woken, rest =
        List.partition (fun (l, _) -> l = id) !waiting
      in
      waiting := rest;
      List.iter (fun (_, c) -> enqueue c) (List.rev woken)
    in
    let rec settle ((p : path), (items : hop list ref)) : unit =
      (* a stage just ended (or the chain is empty): park, wait,
         finish, or spawn the next stage task *)
      match !items with
      | [] ->
          Hashtbl.replace finish p.p_id !clock;
          wake p.p_id
      | Park :: rest ->
          items := rest;
          parked := (p, items) :: !parked
      | Wait { on } :: rest ->
          items := rest;
          if Hashtbl.mem finish on || not (Hashtbl.mem by_id on) then
            (* leader already done (or outside this recording): the
               wake dispatch is immediate *)
            enqueue (p, items)
          else waiting := (on, (p, items)) :: !waiting
      | (Run _ | Seal) :: _ -> enqueue (p, items)
    and step () : bool =
      match Queue.take_opt runq with
      | Some ((p, items) as c) -> (
          match !items with
          | Run { dur; _ } :: rest ->
              clock := !clock +. dur;
              items := rest;
              settle c;
              true
          | Seal :: rest ->
              Hashtbl.replace predicted p.p_id (!clock -. base);
              items := rest;
              settle c;
              true
          | _ ->
              settle c;
              true)
      | None ->
          if !parked <> [] then begin
            (* flush the place barrier: one shared solver pass *)
            let members =
              List.sort (fun ((a : path), _) (b, _) -> compare a.p_id b.p_id)
                !parked
            in
            parked := [];
            clock :=
              !clock
              +. List.fold_left
                   (fun m ((p : path), _) -> Float.max m p.p_solver_us)
                   0.0 members;
            List.iter enqueue members;
            true
          end
          else if !waiting <> [] then begin
            (* a leader that never completes inside this burst (errored
               or unrecorded): release its followers *)
            let stuck = List.rev !waiting in
            waiting := [];
            List.iter (fun (_, c) -> enqueue c) stuck;
            true
          end
          else false
    in
    while step () do
      ()
    done
  in
  List.iter (fun (at, members) -> run_burst at members) bursts;
  let per_request =
    List.map
      (fun p ->
        ( p.p_id,
          p.p_sim_us,
          try Hashtbl.find predicted p.p_id with Not_found -> 0.0 ))
      ps
  in
  {
    wi_knob =
      (match knob with None -> "baseline" | Some k -> knob_to_string k);
    wi_recorded_us = List.fold_left (fun a (_, r, _) -> a +. r) 0.0 per_request;
    wi_predicted_us = List.fold_left (fun a (_, _, p) -> a +. p) 0.0 per_request;
    wi_per_request = per_request;
  }
