(* Host-clock measurement machinery shared by the three workloads: the
   closed loop, allocation and GC counters, the benchmark-side
   span recorder, and the statistics the result line reports.

   Everything here measures the OCaml program from outside: spans are
   opened around calls into the layers' public functions, never inside
   [lib/]. *)

let now () = Unix.gettimeofday ()

(* Words allocated so far: minor + major - promoted, so a promoted
   block is counted once. The minor figure comes from [Gc.minor_words],
   which reads the live allocation pointer; the minor figure of
   [Gc.counters] drifts with the collection schedule on OCaml 5.1, and
   would make the total depend on, say, the length of argv. *)
let alloc_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* -- spans --------------------------------------------------------------- *)

module Span = struct
  type t = {
    id : int;
    name : string;
    op : int;  (** op id the span belongs to; -1 for set-up and rounds *)
    parent : int;  (** -1 for a root *)
    t0 : float;
    w0 : float;
    mutable t1 : float;
    mutable w1 : float;
  }

  let enabled = ref false
  let recorded : t list ref = ref []
  let stack : t list ref = ref []
  let next_id = ref 0
  let current_op = ref (-1)

  let reset () =
    recorded := [];
    stack := [];
    next_id := 0;
    current_op := -1

  let set_op i = current_op := i

  (* [wrap name f] runs [f] inside a span while tracing is on, and is a
     plain call otherwise. *)
  let wrap name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with p :: _ -> p.id | [] -> -1 in
      let s =
        {
          id = !next_id;
          name;
          op = !current_op;
          parent;
          t0 = now ();
          w0 = alloc_words ();
          t1 = nan;
          w1 = nan;
        }
      in
      incr next_id;
      stack := s :: !stack;
      let close () =
        s.t1 <- now ();
        s.w1 <- alloc_words ();
        (match !stack with _ :: rest -> stack := rest | [] -> ());
        recorded := s :: !recorded
      in
      match f () with
      | r ->
          close ();
          r
      | exception e ->
          close ();
          raise e
    end

  (* Completed spans in start order. *)
  let all () = List.sort (fun a b -> compare a.id b.id) !recorded

  (* Self time and self words of every span: its own interval minus
     the part its direct children cover. *)
  let self (spans : t list) : (t * float * float) list =
    let child_t = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then begin
          let add tbl v =
            Hashtbl.replace tbl s.parent
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
          in
          add child_t (s.t1 -. s.t0);
          add child_w (s.w1 -. s.w0)
        end)
      spans;
    List.map
      (fun s ->
        let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
        (s, s.t1 -. s.t0 -. get child_t, s.w1 -. s.w0 -. get child_w))
      spans

  (* Chrome trace_event JSON: one complete ("X") event per span, in
     microseconds from the first span, op id and self time as args. *)
  let chrome (spans : t list) : string =
    let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
    let b = Buffer.create 65536 in
    Buffer.add_string b "{\"traceEvents\":[\n";
    List.iteri
      (fun i (s, self_t, self_w) ->
        if i > 0 then Buffer.add_string b ",\n";
        Printf.bprintf b
          "{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
           \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d,\
           \"self_us\":%.3f,\"words\":%.0f,\"self_words\":%.0f}}"
          s.name
          ((s.t0 -. origin) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          s.op s.id s.parent (self_t *. 1e6) (s.w1 -. s.w0) self_w)
      (self spans);
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents b
end

(* -- statistics ------------------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample ([q] in [0, 100]). *)
let percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) rank))
  end

let median xs = percentile (Array.of_list xs) 50.0

(* A growable float buffer, so the timed loop stores samples without
   allocating per op. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* -- the closed loop ------------------------------------------------------- *)

(* One workload's op, as the loop drives it. The loop times [run]
   alone; [check] runs after the clock stops. *)
type op = {
  prepare : int -> unit;  (** untimed preparation of call [i] *)
  run : int -> int;  (** perform call [i]; returns the ops it performed *)
  check : int -> string list;  (** one reason per failed op of call [i] *)
  sim_us : unit -> float;
      (** simulated microseconds charged so far (a monotone reading) *)
  latencies : Samples.t option;
      (** where a workload whose calls perform several ops records
          their latencies itself; [None]: one op per call, timed by the
          loop *)
}

type loop_result = {
  lat : float array;  (** host seconds per op *)
  ops : int;
  failed : int;
  failures : string list;  (** first few failure reasons *)
  wall : float;  (** host seconds spent in [run], checks excluded *)
  det_ops : int;  (** ops in the deterministic prefix *)
  det_sim_us : float;  (** simulated us charged by the prefix *)
  det_words : float;  (** words allocated by the prefix *)
  calls : int;  (** [run] calls made *)
  call_wall : float array;  (** host seconds per [run] call *)
  call_speed : float array;
      (** per call, [probe_ref /. probe]: multiply a host time by it to
          normalize it to the reference speed *)
  call_ops : int array;  (** ops each call performed *)
}

(* -- host-speed probe ------------------------------------------------------------ *)

(* The hosts this benchmark runs on are shared: neighbours' memory
   traffic slows everything here by up to 2x, for seconds to minutes at
   a time. A fixed probe kernel (string-keyed hashing on fresh
   allocations, then random read-modify-writes over 8 MB outside the
   OCaml heap) is timed between calls, every [probe_calls] calls (a
   fixed count, not a period, so that its allocation leaves the
   program's GC schedule a function of the seed alone).
   Host times are reported normalized to a reference speed: each call's
   time is scaled by [probe_ref] over the mean of the two probes that
   bracket it, so the figures stay comparable whatever the neighbours
   do. [probe_ref] is the probe's time on an idle host (see
   README.md). *)
let probe_ref = 4.0e-3

let probe_mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20)
let () = Bigarray.Array1.fill probe_mem 0

let probe () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 4999 do
    Hashtbl.replace h (string_of_int i) [ i; i + 1 ]
  done;
  let acc = ref 0 in
  for i = 0 to 4999 do
    match Hashtbl.find_opt h (string_of_int (i * 7 mod 5000)) with
    | Some (x :: _) -> acc := !acc + x
    | _ -> ()
  done;
  let m = Bigarray.Array1.dim probe_mem - 1 in
  let j = ref 0 in
  for i = 0 to 200_000 do
    j := ((!j * 1103515245) + 12345 + i) land m;
    Bigarray.Array1.unsafe_set probe_mem !j (Bigarray.Array1.unsafe_get probe_mem !j + !acc)
  done;
  now () -. t0

(* Deterministic per-op counts (instructions, syscalls, respins, ...):
   workloads report them with [count]; only calls inside the loop's
   deterministic prefix are tallied, so the totals repeat exactly. *)
let counting = ref false
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !counting then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* The program's own telemetry counters, tallied per op by every
   workload (metric name, counter name). *)
let tele_counters =
  List.map
    (fun (n, c) -> (n, Telemetry.Counter.make c))
    [
      ("jigsaw.ops", "jigsaw.ops");
      ("linker.relocs", "linker.relocs_applied");
      ("constraints.batch_solves", "constraints.batch_solves");
      ("pipeline.coalesced", "pipeline.coalesced");
      ("cache.hits", "cache.hits");
      ("cache.misses", "cache.misses");
      ("impact.reused", "impact.reused");
      ("impact.respun", "impact.respun");
      ("cache.memo_hits", "cache.memo_hits");
    ]

(* Run [f], counting the telemetry counters' growth when counting. *)
let counting_telemetry f =
  if not !counting then f ()
  else begin
    let v0 = List.map (fun (_, c) -> Telemetry.Counter.value c) tele_counters in
    let r = f () in
    List.iter2
      (fun (n, c) v -> count n (float_of_int (Telemetry.Counter.value c - v)))
      tele_counters v0;
    r
  end

(* Run calls [0, 1, ...] back to back until [seconds] have passed and at
   least [min_calls] calls were made. The first [det_calls] calls form
   the deterministic prefix: their simulated cost and allocation are
   summed exactly, since the same seed always gives the same prefix. *)
let closed_loop ?(first = 0) ~probe_calls ~seconds ~min_calls ~det_calls (o : op) : loop_result =
  let own = Option.is_none o.latencies in
  let lat = match o.latencies with Some s -> s | None -> Samples.create () in
  lat.Samples.n <- 0;
  let call_wall = Samples.create () in
  let call_ops = ref [] in
  (* probe readings, one every [probe_calls] calls and one at the end *)
  let probes = Samples.create () in
  let failed = ref 0 and failures = ref [] in
  let ops = ref 0 and det_ops = ref 0 in
  let det_sim = ref 0.0 and det_words = ref 0.0 in
  let busy = ref 0.0 in
  let start = now () in
  let i = ref 0 in
  while !i < min_calls || now () -. start < seconds do
    let call = first + !i in
    o.prepare call;
    if !i mod probe_calls = 0 then Samples.push probes (probe ());
    Span.set_op call;
    let sim0 = o.sim_us () in
    let w0 = alloc_words () in
    let t0 = now () in
    counting := !i < det_calls;
    let outcome = try Ok (Span.wrap "op" (fun () -> o.run call)) with e -> Error e in
    let t1 = now () in
    counting := false;
    let w1 = alloc_words () in
    let sim1 = o.sim_us () in
    Span.set_op (-1);
    busy := !busy +. (t1 -. t0);
    if own then Samples.push lat (t1 -. t0);
    Samples.push call_wall (t1 -. t0);
    let n, bad =
      match outcome with
      | Ok n -> (n, o.check call)
      | Error e -> (1, [ Printf.sprintf "call %d raised %s" call (Printexc.to_string e) ])
    in
    ops := !ops + n;
    call_ops := n :: !call_ops;
    if !i < det_calls then begin
      det_ops := !det_ops + n;
      det_sim := !det_sim +. (sim1 -. sim0);
      det_words := !det_words +. (w1 -. w0)
    end;
    failed := !failed + List.length bad;
    List.iter (fun why -> if List.length !failures < 5 then failures := why :: !failures) bad;
    incr i
  done;
  Samples.push probes (probe ());
  (* a call's speed: the mean of the probes that bracket its block *)
  let probes = Samples.to_array probes in
  let call_speed =
    Array.init !i (fun k ->
        let b = k / probe_calls in
        probe_ref /. ((probes.(b) +. probes.(b + 1)) /. 2.0))
  in
  {
    lat = Samples.to_array lat;
    ops = !ops;
    failed = !failed;
    failures = List.rev !failures;
    wall = !busy;
    det_ops = !det_ops;
    det_sim_us = !det_sim;
    det_words = !det_words;
    calls = !i;
    call_wall = Samples.to_array call_wall;
    call_speed;
    call_ops = Array.of_list (List.rev !call_ops);
  }

(* Op latencies and total busy time of a loop, normalized to the
   reference speed (see [probe]). *)
let normalized (r : loop_result) : float array * float =
  let lat = Array.copy r.lat and wall = ref 0.0 in
  let op = ref 0 in
  Array.iteri
    (fun c w ->
      let f = r.call_speed.(c) in
      wall := !wall +. (w *. f);
      for k = !op to min (Array.length lat) (!op + r.call_ops.(c)) - 1 do
        lat.(k) <- lat.(k) *. f
      done;
      op := !op + r.call_ops.(c))
    r.call_wall;
  (lat, !wall)

(* -- result line ------------------------------------------------------------ *)

type metric = { metric : string; value : float; unit_ : string }

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The last line of stdout: the contract's one JSON object. *)
let result_line ~correct ~attempted ~failed (ms : metric list) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.metric (json_num m.value)
              m.unit_)
          ms))

(* -- workloads ---------------------------------------------------------------- *)

(* A set-up workload, ready to be driven. *)
type instance = {
  inputs : string;  (** digest of the generated inputs *)
  op : op;
  min_calls : int;
  det_calls : int;  (** calls in the deterministic prefix *)
  rows : loop_result -> string list;  (** per-program / per-case diagnostics *)
  finish : unit -> string list;  (** end-of-run oracles; one reason per failure *)
  replay : int -> unit;  (** traced run: replay call [i]'s layer calls *)
  probe_calls : int;  (** calls between host-speed probes, about 0.1 s *)
  klass : int -> int;
      (** calls of one class do the same work (the same program, the
          same world); phases are compared class by class *)
}

type workload = {
  name : string;
  setup : seed:int -> inject:string option -> instance;
}
