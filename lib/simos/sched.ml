(** Deterministic cooperative run queue (see sched.mli). *)

type t = {
  mutable queue : (unit -> unit) list; (* newest-first; drained via rev *)
  mutable ready : (unit -> unit) list; (* oldest-first tail being consumed *)
  mutable seed : int;
  mutable rng : int;
  mutable in_step : bool;
}

let create () = { queue = []; ready = []; seed = 0; rng = 0; in_step = false }

let set_seed (t : t) (seed : int) : unit =
  t.seed <- seed;
  t.rng <- (if seed = 0 then 0 else seed land 0xffffffff)

let spawn (t : t) (run : unit -> unit) : unit = t.queue <- run :: t.queue

let running (t : t) : bool = t.in_step

(* xorshift32, the same generator the workload driver uses. *)
let rand (t : t) (bound : int) : int =
  let x = t.rng in
  let x = x lxor (x lsl 13) land 0xffffffff in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0xffffffff in
  let x = if x = 0 then 0x9e3779b9 else x in
  t.rng <- x;
  x mod bound

(* Pull the next task honouring the order discipline; [None] when both
   lists are empty. *)
let take (t : t) : (unit -> unit) option =
  (if t.ready = [] then begin
     t.ready <- List.rev t.queue;
     t.queue <- []
   end);
  match t.ready with
  | [] -> None
  | first :: rest ->
      if t.seed = 0 then begin
        t.ready <- rest;
        Some first
      end
      else begin
        (* seeded pick among all ready tasks, position chosen by the
           deterministic generator *)
        let all = t.ready in
        let i = rand t (List.length all) in
        let picked = List.nth all i in
        t.ready <- List.filteri (fun j _ -> j <> i) all;
        Some picked
      end

let step (t : t) : bool =
  match take t with
  | Some run ->
      let was = t.in_step in
      t.in_step <- true;
      Fun.protect ~finally:(fun () -> t.in_step <- was) run;
      true
  | None -> false
