(* The flight recorder ring. See flight.mli for the contract.

   Layout: parallel pre-allocated arrays indexed by [total mod
   capacity]. Floats live in unboxed [float array]s and the variant
   kinds are immediate values, so an append writes seven slots and
   bumps the cursor — no allocation, no branching beyond the modulo. *)

type kind =
  | Request_begin
  | Request_end
  | Span_enter
  | Span_exit
  | Count
  | Gauge_set
  | Observe
  | Transition
  | Fault
  | Violation
  | Note

let kind_label = function
  | Request_begin -> "request_begin"
  | Request_end -> "request_end"
  | Span_enter -> "span_enter"
  | Span_exit -> "span_exit"
  | Count -> "count"
  | Gauge_set -> "gauge_set"
  | Observe -> "observe"
  | Transition -> "transition"
  | Fault -> "fault"
  | Violation -> "violation"
  | Note -> "note"

let capacity = 4096

let at_us_a : float array = Array.make capacity 0.0
let value_a : float array = Array.make capacity 0.0
let kind_a : kind array = Array.make capacity Note
let name_a : string array = Array.make capacity ""
let detail_a : string array = Array.make capacity ""
let client_a : int array = Array.make capacity (-1)
let request_a : int array = Array.make capacity (-1)
let total = ref 0

(* -- context -------------------------------------------------------- *)

let cur_client = ref (-1)
let cur_request = ref (-1)

let set_context ~client ~request =
  cur_client := client;
  cur_request := request

let clear_context () =
  cur_client := -1;
  cur_request := -1

let current_client () = !cur_client
let current_request () = !cur_request

(* the process's one telemetry clock: spans read it through
   [Telemetry.now_us] *)
let clock : (unit -> float) ref = ref (fun () -> 0.0)
let set_clock f = clock := f
let now_us () = !clock ()

(* -- recording ------------------------------------------------------ *)

let emit (kind : kind) (name : string) (detail : string) (value : float) : unit =
  let i = !total mod capacity in
  at_us_a.(i) <- !clock ();
  value_a.(i) <- value;
  kind_a.(i) <- kind;
  name_a.(i) <- name;
  detail_a.(i) <- detail;
  client_a.(i) <- !cur_client;
  request_a.(i) <- !cur_request;
  incr total

let record ?(detail = "") ?(value = 0.0) (kind : kind) (name : string) : unit =
  emit kind name detail value

let total_recorded () = !total
let size () = min !total capacity

let clear () = total := 0

(* -- reading -------------------------------------------------------- *)

type event = {
  seq : int;
  at_us : float;
  kind : kind;
  name : string;
  detail : string;
  value : float;
  client : int;
  request : int;
}

let events () : event list =
  let n = size () in
  List.init n (fun k ->
      let seq = !total - n + k in
      let i = seq mod capacity in
      {
        seq;
        at_us = at_us_a.(i);
        kind = kind_a.(i);
        name = name_a.(i);
        detail = detail_a.(i);
        value = value_a.(i);
        client = client_a.(i);
        request = request_a.(i);
      })

(* -- dumping -------------------------------------------------------- *)

let to_json_events ~(reason : string) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"flight_dump\",\"reason\":\"%s\",\"recorded\":%d,\"retained\":%d,\"capacity\":%d}\n"
       (Json.escape reason) !total (size ()) capacity);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"flight\",\"seq\":%d,\"at_us\":%s,\"kind\":\"%s\",\"name\":\"%s\",\"detail\":\"%s\",\"value\":%s,\"client\":%d,\"request\":%d}\n"
           e.seq (Json.number e.at_us) (kind_label e.kind) (Json.escape e.name)
           (Json.escape e.detail) (Json.number e.value) e.client e.request))
    (events ());
  Buffer.contents b

let to_transcript ~(reason : string) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# flight recorder: reason=%s events=%d..%d (%d recorded)\n"
       reason
       (!total - size ())
       (!total - 1)
       !total);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%06d at=%.1fus client=%d request=%d %-13s %s%s%s\n" e.seq
           e.at_us e.client e.request (kind_label e.kind) e.name
           (if e.detail = "" then "" else " " ^ e.detail)
           (if e.value = 0.0 then "" else Printf.sprintf " value=%g" e.value)))
    (events ());
  Buffer.contents b

let write_file (path : string) (contents : string) : unit =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Invoked after every dump with the reason; telemetry.ml registers a
   hook that counts dumps by cause (this module sits below the metrics
   registry, so it cannot increment counters itself). *)
let on_dump : (string -> unit) ref = ref (fun _ -> ())
let set_on_dump f = on_dump := f

let dump ~(reason : string) ~(prefix : string) : unit =
  write_file (prefix ^ ".json") (to_json_events ~reason);
  write_file (prefix ^ ".txt") (to_transcript ~reason);
  !on_dump reason

let auto : string option ref = ref None
let set_auto_dump p = auto := p
let auto_dump_prefix () = !auto

let trip ~(reason : string) () : bool =
  match !auto with
  | Some prefix when !total > 0 ->
      record Note reason;
      dump ~reason ~prefix;
      true
  | _ -> false

(* -- hooks for the residency layer ---------------------------------- *)

let record_fault (name : string) : unit =
  record Fault name;
  ignore (trip ~reason:("fault " ^ name) ())

let record_violation ~(name : string) ~(detail : string) : unit =
  record ~detail Violation name
