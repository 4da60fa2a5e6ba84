(** Deterministic multi-client workload driver (see workload.mli). *)

exception Spec_error of string

type spec = {
  clients : int;
  requests : int;
  seed : int;
  concurrency : int;
  metas : string list;
  mix : (string * int) list;
  evict_bytes : int;
  faults : Residency.faults option;
}

let default =
  {
    clients = 3;
    requests = 30;
    seed = 7;
    concurrency = 1;
    metas = [ "/demo/hello"; "/lib/libm"; "/lib/libl" ];
    mix = [ ("instantiate", 6); ("dynload", 2); ("evict", 1) ];
    evict_bytes = 4096;
    faults = None;
  }

let known_ops = [ "instantiate"; "dynload"; "evict" ]

let parse (text : string) : spec =
  let clients = ref default.clients in
  let requests = ref default.requests in
  let seed = ref default.seed in
  let concurrency = ref default.concurrency in
  let metas = ref [] in
  let mix = ref None in
  let evict_bytes = ref default.evict_bytes in
  let fault = ref None in
  let fault_field f =
    let cur = match !fault with Some x -> x | None -> Residency.no_faults in
    fault := Some (f cur)
  in
  List.iteri
    (fun lno line ->
      let err msg = raise (Spec_error (Printf.sprintf "line %d: %s" (lno + 1) msg)) in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let toks =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      in
      let int_of what s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> err (what ^ ": not an integer: " ^ s)
      in
      let float_of what s =
        match float_of_string_opt s with
        | Some f -> f
        | None -> err (what ^ ": not a number: " ^ s)
      in
      match toks with
      | [] -> ()
      | [ "clients"; n ] -> clients := int_of "clients" n
      | [ "requests"; n ] -> requests := int_of "requests" n
      | [ "seed"; n ] -> seed := int_of "seed" n
      | [ "concurrency"; n ] -> concurrency := int_of "concurrency" n
      | [ "meta"; path ] -> metas := path :: !metas
      | [ "evict_bytes"; n ] ->
          let b = int_of "evict_bytes" n in
          if b < 0 then err ("evict_bytes must be >= 0: " ^ n);
          evict_bytes := b
      | [ "fault_seed"; n ] ->
          let n = int_of "fault_seed" n in
          fault_field (fun f -> { f with Residency.seed = n })
      | [ "fault"; name; rate ] -> (
          let r = float_of "fault rate" rate in
          if r < 0.0 || r > 1.0 then
            err ("fault rate must be in [0,1]: " ^ rate);
          match name with
          | "place_conflict" ->
              fault_field (fun f -> { f with Residency.place_conflict = r })
          | "evict_storm" ->
              fault_field (fun f -> { f with Residency.evict_storm = r })
          | "reserve_fail" ->
              fault_field (fun f -> { f with Residency.reserve_fail = r })
          | _ -> err ("unknown fault: " ^ name))
      | "mix" :: (_ :: _ as entries) ->
          if !mix <> None then err "duplicate mix line (mix may appear once)";
          let parsed =
            List.map
              (fun e ->
                match String.index_opt e '=' with
                | Some i ->
                    let name = String.sub e 0 i in
                    let ws = String.sub e (i + 1) (String.length e - i - 1) in
                    if not (List.mem name known_ops) then
                      err ("unknown op in mix: " ^ name);
                    let w = int_of "mix weight" ws in
                    if w <= 0 then err ("mix weight must be positive: " ^ e);
                    (name, w)
                | None -> err ("mix entries are op=weight, got: " ^ e))
              entries
          in
          List.iteri
            (fun i (name, _) ->
              if List.exists (fun (n, _) -> n = name) (List.filteri (fun j _ -> j < i) parsed)
              then err ("duplicate op in mix: " ^ name))
            parsed;
          mix := Some parsed
      | w :: _ -> err ("unknown directive: " ^ w))
    (String.split_on_char '\n' text);
  if !clients < 1 then raise (Spec_error "clients must be >= 1");
  if !requests < 0 then raise (Spec_error "requests must be >= 0");
  if !concurrency < 1 then raise (Spec_error "concurrency must be >= 1");
  {
    clients = !clients;
    requests = !requests;
    seed = !seed;
    concurrency = !concurrency;
    metas = (if !metas = [] then default.metas else List.rev !metas);
    mix = (match !mix with Some m -> m | None -> default.mix);
    evict_bytes = !evict_bytes;
    faults = !fault;
  }

let parse_file (path : string) : spec =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

type event = {
  w_req : int;
  w_client : int;
  w_op : string;
  w_target : string;
  w_hit : bool option;
  w_cost_us : float;
  w_wait_us : float;
}

let run ?(setup = fun (_ : World.t) -> ()) ?(on_event = fun (_ : event) -> ())
    (spec : spec) : event list =
  let w =
    match spec.faults with
    | Some f -> World.create ~faults:f ()
    | None -> World.create ()
  in
  setup w;
  let s = w.World.server in
  let k = Server.kernel s in
  let clock = k.Simos.Kernel.clock in
  (* one dynload host process per client, built before the telemetry
     reset so the setup builds don't pollute the request stream *)
  let dl = Dynload.create s in
  let hosts =
    Array.init spec.clients (fun i ->
        let name = Printf.sprintf "wl-host-%d" i in
        let main =
          Minic.Driver.compile
            ~name:(Printf.sprintf "/obj/%s.o" name)
            "int main() { return 0; }"
        in
        let b =
          Server.build s
            (Server.static ~name
               (Schemes.graph_of_objs [ Workloads.Crt0.obj (); main ]))
        in
        let p = Boot.integrated_exec s (Server.loadable_entry [ b ]) ~args:[ name ] in
        (p, b.Server.entry.Cache.image))
  in
  Telemetry.reset ();
  (* spans are recorded for the run only: whoever runs next in this
     process finds the switch as it was *)
  let was_recording = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  (* xorshift32: small, pure, and byte-identical across runs *)
  let state = ref (if spec.seed = 0 then 0x9e3779b9 else spec.seed land 0xffffffff) in
  let rand_int n =
    let x = !state in
    let x = x lxor (x lsl 13) land 0xffffffff in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0xffffffff in
    state := x;
    x mod n
  in
  let total_weight = List.fold_left (fun a (_, wt) -> a + wt) 0 spec.mix in
  let pick_op () =
    let r = rand_int total_weight in
    let rec go acc = function
      | [] -> assert false
      | (name, wt) :: rest -> if r < acc + wt then name else go (acc + wt) rest
    in
    go 0 spec.mix
  in
  (* admission control: only raise the configured queue limit when the
     pipeline depth actually needs it — never lower it — and restore
     the configured value when the run ends, so a scenario can't
     silently mask Overload for whoever uses the server next *)
  let orig_limit = Server.queue_limit s in
  if spec.concurrency > orig_limit then Server.set_queue_limit s spec.concurrency;
  let restore () =
    Server.set_queue_limit s orig_limit;
    Telemetry.set_enabled was_recording
  in
  let events = ref [] in
  let emit ev =
    on_event ev;
    events := ev :: !events
  in
  (* instantiates submitted but not yet delivered, submission order *)
  let pending = ref [] in
  (* barrier: complete every in-flight instantiate, emitting its event.
     Submission order is delivery order, so the streamed output is the
     same whether requests overlapped or not. *)
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | batch ->
        pending := [];
        Server.drain s;
        List.iter
          (fun (req_id, client, meta, ticket) ->
            let r = Server.await s ticket in
            emit
              {
                w_req = req_id;
                w_client = client;
                w_op = "instantiate";
                w_target = meta;
                w_hit = Some r.Server.cache_hit;
                w_cost_us = r.Server.sim_us;
                w_wait_us =
                  r.Server.queue_us +. r.Server.batch_us
                  +. r.Server.coalesce_us;
              })
          batch
  in
  Fun.protect ~finally:restore @@ fun () ->
  for _ = 1 to spec.requests do
    let client = rand_int spec.clients in
    Telemetry.Request.set_client client;
    let req_id = Telemetry.Request.last_id () + 1 in
    match pick_op () with
    | "instantiate" ->
        let meta = List.nth spec.metas (rand_int (List.length spec.metas)) in
        if spec.concurrency > 1 then begin
          let ticket = Server.submit s (Server.library meta) in
          pending := (req_id, client, meta, ticket) :: !pending;
          if List.length !pending >= spec.concurrency then flush ()
        end
        else
          let r = Server.instantiate s (Server.library meta) in
          emit
            {
              w_req = req_id;
              w_client = client;
              w_op = "instantiate";
              w_target = meta;
              w_hit = Some r.Server.cache_hit;
              w_cost_us = r.Server.sim_us;
              w_wait_us =
                r.Server.queue_us +. r.Server.batch_us +. r.Server.coalesce_us;
            }
    | ("dynload" | "evict") as op ->
        (* dynload/unload/evict mutate state the pipeline reads — they
           act as barriers *)
        flush ();
        let before = Simos.Clock.elapsed clock in
        let op_name, target =
          match op with
          | "dynload" -> (
              let p, img = hosts.(client) in
              match Dynload.loaded dl p with
              | [] ->
                  ignore
                    (Dynload.load dl p ~client_images:[ img ]
                       ~graph:(Blueprint.Mgraph.parse "(merge /demo/impl.o)")
                       ~symbols:[ "greet" ]);
                  ("dynload", "/demo/impl.o")
              | last :: _ ->
                  Dynload.unload dl p last;
                  ("unload", last.Linker.Image.name))
          | _ ->
              let n = Server.evict_to_budget s ~bytes:spec.evict_bytes in
              ("evict", Printf.sprintf "budget=%d evicted=%d" spec.evict_bytes n)
        in
        emit
          {
            w_req = req_id;
            w_client = client;
            w_op = op_name;
            w_target = target;
            w_hit = None;
            w_cost_us = Simos.Clock.elapsed clock -. before;
            w_wait_us = 0.0;
          }
    | op -> raise (Spec_error ("unknown op in mix: " ^ op))
  done;
  flush ();
  List.rev !events
