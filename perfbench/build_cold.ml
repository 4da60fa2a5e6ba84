(* build_cold: a client keeping four requests in flight through
   [Server.submit]/[await]. Each call takes one world through one round:
   evict every image ([evict_to_budget ~bytes:0]), then re-instantiate
   every library lint proves instantiable. The worlds hold
   [Workloads.Fuzz] cases (merges, diamonds, override, rename, freeze,
   hide), one world per case as [Omos.Fuzzer.install] places them, plus
   one world with the Figure 1 libc and the codegen libraries. Every
   request is a miss, so the work falls on blueprint evaluation, jigsaw
   operators, linking, placement and the cache/residency writes; there
   is no SVM execution. *)

module H = Harness
module Fuzz = Workloads.Fuzz

let depth = 4

type lib = {
  path : string;
  source : string;  (** the meta-object source, for the parse replay *)
}

type world = {
  label : string;
  w : Omos.World.t;
  s : Omos.Server.t;
  libs : lib array;  (** the instantiable libraries, in request order *)
}

type state = {
  inputs : string;  (** digest of the cases *)
  worlds : world array;
  lat : H.Samples.t;
  mutable responses : (lib * Omos.Server.response) list;  (** the last call's *)
  digests : (string, string) Hashtbl.t;  (** world:lib -> first-round image digest *)
  inject : string option;
}

(* The libraries of a world the analyzer proves instantiable: lint's
   prediction verified against the real evaluator, as the fuzz
   harness's residency oracle selects them. *)
let instantiable (s : Omos.Server.t) (libs : lib list) : lib list =
  let resolve = Omos.Server.resolve_graph s in
  List.filter
    (fun l ->
      let graph =
        Blueprint.Meta.effective_graph (Omos.Server.find_meta s l.path) ~spec:None
      in
      match Analysis.Lint.verify_against ~eval:(Omos.Server.eval s) ~resolve graph with
      | _, Analysis.Lint.Verified _ -> true
      | _ -> false)
    libs

(* Module leaves a blueprint links, through its generated-library
   dependencies (depth-limited: cases may hold reference cycles). *)
let rec leaves (c : Fuzz.case) depth (b : Fuzz.bp) : int =
  match b with
  | Fuzz.Mod _ -> 1
  | Fuzz.Ext _ -> 0
  | Fuzz.Dep lid -> (
      if depth = 0 then 0
      else
        match List.find_opt (fun l -> l.Fuzz.f_lid = lid) c.Fuzz.f_libs with
        | Some l -> leaves c (depth - 1) l.Fuzz.f_body
        | None -> 0)
  | Fuzz.Merge bs -> List.fold_left (fun a b -> a + leaves c depth b) 0 bs
  | Fuzz.Override (a, b) -> leaves c depth a + leaves c depth b
  | Fuzz.Op1 (_, _, b) | Fuzz.Ren (_, _, b) | Fuzz.Con (_, _, b) -> leaves c depth b

let weight (c : Fuzz.case) =
  List.fold_left (fun a l -> a + leaves c 3 l.Fuzz.f_body) 0 c.Fuzz.f_libs

(* The cases: [n_fixed] from a constant master seed, the same on every
   run, plus [n_seeded] from the run's seed. The seeded ones are
   stratified so that every seed adds a similar amount of work: four
   candidates per case are generated, ranked by library count and then
   by the module leaves their libraries link, and the second of every
   four in rank order is kept. *)
let n_fixed = 24
let n_seeded = 4
let fixed_master = 0x0b1d

let cases ~seed : Fuzz.case list =
  let gen ?max_modules ?max_libs master i =
    Fuzz.generate ?max_modules ?max_libs ~seed:(Fuzz.derive_seed ~master i) ()
  in
  let cands = List.init (4 * n_seeded) (gen ~max_modules:6 ~max_libs:3 seed) in
  let key c = (List.length c.Fuzz.f_libs, weight c) in
  let ranked = List.stable_sort (fun a b -> compare (key a) (key b)) cands in
  List.init n_fixed (gen fixed_master) @ List.filteri (fun i _ -> i mod 4 = 1) ranked

let fuzz_world i (c : Fuzz.case) : world =
  let w = Omos.World.create () in
  Omos.Fuzzer.install c w;
  let s = w.Omos.World.server in
  let libs =
    List.map (fun l -> { path = Fuzz.lib_path l; source = Fuzz.meta_source l }) c.Fuzz.f_libs
  in
  { label = Printf.sprintf "case%02d" i; w; s; libs = Array.of_list (instantiable s libs) }

let base_world () : world =
  let w = Omos.World.create () in
  let libs =
    List.map
      (fun path ->
        {
          path;
          source =
            (if path = "/lib/libc" then Omos.World.libc_meta_source
             else Printf.sprintf "(merge %s.o)" path);
        })
      Omos.World.codegen_libs
  in
  { label = "libc+codegen"; w; s = w.Omos.World.server; libs = Array.of_list libs }

let setup ~seed ~inject : state =
  (* the fixed libraries come round twice per pass, so they are about
     an eighth of all requests whatever the seed *)
  let base = base_world () in
  let cs = cases ~seed in
  let inputs = Digest.to_hex (Digest.string (String.concat "" (List.map Fuzz.to_string cs))) in
  let fuzz = Array.of_list (List.mapi fuzz_world cs) in
  let half = Array.length fuzz / 2 in
  let worlds =
    Array.concat
      [ [| base |]; Array.sub fuzz 0 half; [| base |]; Array.sub fuzz half (Array.length fuzz - half) ]
  in
  { inputs; worlds; lat = H.Samples.create (); responses = []; digests = Hashtbl.create 256; inject }

let hist = Telemetry.Histogram.make

let histograms =
  [
    ("server.sim_parse_us", [ hist "server.us.parse" ]);
    ("server.sim_eval_us", [ hist "server.us.eval" ]);
    ("server.sim_place_us", [ hist "server.us.place" ]);
    ("server.sim_link_us", [ hist "server.us.link" ]);
    ( "server.sim_wait_us",
      [ hist "server.us.queue"; hist "server.us.batch_wait"; hist "server.us.coalesce_wait" ] );
  ]

(* One round in one world: evict everything, then a closed loop of
   [depth] outstanding requests over the world's libraries. A request's
   latency runs from its submit to the return of the await that
   delivers it. *)
let round (st : state) (wd : world) : int =
  (* the telemetry clock is process-global and follows the last server
     created; point it at this world's kernel, as its server did at
     creation, so the stage histograms read this world's time *)
  let clock = wd.w.Omos.World.kernel.Simos.Kernel.clock in
  Telemetry.set_clock (fun () -> Simos.Clock.elapsed clock);
  H.counting_telemetry @@ fun () ->
  let h0 = List.map (fun (_, hs) -> List.map Telemetry.Histogram.sum hs) histograms in
  ignore (H.Span.wrap "server.evict" (fun () -> Omos.Server.evict_to_budget wd.s ~bytes:0));
  let pending = Queue.create () in
  let done_ = ref [] in
  let await_oldest () =
    let l, tk, t0 = Queue.pop pending in
    let r = H.Span.wrap "server.drain" (fun () -> Omos.Server.await wd.s tk) in
    H.Samples.push st.lat (H.now () -. t0);
    done_ := (l, r) :: !done_
  in
  Array.iter
    (fun l ->
      if Queue.length pending >= depth then await_oldest ();
      let t0 = H.now () in
      let tk =
        H.Span.wrap "server.submit" (fun () ->
            Omos.Server.submit wd.s (Omos.Server.library l.path))
      in
      Queue.push (l, tk, t0) pending)
    wd.libs;
  while not (Queue.is_empty pending) do
    await_oldest ()
  done;
  st.responses <- List.rev !done_;
  if !H.counting then
    List.iter2
      (fun (name, hs) v0 ->
        H.count name
          (List.fold_left2 (fun a h v -> a +. Telemetry.Histogram.sum h -. v) 0.0 hs v0))
      histograms h0;
  Array.length wd.libs

(* After every round: no cache hit, the residency invariants hold, and
   every image is byte-identical to the first round's. *)
let check (st : state) (i : int) : string list =
  let wd = st.worlds.(i mod Array.length st.worlds) in
  let first_round = i < Array.length st.worlds in
  if st.inject = Some "residency" && i = Array.length st.worlds then
    Omos.Residency.inject (Omos.Server.residency wd.s) Omos.Residency.Lost_reservation;
  let per_lib =
    List.filter_map
      (fun (l, (r : Omos.Server.response)) ->
        let key = wd.label ^ ":" ^ l.path in
        let d = Linker.Image.digest r.Omos.Server.built.Omos.Server.entry.Omos.Cache.image in
        let d =
          if st.inject = Some "image_digest" && (not first_round) && l == wd.libs.(0) then
            Digest.to_hex (Digest.string d)
          else d
        in
        if not (Hashtbl.mem st.digests key) then Hashtbl.replace st.digests key d;
        if r.Omos.Server.cache_hit then Some (key ^ ": unexpected cache hit")
        else if Hashtbl.find st.digests key <> d then
          Some (key ^ ": image digest differs from the first round")
        else None)
      st.responses
  in
  let residency =
    List.map
      (fun v -> wd.label ^ ": residency: " ^ Omos.Residency.violation_message v)
      (Omos.Residency.check_invariants (Omos.Server.residency wd.s))
  in
  per_lib @ residency

(* Traced run: replay each layer's public call on the inputs of the
   round just served, each in its own span. The replays run outside the
   op, with the mangling counter restored afterwards, so the next round
   builds exactly what it would have built untraced. *)
let replay (st : state) (i : int) : unit =
  let wd = st.worlds.(i mod Array.length st.worlds) in
  let g = Jigsaw.Module_ops.gensym_current () in
  List.iter
    (fun (l, (r : Omos.Server.response)) ->
      let meta = H.Span.wrap "blueprint.parse" (fun () -> Blueprint.Meta.parse ~name:l.path l.source) in
      let graph = Blueprint.Meta.effective_graph meta ~spec:None in
      let res = H.Span.wrap "blueprint.eval" (fun () -> Omos.Server.eval wd.s graph) in
      let m = res.Blueprint.Mgraph.m in
      let obj = H.Span.wrap "jigsaw.to_object" (fun () -> Jigsaw.Module_ops.to_object m) in
      let entry = r.Omos.Server.built.Omos.Server.entry in
      let frags = Jigsaw.Module_ops.fragments m in
      ignore
        (H.Span.wrap "linker.link" (fun () ->
             Linker.Link.link ~allow_undefined:true
               ~layout:
                 {
                   Linker.Link.text_base = entry.Omos.Cache.text_base;
                   data_base = entry.Omos.Cache.data_base;
                 }
               frags));
      ignore (H.Span.wrap "linker.combine" (fun () -> Linker.Link.combine ~name:l.path frags));
      let arena =
        Constraints.Placement.create ~region_lo:Omos.Server.lib_text_lo
          ~region_hi:Omos.Server.lib_text_hi ()
      in
      let size, _ = Omos.Server.module_sizes m in
      let prefs =
        List.filter_map
          (fun (c : Blueprint.Mgraph.constraint_pref) ->
            if c.Blueprint.Mgraph.seg = Blueprint.Mgraph.Seg_text then
              Some (c.Blueprint.Mgraph.priority, c.Blueprint.Mgraph.pref)
            else None)
          res.Blueprint.Mgraph.constraints
      in
      ignore
        (H.Span.wrap "constraints.place" (fun () ->
             Constraints.Placement.place arena ~size:(max size 1) ~owner:l.path ~prefs ()));
      ignore (H.Span.wrap "sof.codec" (fun () -> Sof.Codec.decode (Sof.Codec.encode obj))))
    st.responses;
  ignore
    (H.Span.wrap "residency.check" (fun () ->
         Omos.Residency.check_invariants (Omos.Server.residency wd.s)));
  Jigsaw.Module_ops.gensym_set g

(* Per-case diagnostic rows: libraries, requests served and host ms
   per round in each world. *)
let rows (st : state) (r : H.loop_result) : string list =
  let n = Array.length st.worlds in
  let lat, _ = H.normalized r in
  let first = ref 0 in
  let per = Array.make n [] and walls = Array.make n [] in
  Array.iteri
    (fun ci ops ->
      let wi = ci mod n in
      walls.(wi) <- r.H.call_wall.(ci) :: walls.(wi);
      for k = !first to !first + ops - 1 do
        per.(wi) <- lat.(k) :: per.(wi)
      done;
      first := !first + ops)
    r.H.call_ops;
  Array.to_list
    (Array.mapi
       (fun wi wd ->
         let ls = Array.of_list per.(wi) in
         Printf.sprintf
           "  %-14s %2d libs  %4d rounds  raw %7.3f ms/round  normalized latency ms p50 %6.3f p95 %6.3f"
           wd.label (Array.length wd.libs) (List.length walls.(wi))
           (H.median walls.(wi) *. 1e3)
           (H.percentile ls 50.0 *. 1e3)
           (H.percentile ls 95.0 *. 1e3))
       st.worlds)

let workload : H.workload =
  {
    H.name = "build_cold";
    setup =
      (fun ~seed ~inject ->
        let st = setup ~seed ~inject in
        let n = Array.length st.worlds in
        let sim_us () =
          Array.fold_left
            (fun a wd -> a +. Simos.Clock.elapsed wd.w.Omos.World.kernel.Simos.Kernel.clock)
            0.0 st.worlds
        in
        (* warm-up: one full round; its digests are the first-round ones *)
        for i = 0 to n - 1 do
          ignore (round st st.worlds.(i));
          ignore (check st i)
        done;
        {
          H.inputs = st.inputs;
          op =
            {
              H.prepare = ignore;
              run = (fun i -> round st st.worlds.(i mod n));
              check = (fun i -> check st (i + n));
              sim_us;
              latencies = Some st.lat;
            };
          probe_calls = 5 * n;
          min_calls = 2 * n;
          det_calls = n;
          rows = rows st;
          finish = (fun () -> []);
          replay = replay st;
          klass = (fun i -> i mod n);
        });
  }
