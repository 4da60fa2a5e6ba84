(* relink_edit: a developer's edit-and-rebuild loop. The library is
   1000 generated modules under a fanout-4 merge tree (the E_relink
   shape); every fourth 16-leaf group sits under a hide or a freeze, the
   interposition shape of the paper's Figure 2. Each op edits one module
   the seed picks: a new version of it is compiled and bound before the
   clock starts, then the op re-registers the library source with that
   leaf swapped ([Server.register_meta_source], where lint and the
   impact analysis run) and rebuilds it ([Server.instantiate], which
   re-materializes only what the analysis could not prove reusable). *)

module H = Harness

let n_modules = 1000
let path = "/relink/lib"

(* Every [rebase_every] ops the image cache is emptied and the current
   library rebuilt from scratch, untimed, so the images a run keeps stay
   bounded however many edits it makes. Eviction drops the memo table
   too; the rebuild fills it again. *)
let rebase_every = 64

let leaf_path i v = Printf.sprintf "/relink/m%dv%d.o" i v

(* Version [v] of module [i]: [calls] calls of the next module's
   function (the seed varies it per edit, so the relocation work, and
   with it the simulated link cost, varies with the seed). *)
let module_source i v ~calls =
  if i = n_modules - 1 then Printf.sprintf "int relink_fn_%d(int x) { return x + %d; }\n" i (i + v)
  else
    Printf.sprintf "int relink_fn_%d(int x) { return %s + %d; }\n" i
      (String.concat " + "
         (List.init calls (fun k -> Printf.sprintf "relink_fn_%d(x + %d)" (i + 1) k)))
      (i + (1000 * v))

(* Group [g] covers leaves 16g .. 16g+15. Every fourth group is wrapped,
   alternately in a hide and a freeze of a function only its own group
   calls. *)
let wrap_group g body =
  if g mod 4 <> 0 then body
  else
    let op = if g / 4 mod 2 = 0 then "hide" else "freeze" in
    Printf.sprintf "(%s \"^relink_fn_%d$\" %s)" op ((16 * g) + 5) body

let chunks4 (xs : string list) : string list list =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = 4 then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let merge xs = "(merge " ^ String.concat " " xs ^ ")"

(* The library source over the current leaf versions. *)
let render (versions : int array) : string =
  let leaves = List.init n_modules (fun i -> leaf_path i versions.(i)) in
  let level1 = List.map merge (chunks4 leaves) in
  let level2 = List.mapi (fun g c -> wrap_group g (merge c)) (chunks4 level1) in
  let rec up = function [ one ] -> one | xs -> up (List.map merge (chunks4 xs)) in
  up level2

type state = {
  w : Omos.World.t;
  s : Omos.Server.t;
  versions : int array;
  rs : Random.State.t;
  mutable source : string;  (** the next op's library source *)
  mutable gensym_before : int;  (** mangling counter before the last rebuild *)
  mutable last : Omos.Server.response option;
  mutable old_tree : Analysis.Impact.tree option;
}

let add_version (st : state) i v ~calls =
  let p = leaf_path i v in
  Omos.Server.add_fragment st.s p (Minic.Driver.compile ~name:p (module_source i v ~calls))

let build (st : state) = Omos.Server.instantiate st.s (Omos.Server.library path)

let setup ~seed : state =
  let w = Omos.World.create () in
  let st =
    {
      w;
      s = w.Omos.World.server;
      versions = Array.make n_modules 0;
      rs = Random.State.make [| seed; 0x7e1 |];
      source = "";
      gensym_before = 0;
      last = None;
      old_tree = None;
    }
  in
  for i = 0 to n_modules - 1 do
    add_version st i 0 ~calls:1
  done;
  Omos.Server.register_meta_source st.s path (render st.versions);
  ignore (build st);
  st

(* Untimed: compile the edited module's next version, bind it, and
   render the source the op will register. *)
let prepare (st : state) (i : int) : unit =
  if i > 0 && i mod rebase_every = 0 then begin
    ignore (Omos.Server.evict_to_budget st.s ~bytes:0);
    ignore (build st)
  end;
  let m = Random.State.int st.rs n_modules in
  let v = st.versions.(m) + 1 in
  add_version st m v ~calls:(1 + Random.State.int st.rs 3);
  st.versions.(m) <- v;
  st.source <- render st.versions;
  st.old_tree <- Omos.Server.impact_tree st.s path

let run (st : state) (_ : int) : int =
  H.counting_telemetry @@ fun () ->
  H.Span.wrap "server.register" (fun () -> Omos.Server.register_meta_source st.s path st.source);
  st.gensym_before <- Jigsaw.Module_ops.gensym_current ();
  st.last <- Some (H.Span.wrap "server.rebuild" (fun () -> build st));
  1

(* Every edit yields a new library, so a cache hit is wrong. *)
let check (st : state) (_ : int) : string list =
  match st.last with
  | Some r when r.Omos.Server.cache_hit -> [ "edit served from the cache" ]
  | Some _ -> []
  | None -> [ "no rebuild" ]

(* End of run: the last incremental image must equal a from-scratch
   build of the same source: evaluated with subtree reuse off from the
   same mangling counter, and linked at the incremental image's bases
   (placement is part of an image's identity, and the arena still holds
   the earlier edits' images). *)
let finish (st : state) ~inject : string list =
  match st.last with
  | None -> [ "no edit was made" ]
  | Some r ->
      let e = r.Omos.Server.built.Omos.Server.entry in
      let incremental = Linker.Image.digest e.Omos.Cache.image in
      let incremental =
        if inject = Some "relink" then Digest.to_hex (Digest.string incremental) else incremental
      in
      Omos.Server.set_subtree_reuse st.s false;
      Jigsaw.Module_ops.gensym_set st.gensym_before;
      let graph = Blueprint.Meta.effective_graph (Omos.Server.find_meta st.s path) ~spec:None in
      let m = (Omos.Server.eval st.s graph).Blueprint.Mgraph.m in
      Omos.Server.set_subtree_reuse st.s true;
      let img, _ =
        Linker.Link.link ~allow_undefined:true
          ~layout:
            { Linker.Link.text_base = e.Omos.Cache.text_base; data_base = e.Omos.Cache.data_base }
          (Jigsaw.Module_ops.fragments m)
      in
      let scratch =
        Linker.Image.digest { img with Linker.Image.name = e.Omos.Cache.image.Linker.Image.name }
      in
      if scratch = incremental then []
      else [ "final incremental image differs from the from-scratch build" ]

(* Traced run: replay the analysis layer's public calls on the op's
   edited library, each in its own span. *)
let replay (st : state) (_ : int) : unit =
  let resolve = Omos.Server.resolve_graph st.s in
  let meta = Omos.Server.find_meta st.s path in
  ignore (H.Span.wrap "analysis.lint" (fun () -> Analysis.Lint.analyze_meta ~resolve meta));
  let graph = Blueprint.Meta.effective_graph meta ~spec:None in
  let tree = H.Span.wrap "analysis.impact" (fun () -> Analysis.Impact.analyze ~resolve graph) in
  match st.old_tree with
  | Some old_tree ->
      ignore (H.Span.wrap "analysis.diff" (fun () -> Analysis.Impact.diff ~old_tree ~new_tree:tree))
  | None -> ()

let workload : H.workload =
  {
    H.name = "relink_edit";
    setup =
      (fun ~seed ~inject ->
        let st = setup ~seed in
        (* the edit sequence: (module, calls) as [prepare] draws them *)
        let inputs =
          let rs = Random.State.copy st.rs in
          Digest.to_hex
            (Digest.string
               (String.concat ","
                  (List.init 256 (fun _ ->
                       let m = Random.State.int rs n_modules in
                       Printf.sprintf "%d:%d" m (1 + Random.State.int rs 3)))))
        in
        (* warm-up: a few edits reach the steady state of memo hits *)
        for i = 1 to 4 do
          prepare st i;
          ignore (run st i)
        done;
        {
          H.inputs = inputs;
          op =
            {
              H.prepare = prepare st;
              run = run st;
              check = check st;
              sim_us = (fun () -> Simos.Clock.elapsed st.w.Omos.World.kernel.Simos.Kernel.clock);
              latencies = None;
            };
          probe_calls = 2;
          min_calls = 24;
          det_calls = 24;
          rows = (fun _ -> []);
          finish = (fun () -> finish st ~inject);
          replay = replay st;
          klass = (fun _ -> 0);
        });
  }
