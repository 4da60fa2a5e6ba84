(** The server's specialization styles (paper §3.4, §4.2).

    Blueprint-visible styles beyond the base ones in {!Blueprint.Mgraph}:

    - ["lib-dynamic"] — "creates an m-graph, the evaluation of which
      causes stub functions to be dynamically generated for each
      referenced entry point in the operand. The stub code is compiled
      and returned as the representative implementation of the
      library." The produced module contains only stubs + slots, one
      per exported function ({!Monitor.functions}), each stub assembled
      under the function's plain name so clients bind to it. The real
      code comes later via ["lib-dynamic-impl"].

    - ["lib-dynamic-impl"] — "generates the m-graph which will produce
      the library implementation that is to be loaded and shared":
      plain evaluation of the operand.

    - ["monitor"] — the monitoring transformation of §4.1/§6: wrap
      every exported routine with a logging wrapper. The most recent
      trace is available through {!last_trace} (the server uses it to
      derive reorderings). *)

type t = { server : Server.t; mutable last_trace : Monitor.trace option }

let last_trace (t : t) : Monitor.trace option = t.last_trace

let install (server : Server.t) : t =
  let t = { server; last_trace = None } in
  (* lib-dynamic: stubs for every exported function of the operand *)
  Server.register_specializer server "lib-dynamic" (fun env _args node ->
      let r = Blueprint.Mgraph.eval env node in
      let stubs =
        Stubs.omos_stub_object
          (List.map
             (fun n -> { (Stubs.import_of_name n) with Stubs.imp_stub = n })
             (Monitor.functions r.Blueprint.Mgraph.m))
      in
      { Blueprint.Mgraph.m = Jigsaw.Module_ops.of_object stubs; constraints = [] });
  (* lib-dynamic-impl: the shared implementation itself *)
  Server.register_specializer server "lib-dynamic-impl" (fun env _args node ->
      Blueprint.Mgraph.eval env node);
  (* monitor: interpose logging wrappers; the hotness key is the
     monitored server-object path when the operand is a name, else the
     blueprint digest — stable identities the continuous profile can
     aggregate under across requests *)
  Server.register_specializer server "monitor" (fun env args node ->
      let exits =
        List.exists (function Blueprint.Mgraph.Vstr "exits" -> true | _ -> false) args
      in
      let key =
        match node with
        | Blueprint.Mgraph.Name path -> path
        | n -> "digest:" ^ Blueprint.Mgraph.digest n
      in
      let r = Blueprint.Mgraph.eval env node in
      let m', trace = Monitor.monitored ~exits r.Blueprint.Mgraph.m in
      Monitor.attach ~key (Server.kernel server) trace;
      t.last_trace <- Some trace;
      { r with Blueprint.Mgraph.m = m' });
  t
