(* OFE — the Object File Editor (paper §8.1).

   "We also have a non-server version of OMOS, called the Object File
   Editor (OFE). It offers a traditional command interface and
   manipulates files in the normal Unix file namespace."

   Subcommands operate on SOF object files on the host filesystem:

     ofe compile in.c out.sof        minic -> SOF
     ofe info file.sof               sections, counts
     ofe symbols file.sof            the symbol table
     ofe relocs file.sof             relocation entries
     ofe disasm file.sof             text disassembly
     ofe exports file.sof            exported names
     ofe undefined file.sof          unresolved references
     ofe convert FMT in out          re-encode (sof | aout)
     ofe rename PAT TPL in out       jigsaw rename (defs+refs)
     ofe hide PAT in out             jigsaw hide
     ofe restrict PAT in out         jigsaw restrict
     ofe copy-as PAT NEW in out      jigsaw copy-as
     ofe merge out in1 in2 ...       jigsaw merge (partial link)        *)

open Cmdliner

(* reads either backend format via the Bfd switch *)
let read_obj (path : string) : Sof.Object_file.t =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  Sof.Bfd.decode (Bytes.of_string bytes)

let write_obj (path : string) (o : Sof.Object_file.t) : unit =
  let oc = open_out_bin path in
  output_bytes oc (Sof.Codec.encode o);
  close_out oc

let in_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"input SOF file")

let handle f =
  try
    f ();
    0
  with
  | Sof.Codec.Decode_error m | Sof.Aout.Decode_error m
  | Sof.Bfd.Unknown_format m | Sof.Object_file.Invalid m ->
      Printf.eprintf "ofe: %s\n" m;
      1
  | Minic.Driver.Compile_error m ->
      Printf.eprintf "ofe: %s\n" m;
      1
  | Jigsaw.Module_ops.Module_error m ->
      Printf.eprintf "ofe: %s\n" m;
      1
  | Omos.Server.Server_error m | Blueprint.Mgraph.Eval_error m ->
      Printf.eprintf "ofe: %s\n" m;
      1
  | Linker.Link.Link_error e ->
      Printf.eprintf "ofe: %s\n" (Linker.Link.error_to_string e);
      1
  | Blueprint.Meta.Meta_error m
  | Constraints.Placement.No_space m
  | Omos.Residency.Violation m
  | Simos.Fs.Fs_error m
  | Simos.Kernel.Exec_error m ->
      Printf.eprintf "ofe: %s\n" m;
      1
  | Omos.Workload.Spec_error m ->
      Printf.eprintf "ofe: workload spec: %s\n" m;
      1
  | Workloads.Fuzz.Case_error m ->
      Printf.eprintf "ofe: fuzzcase: %s\n" m;
      1
  | Telemetry.Health.Slo_error m ->
      Printf.eprintf "ofe: slo: %s\n" m;
      1
  | Sys_error m ->
      Printf.eprintf "ofe: %s\n" m;
      1

(* The exit convention (also in the EXIT STATUS man section): 0 =
   success, 1 = input/build errors, 2 = residency invariant violation,
   SLO breach, or command-line parse error. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on input or build errors (bad objects, unknown meta-objects, link failures).";
    Cmd.Exit.info 2
      ~doc:
        "on residency invariant violations, SLO breaches, and command-line \
         parse errors.";
  ]

(* -- inspection commands ------------------------------------------------- *)

let info_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        Printf.printf "%s: text=%d data=%d bss=%d symbols=%d relocs=%d ctors=%d\n"
          o.Sof.Object_file.name
          (Bytes.length o.Sof.Object_file.text)
          (Bytes.length o.Sof.Object_file.data)
          o.Sof.Object_file.bss_size
          (List.length o.Sof.Object_file.symbols)
          (List.length o.Sof.Object_file.relocs)
          (List.length o.Sof.Object_file.ctors))
  in
  Cmd.v (Cmd.info "info" ~doc:"show section sizes and table counts")
    Term.(const run $ in_file)

let symbols_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        List.iter
          (fun s -> Format.printf "%a@." Sof.Symbol.pp s)
          o.Sof.Object_file.symbols)
  in
  Cmd.v (Cmd.info "symbols" ~doc:"print the symbol table") Term.(const run $ in_file)

let relocs_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        List.iter (fun r -> Format.printf "%a@." Sof.Reloc.pp r) o.Sof.Object_file.relocs)
  in
  Cmd.v (Cmd.info "relocs" ~doc:"print relocation entries") Term.(const run $ in_file)

let disasm_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        print_string (Svm.Disasm.code_to_string o.Sof.Object_file.text))
  in
  Cmd.v (Cmd.info "disasm" ~doc:"disassemble the text section") Term.(const run $ in_file)

let exports_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        List.iter
          (fun (s : Sof.Symbol.t) -> print_endline s.Sof.Symbol.name)
          (Sof.Object_file.exported o))
  in
  Cmd.v (Cmd.info "exports" ~doc:"list exported definitions") Term.(const run $ in_file)

let undefined_cmd =
  let run input =
    handle (fun () ->
        List.iter print_endline (Sof.Object_file.undefined (read_obj input)))
  in
  Cmd.v (Cmd.info "undefined" ~doc:"list unresolved references") Term.(const run $ in_file)

(* -- the classic object-file utilities (paper §7: nm, size, strings
   "are concerned with only a small part of the whole file") ---------------- *)

let nm_cmd =
  (* nm-style: value, type letter, name. T/D/B/A for text/data/bss/abs
     (lowercase = local), U for undefined. *)
  let run input =
    handle (fun () ->
        let o = read_obj input in
        List.iter
          (fun (s : Sof.Symbol.t) ->
            let letter =
              match s.Sof.Symbol.kind with
              | Sof.Symbol.Text -> "T"
              | Sof.Symbol.Data -> "D"
              | Sof.Symbol.Bss -> "B"
              | Sof.Symbol.Abs -> "A"
              | Sof.Symbol.Undef -> "U"
            in
            let letter =
              if s.Sof.Symbol.binding = Sof.Symbol.Local then
                String.lowercase_ascii letter
              else letter
            in
            if s.Sof.Symbol.kind = Sof.Symbol.Undef then
              Printf.printf "%8s %s %s\n" "" letter s.Sof.Symbol.name
            else Printf.printf "%08x %s %s\n" s.Sof.Symbol.value letter s.Sof.Symbol.name)
          (List.sort
             (fun (a : Sof.Symbol.t) b -> compare a.Sof.Symbol.name b.Sof.Symbol.name)
             o.Sof.Object_file.symbols))
  in
  Cmd.v (Cmd.info "nm" ~doc:"list symbols, nm-style") Term.(const run $ in_file)

let size_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        let text = Bytes.length o.Sof.Object_file.text in
        let data = Bytes.length o.Sof.Object_file.data in
        let bss = o.Sof.Object_file.bss_size in
        Printf.printf "   text\t   data\t    bss\t    dec\t    hex\tfilename\n";
        Printf.printf "%7d\t%7d\t%7d\t%7d\t%7x\t%s\n" text data bss (text + data + bss)
          (text + data + bss) input)
  in
  Cmd.v (Cmd.info "size" ~doc:"print section sizes, size-style") Term.(const run $ in_file)

let strings_cmd =
  let run input =
    handle (fun () ->
        let o = read_obj input in
        (* printable runs of >= 4 chars in the data section *)
        let data = o.Sof.Object_file.data in
        let buf = Buffer.create 16 in
        let flush () =
          if Buffer.length buf >= 4 then print_endline (Buffer.contents buf);
          Buffer.clear buf
        in
        Bytes.iter
          (fun c ->
            if c >= ' ' && c < '\127' then Buffer.add_char buf c else flush ())
          data;
        flush ())
  in
  Cmd.v (Cmd.info "strings" ~doc:"print printable strings from the data section")
    Term.(const run $ in_file)

(* -- compile --------------------------------------------------------------- *)

let compile_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC" ~doc:"minic source") in
  let out = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"output SOF") in
  let run src out =
    handle (fun () ->
        let ic = open_in src in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        write_obj out (Minic.Driver.compile ~name:out text);
        Printf.printf "wrote %s\n" out)
  in
  Cmd.v (Cmd.info "compile" ~doc:"compile minic source to a SOF object")
    Term.(const run $ src $ out)

(* -- module operations ------------------------------------------------------- *)

let pat_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc:"symbol regexp")

(* [op pat input] is the one-operator m-graph evaluated over the input,
   so hide/show/freeze mint the aliases the same blueprint would. *)
let unary_op name doc (op : string -> Blueprint.Mgraph.node -> Blueprint.Mgraph.node) =
  let input = Arg.(required & pos 1 (some file) None & info [] ~docv:"INPUT" ~doc:"input SOF") in
  let out = Arg.(required & pos 2 (some string) None & info [] ~docv:"OUTPUT" ~doc:"output SOF") in
  let run pat input out =
    handle (fun () ->
        let graph = op pat (Blueprint.Mgraph.Leaf (read_obj input)) in
        let m' = (Blueprint.Mgraph.eval (Blueprint.Mgraph.make_env ()) graph).Blueprint.Mgraph.m in
        write_obj out (Jigsaw.Module_ops.to_object ~name:out m');
        Printf.printf "wrote %s\n" out)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ pat_arg $ input $ out)

let rename_cmd =
  let tpl = Arg.(required & pos 1 (some string) None & info [] ~docv:"TEMPLATE" ~doc:"replacement (\\1 groups ok)") in
  let input = Arg.(required & pos 2 (some file) None & info [] ~docv:"INPUT" ~doc:"input SOF") in
  let out = Arg.(required & pos 3 (some string) None & info [] ~docv:"OUTPUT" ~doc:"output SOF") in
  let run pat tpl input out =
    handle (fun () ->
        let m = Jigsaw.Module_ops.of_object (read_obj input) in
        let m' = Jigsaw.Module_ops.rename (Jigsaw.Select.compile pat) tpl m in
        write_obj out (Jigsaw.Module_ops.to_object ~name:out m');
        Printf.printf "wrote %s\n" out)
  in
  Cmd.v (Cmd.info "rename" ~doc:"systematically rename symbols")
    Term.(const run $ pat_arg $ tpl $ input $ out)

let copy_as_cmd =
  let newname = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEWNAME" ~doc:"name for the copy") in
  let input = Arg.(required & pos 2 (some file) None & info [] ~docv:"INPUT" ~doc:"input SOF") in
  let out = Arg.(required & pos 3 (some string) None & info [] ~docv:"OUTPUT" ~doc:"output SOF") in
  let run pat newname input out =
    handle (fun () ->
        let m = Jigsaw.Module_ops.of_object (read_obj input) in
        let m' = Jigsaw.Module_ops.copy_as (Jigsaw.Select.compile pat) newname m in
        write_obj out (Jigsaw.Module_ops.to_object ~name:out m');
        Printf.printf "wrote %s\n" out)
  in
  Cmd.v (Cmd.info "copy-as" ~doc:"duplicate definitions under a new name")
    Term.(const run $ pat_arg $ newname $ input $ out)

let convert_cmd =
  let fmt = Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMAT" ~doc:"sof | aout") in
  let input = Arg.(required & pos 1 (some file) None & info [] ~docv:"INPUT" ~doc:"input object") in
  let out = Arg.(required & pos 2 (some string) None & info [] ~docv:"OUTPUT" ~doc:"output object") in
  let run fmt input out =
    handle (fun () ->
        let o = read_obj input in
        let oc = open_out_bin out in
        output_bytes oc (Sof.Bfd.encode (Sof.Bfd.format_of_string fmt) o);
        close_out oc;
        Printf.printf "wrote %s (%s format)\n" out fmt)
  in
  Cmd.v (Cmd.info "convert" ~doc:"re-encode an object in another backend format")
    Term.(const run $ fmt $ input $ out)

let merge_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTPUT" ~doc:"output SOF") in
  let inputs = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"INPUTS" ~doc:"input SOFs") in
  let run out inputs =
    handle (fun () ->
        let m = Jigsaw.Module_ops.of_objects (List.map read_obj inputs) in
        write_obj out (Jigsaw.Module_ops.to_object ~name:out m);
        Printf.printf "wrote %s (%d members)\n" out (List.length inputs))
  in
  Cmd.v (Cmd.info "merge" ~doc:"merge objects (partial link)")
    Term.(const run $ out $ inputs)

(* -- the symbol-flow linter -------------------------------------------------- *)

(* Register a host meta-object file in the quickstart world under
   /local/<basename> (sans extension), so blueprints that exist only on
   disk — including broken ones — can be linted, traced and explained. *)
let register_meta_file (s : Omos.Server.t) (file : string) : string =
  let ic = open_in file in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let path = "/local/" ^ Filename.remove_extension (Filename.basename file) in
  Omos.Server.register_meta_source s path src;
  path

let finding_json (f : Analysis.Lint.finding) : Telemetry.Json.t =
  Telemetry.Json.Obj
    [
      ("code", Telemetry.Json.Str f.Analysis.Lint.code);
      ("title", Telemetry.Json.Str f.Analysis.Lint.title);
      ("severity",
       Telemetry.Json.Str
         (Analysis.Lint.severity_to_string f.Analysis.Lint.severity));
      ("path", Telemetry.Json.Str f.Analysis.Lint.path);
      ("symbols",
       Telemetry.Json.Arr
         (List.map (fun s -> Telemetry.Json.Str s) f.Analysis.Lint.symbols));
      ("message", Telemetry.Json.Str f.Analysis.Lint.message);
    ]

(* Structured blueprint-failure reporting for trace/explain/profile: a
   meta whose evaluation raises gets the linter's error findings on
   stderr — the same diagnostics `ofe lint` prints — instead of a bare
   exception message, and the command exits 2 like a failed lint. *)
let with_blueprint_diagnostics (s : Omos.Server.t) ~(meta : string)
    (diagnosed : bool ref) (f : unit -> unit) : unit =
  try f ()
  with
  | Blueprint.Mgraph.Eval_error msg | Jigsaw.Module_ops.Module_error msg ->
    Printf.eprintf "ofe: %s: blueprint evaluation failed: %s\n" meta msg;
    (match Omos.Server.lint_report s meta with
    | Some rep ->
        List.iter
          (fun (f : Analysis.Lint.finding) ->
            if f.Analysis.Lint.severity = Analysis.Lint.Error then
              Printf.eprintf "ofe:   %s\n" (Analysis.Lint.finding_to_string f))
          rep.Analysis.Lint.findings
    | None -> ());
    diagnosed := true

let pick_meta (s : Omos.Server.t) (meta : string option)
    (meta_file : string option) : string =
  match (meta_file, meta) with
  | Some f, None -> register_meta_file s f
  | None, Some m -> m
  | Some _, Some _ ->
      raise
        (Omos.Server.Server_error "give either a META path or --meta-file, not both")
  | None, None ->
      raise (Omos.Server.Server_error "a META path or --meta-file is required")

let meta_file_arg =
  Arg.(value & opt (some file) None
       & info [ "meta-file" ] ~docv:"FILE"
           ~doc:"use a meta-object source file from the host filesystem \
                 (registered under /local/) instead of a bound META path")

let lint_cmd =
  let metas =
    Arg.(value & pos_all string []
         & info [] ~docv:"META" ~doc:"meta-object paths to lint (e.g. /lib/libc)")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"lint every meta-object bound in the quickstart world")
  in
  let meta_files =
    Arg.(value & opt_all file []
         & info [ "meta-file" ] ~docv:"FILE"
             ~doc:"lint a meta-object source file from the host filesystem \
                   (registered under /local/); repeatable")
  in
  let workload =
    Arg.(value & opt (some file) None
         & info [ "workload" ] ~docv:"SPEC"
             ~doc:"lint the meta-objects a workload spec names")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit findings as JSON (omos.lint/1)")
  in
  let max_warnings =
    Arg.(value & opt (some int) None
         & info [ "max-warnings" ] ~docv:"N"
             ~doc:"fail (exit 2) when total warnings exceed $(docv)")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"differential self-check: evaluate each meta-object for real \
                   and assert the predicted export/undefined sets match exactly")
  in
  let run failed metas all meta_files workload json max_warnings verify =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        let targets =
          metas
          @ (if all then Omos.Namespace.all_metas (Omos.Server.namespace s) else [])
          @ (match workload with
            | None -> []
            | Some spec -> (Omos.Workload.parse_file spec).Omos.Workload.metas)
          @ List.map (register_meta_file s) meta_files
        in
        let targets = List.sort_uniq compare targets in
        if targets = [] then
          raise
            (Omos.Server.Server_error
               "nothing to lint: name a META, or use --all/--meta-file/--workload");
        let resolve = Omos.Server.resolve_graph s in
        let errs = ref 0 and warns = ref 0 and rows = ref [] in
        List.iter
          (fun path ->
            let meta = Omos.Server.find_meta s path in
            let graph = Blueprint.Meta.effective_graph meta ~spec:None in
            let report, outcome =
              if verify then
                let r, o =
                  Analysis.Lint.verify_against ~eval:(Omos.Server.eval s)
                    ~resolve graph
                in
                (r, Some o)
              else (Analysis.Lint.analyze ~resolve graph, None)
            in
            errs := !errs + Analysis.Lint.errors report;
            warns := !warns + Analysis.Lint.warnings report;
            if json then
              rows :=
                Telemetry.Json.Obj
                  [
                    ("meta", Telemetry.Json.Str path);
                    ("errors",
                     Telemetry.Json.Num
                       (float_of_int (Analysis.Lint.errors report)));
                    ("warnings",
                     Telemetry.Json.Num
                       (float_of_int (Analysis.Lint.warnings report)));
                    ("approximate", Telemetry.Json.Bool report.Analysis.Lint.approximate);
                    ("exports",
                     Telemetry.Json.Arr
                       (List.map
                          (fun s -> Telemetry.Json.Str s)
                          report.Analysis.Lint.exports));
                    ("undefined",
                     Telemetry.Json.Arr
                       (List.map
                          (fun s -> Telemetry.Json.Str s)
                          report.Analysis.Lint.undefined));
                    ("findings",
                     Telemetry.Json.Arr
                       (List.map finding_json report.Analysis.Lint.findings));
                  ]
                :: !rows
            else begin
              Printf.printf "%s: %d error%s, %d warning%s (exports=%d undefined=%d)\n"
                path
                (Analysis.Lint.errors report)
                (if Analysis.Lint.errors report = 1 then "" else "s")
                (Analysis.Lint.warnings report)
                (if Analysis.Lint.warnings report = 1 then "" else "s")
                (List.length report.Analysis.Lint.exports)
                (List.length report.Analysis.Lint.undefined);
              List.iter
                (fun f ->
                  Printf.printf "  %s\n" (Analysis.Lint.finding_to_string f))
                report.Analysis.Lint.findings
            end;
            match outcome with
            | None -> ()
            | Some (Analysis.Lint.Verified { exports; undefined }) ->
                if not json then
                  Printf.printf "  verify: ok (exports=%d undefined=%d match)\n"
                    exports undefined
            | Some (Analysis.Lint.Skipped reason) ->
                if not json then Printf.printf "  verify: skipped (%s)\n" reason
            | Some (Analysis.Lint.Mismatch { field; predicted; actual }) ->
                Printf.eprintf
                  "ofe: %s: verify mismatch on %s\n  predicted: %s\n  actual:    %s\n"
                  path field
                  (String.concat " " predicted)
                  (String.concat " " actual);
                failed := true
            | Some (Analysis.Lint.Eval_raised msg) ->
                Printf.eprintf
                  "ofe: %s: evaluation raised but analysis predicted success: %s\n"
                  path msg;
                failed := true)
          targets;
        if json then
          print_endline
            (Telemetry.Json.to_string
               (Telemetry.Json.Obj
                  [
                    ("lint", Telemetry.Json.Str "omos.lint/1");
                    ("errors", Telemetry.Json.Num (float_of_int !errs));
                    ("warnings", Telemetry.Json.Num (float_of_int !warns));
                    ("metas", Telemetry.Json.Arr (List.rev !rows));
                  ]))
        else
          Printf.printf "lint: %d meta%s, %d error%s, %d warning%s\n"
            (List.length targets)
            (if List.length targets = 1 then "" else "s")
            !errs
            (if !errs = 1 then "" else "s")
            !warns
            (if !warns = 1 then "" else "s");
        if
          !errs > 0
          || match max_warnings with Some n -> !warns > n | None -> false
        then failed := true)
  in
  let run metas all meta_files workload json max_warnings verify =
    let failed = ref false in
    let code = run failed metas all meta_files workload json max_warnings verify in
    if code = 0 && !failed then 2 else code
  in
  Cmd.v
    (Cmd.info "lint" ~exits:
       [
         Cmd.Exit.info 0 ~doc:"when every linted meta-object is clean.";
         Cmd.Exit.info 1 ~doc:"on input errors (unreadable files, unknown meta-objects).";
         Cmd.Exit.info 2
           ~doc:"on any error finding, a warning budget overrun, or a \
                 $(b,--verify) mismatch.";
       ]
       ~doc:
         "statically analyze meta-object blueprints: predict exports and \
          undefined references without materializing views, and report \
          namespace, operator, and constraint errors before link time")
    Term.(const run $ metas $ all $ meta_files $ workload $ json $ max_warnings $ verify)

(* -- subtree dependence analysis ------------------------------------------- *)

(* Resolve an impact operand: a readable host file is registered as a
   meta-object source (at [at] when given, else under /local/<basename>);
   anything else must already be a bound meta path. *)
let impact_operand (s : Omos.Server.t) ?at (name : string) : string =
  if Sys.file_exists name && not (Sys.is_directory name) then begin
    let ic = open_in name in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let path =
      match at with
      | Some p -> p
      | None -> "/local/" ^ Filename.remove_extension (Filename.basename name)
    in
    Omos.Server.register_meta_source s path src;
    path
  end
  else begin
    ignore (Omos.Server.find_meta s name);
    name
  end

let impact_tree_exn (s : Omos.Server.t) (path : string) : Analysis.Impact.tree =
  match Omos.Server.impact_tree s path with
  | Some t -> t
  | None ->
      raise
        (Omos.Server.Server_error
           (path ^ ": no dependence analysis recorded (not a meta-object?)"))

let verdict_json (v : Analysis.Impact.node_verdict) : Telemetry.Json.t =
  Telemetry.Json.Obj
    ([
       ("path", Telemetry.Json.Str v.Analysis.Impact.v_path);
       ("op", Telemetry.Json.Str v.Analysis.Impact.v_op);
       ("digest", Telemetry.Json.Str v.Analysis.Impact.v_digest);
     ]
    @
    match v.Analysis.Impact.v_verdict with
    | Analysis.Impact.Reused _ -> [ ("verdict", Telemetry.Json.Str "reused") ]
    | Analysis.Impact.Respin { reason } ->
        [
          ("verdict", Telemetry.Json.Str "respin");
          ("reason", Telemetry.Json.Str reason);
        ])

let impact_cmd =
  let old_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"OLD"
             ~doc:"the pre-edit blueprint: a meta-object source file on the \
                   host filesystem, or a meta path already bound in the \
                   quickstart world (e.g. /lib/libc)")
  in
  let new_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"NEW"
             ~doc:"the post-edit blueprint (same operand forms as $(b,OLD))")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"self-diff every meta-object bound in the quickstart world \
                   (each against itself); with $(b,--verify) this discharges \
                   the byte-identity obligation of every fully modeled \
                   subtree")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"emit the verdicts as JSON (omos.impact/1)")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"discharge the proofs for real: evaluate each reused \
                   digest's old and new subtrees from scratch (memo table \
                   disabled) and assert the materializations are \
                   byte-identical")
  in
  let run failed old_arg new_arg all json verify =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        let pairs =
          if all then
            List.map
              (fun p -> (p, p))
              (List.sort compare
                 (Omos.Namespace.all_metas (Omos.Server.namespace s)))
          else
            match (old_arg, new_arg) with
            | Some o, Some n -> [ (o, n) ]
            | _ ->
                raise
                  (Omos.Server.Server_error
                     "give OLD and NEW blueprints, or --all")
        in
        let rows = ref [] in
        List.iter
          (fun (old_name, new_name) ->
            let old_path = impact_operand s old_name in
            let old_tree = impact_tree_exn s old_path in
            (* When NEW is a host file, re-register the edit over the old
               binding: the server then computes the verdicts exactly as
               a live [register_meta] of the edited blueprint would. *)
            let new_path, new_tree, d =
              if
                old_name <> new_name
                && Sys.file_exists new_name
                && not (Sys.is_directory new_name)
              then begin
                ignore (impact_operand s ~at:old_path new_name);
                let nt = impact_tree_exn s old_path in
                match Omos.Server.impact_diff s old_path with
                | Some d -> (old_path, nt, d)
                | None ->
                    raise
                      (Omos.Server.Server_error
                         (old_path ^ ": re-registration recorded no diff"))
              end
              else
                let p =
                  if new_name = old_name then old_path
                  else impact_operand s new_name
                in
                let nt = impact_tree_exn s p in
                (p, nt, Analysis.Impact.diff ~old_tree ~new_tree:nt)
            in
            let vo =
              if verify then begin
                (* from-scratch semantics: the memo table must not serve
                   the very materializations we are checking *)
                Omos.Server.set_subtree_reuse s false;
                let eval n = (Omos.Server.eval s n).Blueprint.Mgraph.m in
                let o = Analysis.Impact.verify ~eval ~old_tree ~new_tree d in
                Omos.Server.set_subtree_reuse s true;
                if o.Analysis.Impact.vo_failures <> [] then failed := true;
                Some o
              end
              else None
            in
            if json then
              rows :=
                Telemetry.Json.Obj
                  ([
                     ("old", Telemetry.Json.Str old_path);
                     ("new", Telemetry.Json.Str new_path);
                     ("old_digest",
                      Telemetry.Json.Str d.Analysis.Impact.d_old_digest);
                     ("new_digest",
                      Telemetry.Json.Str d.Analysis.Impact.d_new_digest);
                     ("reused",
                      Telemetry.Json.Num
                        (float_of_int d.Analysis.Impact.d_reused));
                     ("respun",
                      Telemetry.Json.Num
                        (float_of_int d.Analysis.Impact.d_respun));
                     ("spine",
                      Telemetry.Json.Arr
                        (List.map
                           (fun p -> Telemetry.Json.Str p)
                           d.Analysis.Impact.d_spine));
                     ("nodes",
                      Telemetry.Json.Arr
                        (List.map verdict_json d.Analysis.Impact.d_nodes));
                   ]
                  @
                  match vo with
                  | None -> []
                  | Some o ->
                      [
                        ("verify",
                         Telemetry.Json.Obj
                           [
                             ("checked",
                              Telemetry.Json.Num
                                (float_of_int o.Analysis.Impact.vo_checked));
                             ("failures",
                              Telemetry.Json.Arr
                                (List.map
                                   (fun (p, msg) ->
                                     Telemetry.Json.Obj
                                       [
                                         ("path", Telemetry.Json.Str p);
                                         ("error", Telemetry.Json.Str msg);
                                       ])
                                   o.Analysis.Impact.vo_failures));
                           ]);
                      ])
                :: !rows
            else begin
              Printf.printf "impact: %s -> %s\n" old_path new_path;
              if
                d.Analysis.Impact.d_old_digest
                = d.Analysis.Impact.d_new_digest
              then
                Printf.printf
                  "  link-equivalent: root digests match (%s)\n"
                  (String.sub d.Analysis.Impact.d_new_digest 0 12);
              Printf.printf "  %d reused, %d respun (spine length %d)\n"
                d.Analysis.Impact.d_reused d.Analysis.Impact.d_respun
                (List.length d.Analysis.Impact.d_spine);
              List.iter
                (fun (v : Analysis.Impact.node_verdict) ->
                  match v.Analysis.Impact.v_verdict with
                  | Analysis.Impact.Reused _ ->
                      Printf.printf "  reuse  %s [%s] %s\n"
                        v.Analysis.Impact.v_path v.Analysis.Impact.v_op
                        (String.sub v.Analysis.Impact.v_digest 0 12)
                  | Analysis.Impact.Respin { reason } ->
                      Printf.printf "  respin %s [%s]: %s\n"
                        v.Analysis.Impact.v_path v.Analysis.Impact.v_op
                        reason)
                d.Analysis.Impact.d_nodes;
              match vo with
              | None -> ()
              | Some o ->
                  if o.Analysis.Impact.vo_failures = [] then
                    Printf.printf
                      "  verify: %d reused digest%s byte-identical\n"
                      o.Analysis.Impact.vo_checked
                      (if o.Analysis.Impact.vo_checked = 1 then "" else "s")
                  else
                    List.iter
                      (fun (p, msg) ->
                        Printf.eprintf "ofe: %s: verify FAILED at %s: %s\n"
                          new_path p msg)
                      o.Analysis.Impact.vo_failures
            end)
          pairs;
        if json then
          print_endline
            (Telemetry.Json.to_string
               (Telemetry.Json.Obj
                  [
                    ("impact", Telemetry.Json.Str "omos.impact/1");
                    ("pairs", Telemetry.Json.Arr (List.rev !rows));
                  ])))
  in
  let run old_arg new_arg all json verify =
    let failed = ref false in
    let code = run failed old_arg new_arg all json verify in
    if code = 0 && !failed then 2 else code
  in
  Cmd.v
    (Cmd.info "impact" ~exits:
       [
         Cmd.Exit.info 0 ~doc:"when the analysis (and $(b,--verify), if given) succeeds.";
         Cmd.Exit.info 1
           ~doc:"on input errors (unreadable files, unknown meta-objects, \
                 blueprint parse errors).";
         Cmd.Exit.info 2
           ~doc:"when $(b,--verify) finds a reused subtree whose from-scratch \
                 materialization is not byte-identical.";
       ]
       ~doc:
         "subtree dependence analysis for incremental relinking: compare the \
          pre- and post-edit blueprints' content-addressed interface \
          summaries and report, per operator node, whether its materialized \
          view is provably reusable ($(b,reuse): equal digest of a fully \
          modeled subtree in the old tree) or must be rebuilt \
          ($(b,respin): the first differing \
          interface fact is named). The respun set is the edit's spine — a \
          one-module edit to a large library respins O(depth) nodes, not \
          O(library). $(b,--verify) discharges the proofs by from-scratch \
          evaluation; $(b,--all) self-checks every bound meta-object.")
    Term.(const run $ old_arg $ new_arg $ all $ json $ verify)

(* -- the OMOS request path: tracing & metrics ------------------------------ *)

(* Reset telemetry (world construction does no instantiation work) and
   serve one request with tracing on. *)
let traced_instantiate (w : Omos.World.t) (meta : string) : Omos.Server.response =
  let s = w.Omos.World.server in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let root =
    Telemetry.Span.enter "ofe.trace" ~attrs:[ ("meta", Telemetry.S meta) ]
  in
  let resp = Omos.Server.instantiate s (Omos.Server.library meta) in
  let p = Simos.Kernel.create_process (Omos.Server.kernel s) ~args:[ "trace" ] in
  Omos.Server.map_into s p resp.Omos.Server.built;
  Telemetry.Span.exit root;
  Telemetry.set_enabled false;
  resp

let trace_cmd =
  let meta =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"META" ~doc:"library meta-object path (e.g. /lib/libc)")
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace_event output file")
  in
  let run diagnosed meta meta_file out =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        let meta = pick_meta s meta meta_file in
        with_blueprint_diagnostics s ~meta diagnosed @@ fun () ->
        let resp = traced_instantiate w meta in
        let json = Telemetry.Export.chrome () in
        let oc = open_out out in
        output_string oc json;
        output_string oc "\n";
        close_out oc;
        (* self-validation: parse the export back and inspect the span
           tree, so the command fails loudly if the exporter regresses *)
        let parsed = Telemetry.Json.parse json in
        let names =
          match Telemetry.Json.member "traceEvents" parsed with
          | Some (Telemetry.Json.Arr evs) ->
              List.filter_map
                (fun ev ->
                  match
                    (Telemetry.Json.member "ph" ev, Telemetry.Json.member "name" ev)
                  with
                  | Some (Telemetry.Json.Str "X"), Some (Telemetry.Json.Str n) ->
                      Some n
                  | _ -> None)
                evs
          | _ -> []
        in
        let have n = List.mem n names in
        let st = Omos.Server.cache_stats s in
        Printf.printf "wrote %s\n" out;
        Printf.printf "cache_hit=%b\n" resp.Omos.Server.cache_hit;
        Printf.printf "phases: eval=%b place=%b link=%b map=%b\n"
          (have "blueprint.eval") (have "constraints.place") (have "linker.link")
          (have "kernel.map_image");
        Printf.printf "cache counters agree: hits=%b misses=%b\n"
          (Telemetry.Counter.get "cache.hits" = st.Omos.Cache.hits)
          (Telemetry.Counter.get "cache.misses" = st.Omos.Cache.misses))
  in
  let run meta meta_file out =
    let diagnosed = ref false in
    let code = run diagnosed meta meta_file out in
    if code = 0 && !diagnosed then 2 else code
  in
  Cmd.v
    (Cmd.info "trace" ~exits
       ~doc:
         "instantiate a library meta-object in the quickstart world and export \
          a Chrome trace_event file of the request path")
    Term.(const run $ meta $ meta_file_arg $ out)

let stats_cmd =
  let meta =
    Arg.(value & pos 0 string "/lib/libc"
         & info [] ~docv:"META" ~doc:"meta-object to instantiate before dumping metrics")
  in
  let run violated meta =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        Telemetry.reset ();
        (* exercise the full residency lifecycle so the residency.*
           counters carry signal: build, evict, rebuild *)
        ignore (Omos.Server.instantiate s (Omos.Server.library meta));
        ignore (Omos.Server.evict_to_budget s ~bytes:0);
        ignore (Omos.Server.instantiate s (Omos.Server.library meta));
        let viols = Omos.Residency.check_invariants (Omos.Server.residency s) in
        List.iter
          (fun v ->
            Printf.eprintf "ofe: residency violation: %s\n"
              (Omos.Residency.violation_message v))
          viols;
        print_endline (Telemetry.Export.metrics_json ());
        violated := viols <> [])
  in
  let run meta =
    let violated = ref false in
    let code = run violated meta in
    if code = 0 && !violated then 2 else code
  in
  Cmd.v
    (Cmd.info "stats" ~exits
       ~doc:
         "instantiate a meta-object in the quickstart world and dump the \
          metrics registry (omos.metrics/1 schema)")
    Term.(const run $ meta)

(* -- provenance & profiling ------------------------------------------------ *)

let explain_cmd =
  let meta =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"META" ~doc:"library meta-object path (e.g. /demo/hello)")
  in
  let symbol =
    Arg.(value & opt (some string) None
         & info [ "symbol" ] ~docv:"SYMBOL"
             ~doc:"show the binding decisions behind one symbol")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the provenance record as JSON")
  in
  let run diagnosed meta meta_file symbol json =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        let meta = pick_meta s meta meta_file in
        with_blueprint_diagnostics s ~meta diagnosed @@ fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Telemetry.Provenance.set_enabled true;
        (* cold build journals every decision; the warm repeat shows the
           cache serving the stored record without relinking *)
        let cold = Omos.Server.instantiate s (Omos.Server.library meta) in
        let warm = Omos.Server.instantiate s (Omos.Server.library meta) in
        Telemetry.Provenance.set_enabled false;
        Telemetry.set_enabled false;
        let e = warm.Omos.Server.built.Omos.Server.entry in
        let prov =
          match e.Omos.Cache.provenance with
          | Some p -> p
          | None ->
              raise (Omos.Server.Server_error ("no provenance recorded for " ^ meta))
        in
        if json then
          print_endline
            (Telemetry.Json.to_string (Telemetry.Provenance.to_json prov))
        else begin
          Printf.printf "meta: %s\n" meta;
          Printf.printf "cold: %s\n"
            (if cold.Omos.Server.cache_hit then "cache hit"
             else "cache miss - evaluated, linked and cached");
          Printf.printf "warm: %s\n"
            (if warm.Omos.Server.cache_hit then
               "cache hit - provenance served from the image cache (no relink)"
             else "cache miss");
          Printf.printf "placement: %s\n" prov.Telemetry.Provenance.p_placement;
          Printf.printf "cache generation: %d\n"
            prov.Telemetry.Provenance.p_generation;
          Printf.printf "operator chain: %s\n"
            (match prov.Telemetry.Provenance.p_ops with
            | [] -> "(none)"
            | ops -> String.concat " -> " ops);
          let binds =
            List.length
              (List.filter
                 (function Telemetry.Provenance.Bind _ -> true | _ -> false)
                 prov.Telemetry.Provenance.p_events)
          in
          Printf.printf "journal: %d events, %d symbol bindings\n"
            (List.length prov.Telemetry.Provenance.p_events)
            binds;
          List.iter
            (fun ev ->
              match ev with
              | Telemetry.Provenance.Interpose _ | Telemetry.Provenance.Reloc _
              | Telemetry.Provenance.Coalesced _ | Telemetry.Provenance.Reused _ ->
                  Printf.printf "  %s\n" (Telemetry.Provenance.event_to_string ev)
              | _ -> ())
            prov.Telemetry.Provenance.p_events;
          Printf.printf "residency: %s\n"
            (Omos.Cache.residency_to_string e.Omos.Cache.residency);
          match symbol with
          | None -> ()
          | Some sym -> (
              match Telemetry.Provenance.events_for prov sym with
              | [] ->
                  raise
                    (Omos.Server.Server_error
                       (Printf.sprintf "no journal events for symbol %s in %s" sym
                          meta))
              | evs ->
                  Printf.printf "symbol %s:\n" sym;
                  List.iter
                    (fun ev ->
                      Printf.printf "  %s\n"
                        (Telemetry.Provenance.event_to_string ev))
                    evs)
        end)
  in
  let run meta meta_file symbol json =
    let diagnosed = ref false in
    let code = run diagnosed meta meta_file symbol json in
    if code = 0 && !diagnosed then 2 else code
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "instantiate a library meta-object twice (cold, then warm) in the \
          quickstart world and explain the cached image: placement, operator \
          chain, interpositions, and per-symbol binding decisions")
    Term.(const run $ meta $ meta_file_arg $ symbol $ json)

let profile_cmd =
  let meta =
    Arg.(value & pos 0 string "/lib/libc"
         & info [] ~docv:"META" ~doc:"library meta-object path to profile")
  in
  let folded_out =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"also write folded stacks to $(docv) (flamegraph input)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the cost table as JSON")
  in
  let run diagnosed meta meta_file folded_out json =
    handle (fun () ->
        let w = Omos.World.create () in
        let s = w.Omos.World.server in
        let meta =
          match meta_file with Some f -> register_meta_file s f | None -> meta
        in
        with_blueprint_diagnostics s ~meta diagnosed @@ fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Telemetry.Profile.set_enabled true;
        let root =
          Telemetry.Span.enter "ofe.profile" ~attrs:[ ("meta", Telemetry.S meta) ]
        in
        let resp = Omos.Server.instantiate s (Omos.Server.library meta) in
        let p = Simos.Kernel.create_process (Omos.Server.kernel s) ~args:[ "profile" ] in
        Omos.Server.map_into s p resp.Omos.Server.built;
        Telemetry.Span.exit root;
        Telemetry.Profile.set_enabled false;
        Telemetry.set_enabled false;
        let total = Telemetry.Profile.total () in
        let folded = Telemetry.Profile.folded () in
        if json then begin
          let rows =
            List.map
              (fun (path, user, system, io) ->
                Telemetry.Json.Obj
                  [
                    ("path", Telemetry.Json.Str path);
                    ("user_us", Telemetry.Json.Num user);
                    ("system_us", Telemetry.Json.Num system);
                    ("io_us", Telemetry.Json.Num io);
                  ])
              (Telemetry.Profile.rows ())
          in
          print_endline
            (Telemetry.Json.to_string
               (Telemetry.Json.Obj
                  [
                    ("meta", Telemetry.Json.Str meta);
                    ("total_us", Telemetry.Json.Num total);
                    ("rows", Telemetry.Json.Arr rows);
                  ]))
        end
        else begin
          Printf.printf "meta: %s\n" meta;
          Printf.printf "total simulated cost: %.1f us\n" total;
          Printf.printf "by operator (innermost span):\n";
          List.iter
            (fun (leaf, us) ->
              Printf.printf "  %-28s %12.1f us  %5.1f%%\n" leaf us
                (if total > 0.0 then 100.0 *. us /. total else 0.0))
            (Telemetry.Profile.by_leaf ());
          Printf.printf "folded stacks:\n";
          List.iter (fun (path, us) -> Printf.printf "  %s %.1f\n" path us) folded
        end;
        match folded_out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            List.iter
              (fun (path, us) -> Printf.fprintf oc "%s %.1f\n" path us)
              folded;
            close_out oc;
            Printf.printf "wrote %s\n" file)
  in
  let run meta meta_file folded_out json =
    let diagnosed = ref false in
    let code = run diagnosed meta meta_file folded_out json in
    if code = 0 && !diagnosed then 2 else code
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "instantiate and map a library meta-object in the quickstart world \
          with the simulated-cost profiler on, and print the per-operator \
          cost table and folded stacks")
    Term.(const run $ meta $ meta_file_arg $ folded_out $ json)

(* -- continuous hotness profiling ------------------------------------------ *)

(* Drive one monitored run of META in a fresh quickstart world so the
   continuous hotness store has events to aggregate: libc is exercised
   by the E1 `ls -laF` workload, the codegen libraries by the codegen
   link-and-run workload. Metas with no known driver are reported as
   such (the store simply records no events for them). *)
let drive_monitored (meta : string) : Omos.Monitor.trace option =
  let w = Omos.World.create () in
  let s = w.Omos.World.server in
  let mon =
    Blueprint.Mgraph.parse (Printf.sprintf "(specialize \"monitor\" %s)" meta)
  in
  let driver =
    if meta = "/lib/libc" then
      Some
        ( Blueprint.Mgraph.Merge
            [ Omos.Schemes.graph_of_objs (Omos.World.ls_client w); mon ],
          Omos.World.ls_laf_args )
    else if List.mem meta Omos.World.codegen_libs then
      Some
        ( Blueprint.Mgraph.Merge
            (Omos.Schemes.graph_of_objs (Omos.World.codegen_client w)
            :: mon
            :: List.filter_map
                 (fun lib ->
                   if lib = meta then None else Some (Blueprint.Mgraph.Name lib))
                 Omos.World.codegen_libs),
          Omos.World.codegen_args )
    else None
  in
  match driver with
  | None -> None
  | Some (graph, args) ->
      let b = Omos.Server.build s (Omos.Server.static ~name:"hotspots-mon" graph) in
      let p = Omos.Boot.integrated_exec s (Omos.Server.loadable_entry [ b ]) ~args in
      ignore (Simos.Kernel.run w.Omos.World.kernel p ());
      Omos.Specializers.last_trace w.Omos.World.specializers

(* The fragment order to audit for META: the per-function split libc
   (same section order as the monolithic image — reordering is a
   per-function decision, paper §4.1) for /lib/libc, else the meta's
   own evaluated fragments. *)
let audit_fragments (meta : string) : Sof.Object_file.t list =
  if meta = "/lib/libc" then
    List.concat_map Workloads.Libc_gen.split_objects Workloads.Libc_gen.section_names
  else
    let w = Omos.World.create () in
    let s = w.Omos.World.server in
    let m = Omos.Server.find_meta s meta in
    let r = Omos.Server.eval s (Blueprint.Meta.effective_graph m ~spec:None) in
    Jigsaw.Module_ops.fragments r.Blueprint.Mgraph.m

let hotspots_cmd =
  let meta =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"META"
             ~doc:"library meta-object path to profile (default /lib/libc)")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"profile every meta-object bound in the quickstart world")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"emit the profile as JSON (omos.hotspots/1)")
  in
  let folded_out =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"also write folded call counts ($(b,meta;function count) \
                   lines, flamegraph input) to $(docv)")
  in
  let audit_flag =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"print the layout-locality audit: text pages the traced \
                   working set touches under the actual fragment order vs the \
                   optimal packed layout vs the profile-reordered layout")
  in
  let run meta meta_file all json folded_out audit_flag =
    handle (fun () ->
        let targets =
          if all then
            let w = Omos.World.create () in
            Omos.Namespace.all_metas (Omos.Server.namespace w.Omos.World.server)
            |> List.sort compare
          else
            [ (match meta_file with
              | Some f ->
                  let w = Omos.World.create () in
                  register_meta_file w.Omos.World.server f
              | None -> Option.value meta ~default:"/lib/libc") ]
        in
        Telemetry.reset ();
        let audited =
          List.filter_map
            (fun target ->
              match drive_monitored target with
              | None -> None
              | Some trace when Omos.Monitor.call_sequence trace = [] -> None
              | Some trace ->
                  (* always audit driven metas: the [--json] export and
                     the health window carry the headroom either way *)
                  Some (target, Omos.Hotspots.audit ~key:target ~trace
                                  (audit_fragments target)))
            targets
          |> List.to_seq |> Hashtbl.of_seq
        in
        if json then print_endline (Telemetry.Export.hotspots_json ())
        else begin
          Printf.printf "window: %d events (cap %d)\n"
            (Telemetry.Hotness.total_events ()) Telemetry.Hotness.window_cap;
          List.iter
            (fun target ->
              match Telemetry.Hotness.stat_for target with
              | None -> Printf.printf "\nmeta: %s\n  no monitored calls in the window\n" target
              | Some st ->
                  Printf.printf "\nmeta: %s\n" target;
                  Printf.printf "  calls: %d across %d routines\n"
                    st.Telemetry.Hotness.hs_calls
                    (List.length st.Telemetry.Hotness.hs_functions);
                  Printf.printf "  top functions:\n";
                  List.iteri
                    (fun i (f, n) ->
                      if i < 8 then Printf.printf "    %-24s %6d\n" f n)
                    st.Telemetry.Hotness.hs_functions;
                  Printf.printf "  top transitions:\n";
                  List.iteri
                    (fun i ((a, b), n) ->
                      if i < 5 then Printf.printf "    %s -> %s (%d)\n" a b n)
                    st.Telemetry.Hotness.hs_transitions;
                  if audit_flag then
                    match Hashtbl.find_opt audited target with
                    | None -> ()
                    | Some a ->
                        Printf.printf "  audit:\n";
                        Printf.printf "    routines called: %d of %d (%d bytes of text)\n"
                          a.Omos.Hotspots.a_routines_called
                          a.Omos.Hotspots.a_routines_total
                          a.Omos.Hotspots.a_bytes_touched;
                        Printf.printf "    pages touched, actual order:   %d\n"
                          a.Omos.Hotspots.a_pages_actual;
                        Printf.printf "    pages touched, optimal packed: %d\n"
                          a.Omos.Hotspots.a_pages_optimal;
                        Printf.printf "    pages touched, after reorder:  %d\n"
                          a.Omos.Hotspots.a_pages_reordered;
                        Printf.printf "    locality headroom: %d pages (%d after reorder)\n"
                          (Omos.Hotspots.headroom a) (Omos.Hotspots.residual a))
            targets
        end;
        match folded_out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            List.iter
              (fun (st : Telemetry.Hotness.stat) ->
                List.iter
                  (fun (f, n) ->
                    Printf.fprintf oc "%s;%s %d\n" st.Telemetry.Hotness.hs_key f n)
                  st.Telemetry.Hotness.hs_functions)
              (Telemetry.Hotness.stats ());
            close_out oc;
            if not json then Printf.printf "wrote %s\n" file)
  in
  Cmd.v
    (Cmd.info "hotspots" ~exits
       ~doc:
         "drive a monitored run of a library meta-object through the \
          continuous hotness store and report windowed call counts, \
          caller→callee transitions, and (with $(b,--audit)) the \
          layout-locality audit: how many text pages the traced working set \
          touches under the actual fragment order versus the optimal packed \
          layout — the locality headroom profile-driven reordering could \
          reclaim (omos.hotspots/1 schema with $(b,--json))")
    Term.(const run $ meta $ meta_file_arg $ all $ json $ folded_out $ audit_flag)

(* -- workload, health & SLO gating ----------------------------------------- *)

let load_spec = function
  | None -> Omos.Workload.default
  | Some path -> Omos.Workload.parse_file path

let spec_file_arg =
  Arg.(value & pos 0 (some file) None
       & info [] ~docv:"SPEC"
           ~doc:"workload spec file (omitted: the built-in default scenario)")

let print_workload_event (e : Omos.Workload.event) =
  Printf.printf
    "req=%d client=%d op=%s target=%s hit=%s cost_us=%.1f wait_us=%.1f\n"
    e.Omos.Workload.w_req e.Omos.Workload.w_client e.Omos.Workload.w_op
    e.Omos.Workload.w_target
    (match e.Omos.Workload.w_hit with
    | Some true -> "true"
    | Some false -> "false"
    | None -> "-")
    e.Omos.Workload.w_cost_us e.Omos.Workload.w_wait_us

let health_summary (snap : Telemetry.Health.snapshot) : string =
  Printf.sprintf
    "# requests=%d window=%d hit_ratio=%.2f p50_us=%.1f p95_us=%.1f \
     p99_us=%.1f mean_us=%.1f max_us=%.1f conflict_rate=%.3f \
     violation_rate=%.3f"
    snap.Telemetry.Health.requests snap.Telemetry.Health.window
    snap.Telemetry.Health.hit_ratio snap.Telemetry.Health.p50_us
    snap.Telemetry.Health.p95_us snap.Telemetry.Health.p99_us
    snap.Telemetry.Health.mean_us snap.Telemetry.Health.max_us
    snap.Telemetry.Health.conflict_rate snap.Telemetry.Health.violation_rate

let workload_cmd =
  let flight =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"PREFIX"
             ~doc:"after the run, write the flight recorder to $(docv).json and $(docv).txt")
  in
  let concurrency =
    Arg.(value & opt (some int) None
         & info [ "concurrency" ] ~docv:"N"
             ~doc:"override the spec's pipeline depth: submit up to $(docv) \
                   instantiates to the server's staged pipeline before \
                   awaiting any (1 = serial; dynloads and evictions are \
                   barriers). Deterministic at any depth.")
  in
  let run spec_file flight concurrency =
    handle (fun () ->
        let spec = load_spec spec_file in
        let spec =
          match concurrency with
          | None -> spec
          | Some n when n >= 1 -> { spec with Omos.Workload.concurrency = n }
          | Some _ ->
              raise (Omos.Workload.Spec_error "--concurrency must be >= 1")
        in
        ignore (Omos.Workload.run ~on_event:print_workload_event spec);
        print_endline (health_summary (Telemetry.Health.snapshot ()));
        match flight with
        | None -> ()
        | Some prefix ->
            Telemetry.Flight.dump ~reason:"ofe workload" ~prefix;
            Printf.printf "wrote %s.json, %s.txt\n" prefix prefix)
  in
  Cmd.v
    (Cmd.info "workload" ~exits
       ~doc:
         "run a deterministic multi-client workload (instantiates, dynloads, \
          evictions scheduled off the simulated clock) and stream one line \
          per request: id, client, operation, cache hit, simulated cost. \
          The $(b,concurrency N) spec directive (or $(b,--concurrency)) \
          pipelines instantiates through the server's staged \
          submit/await API; events still stream in submission order.")
    Term.(const run $ spec_file_arg $ flight $ concurrency)

let health_header =
  "   reqs  window   hit%   p50_us   p95_us   p99_us  mean_us   max_us  confl/req  viol/req  hot"

let health_row (snap : Telemetry.Health.snapshot) : string =
  (* the hot column: hottest monitored function plus the audited
     locality headroom, "-" while nothing is monitored *)
  let hot =
    if snap.Telemetry.Health.hot_fn = "-" then "-"
    else
      Printf.sprintf "%s+%.0fpg" snap.Telemetry.Health.hot_fn
        snap.Telemetry.Health.headroom_pages
  in
  Printf.sprintf "%7d %7d %6.1f %8.1f %8.1f %8.1f %8.1f %8.1f %10.3f %9.3f  %s"
    snap.Telemetry.Health.requests snap.Telemetry.Health.window
    (100.0 *. snap.Telemetry.Health.hit_ratio)
    snap.Telemetry.Health.p50_us snap.Telemetry.Health.p95_us
    snap.Telemetry.Health.p99_us snap.Telemetry.Health.mean_us
    snap.Telemetry.Health.max_us snap.Telemetry.Health.conflict_rate
    snap.Telemetry.Health.violation_rate hot

let top_cmd =
  let watch =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"print a row as the workload progresses (every $(b,--every) requests)")
  in
  let every =
    Arg.(value & opt int 5
         & info [ "every" ] ~docv:"N" ~doc:"row cadence for $(b,--watch)")
  in
  let run spec_file watch every =
    handle (fun () ->
        if every < 1 then
          raise (Omos.Workload.Spec_error "--every must be >= 1");
        let spec = load_spec spec_file in
        print_endline health_header;
        let served = ref 0 in
        let on_event (_ : Omos.Workload.event) =
          incr served;
          if watch && !served mod every = 0 then
            print_endline (health_row (Telemetry.Health.snapshot ()))
        in
        ignore (Omos.Workload.run ~on_event spec);
        if not (watch && !served mod every = 0) then
          print_endline (health_row (Telemetry.Health.snapshot ())))
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:
         "run a workload and tabulate rolling health: hit ratio, cost \
          percentiles, conflict and violation rates")
    Term.(const run $ spec_file_arg $ watch $ every)

let health_cmd =
  let slo_file =
    Arg.(required & opt (some file) None
         & info [ "slo" ] ~docv:"FILE" ~doc:"SLO bounds file (key value lines)")
  in
  let run breached slo_file spec_file =
    handle (fun () ->
        let ic = open_in slo_file in
        let slo_text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let slo = Telemetry.Health.parse_slo slo_text in
        let spec = load_spec spec_file in
        ignore (Omos.Workload.run spec);
        let snap = Telemetry.Health.snapshot () in
        let checks = Telemetry.Health.check slo snap in
        List.iter
          (fun (name, bound, actual, ok) ->
            Printf.printf "%-18s bound=%g actual=%g %s\n" name bound actual
              (if ok then "ok" else "FAIL"))
          checks;
        if not (Telemetry.Health.ok checks) then begin
          Printf.eprintf "ofe: SLO violated\n";
          breached := true
        end)
  in
  let run slo_file spec_file =
    let breached = ref false in
    let code = run breached slo_file spec_file in
    if code = 0 && !breached then 2 else code
  in
  Cmd.v
    (Cmd.info "health" ~exits
       ~doc:
         "run a workload and gate its rolling health against an SLO file; \
          exits 2 on any breached bound")
    Term.(const run $ slo_file $ spec_file_arg)

(* -- latency blame over the causal event graph ----------------------------- *)

let blame_cmd =
  let meta =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"META"
             ~doc:"blame one cold build of this library meta-object path")
  in
  let workload =
    Arg.(value & opt (some file) None
         & info [ "workload" ] ~docv:"SPEC"
             ~doc:"blame a whole workload spec run instead of a single build")
  in
  let request =
    Arg.(value & opt (some int) None
         & info [ "request" ] ~docv:"ID"
             ~doc:"also show the critical-path slices of request $(docv)")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the blame profile as JSON (omos.blame/1)")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"write flamegraph folded stacks (target;self|wait;category) to $(docv)")
  in
  let what_if =
    Arg.(value & opt (some string) None
         & info [ "what-if" ] ~docv:"KNOB"
             ~doc:"replay the recorded run under a counterfactual knob: \
                   $(b,batch=off), $(b,queue=inf) or $(b,coalesce=off)")
  in
  let run meta meta_file workload request json folded what_if =
    handle (fun () ->
        (match (meta, meta_file, workload) with
        | (Some _, _, Some _) | (_, Some _, Some _) ->
            raise
              (Omos.Server.Server_error
                 "give either a META path or --workload, not both")
        | _ -> ());
        let knob =
          match what_if with
          | None -> None
          | Some s -> (
              match Omos.Blame.knob_of_string s with
              | Some k -> Some k
              | None ->
                  raise
                    (Omos.Server.Server_error
                       ("unknown --what-if knob: " ^ s
                      ^ " (expected batch=off, queue=inf or coalesce=off)")))
        in
        (* record the run with the causal event graph on; the enable
           switch survives the telemetry resets the drivers perform *)
        Telemetry.Causal.set_enabled true;
        (match workload with
        | Some _ ->
            let spec = load_spec workload in
            ignore (Omos.Workload.run spec)
        | None ->
            let w = Omos.World.create () in
            let s = w.Omos.World.server in
            let meta = pick_meta s meta meta_file in
            Telemetry.reset ();
            Telemetry.set_enabled true;
            ignore (Omos.Server.instantiate s (Omos.Server.library meta));
            Telemetry.set_enabled false);
        Telemetry.Causal.set_enabled false;
        let ps = Omos.Blame.paths (Telemetry.Causal.requests ()) in
        if ps = [] then
          raise (Omos.Server.Server_error "no completed requests recorded");
        let prof = Omos.Blame.profile ps in
        let wi = Option.map (fun k -> Omos.Blame.what_if ~knob:k ps) knob in
        let detail =
          match request with
          | None -> None
          | Some id -> (
              match
                List.find_opt (fun p -> p.Omos.Blame.p_id = id) ps
              with
              | Some p -> Some p
              | None ->
                  raise
                    (Omos.Server.Server_error
                       (Printf.sprintf "no completed request %d in this run" id)))
        in
        let wait_frac =
          if prof.Omos.Blame.bp_total_sim_us > 0.0 then
            prof.Omos.Blame.bp_wait_us /. prof.Omos.Blame.bp_total_sim_us
          else 0.0
        in
        (match folded with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            List.iter
              (fun (k, v) -> Printf.fprintf oc "%s %.1f\n" k v)
              (Omos.Blame.folded ps);
            close_out oc);
        if json then begin
          let open Telemetry.Json in
          let stat_json (name, (st : Omos.Blame.stat)) =
            Obj
              [
                ("category", Str name);
                ("total_us", Num st.Omos.Blame.bs_total_us);
                ("frac", Num st.Omos.Blame.bs_frac);
                ("p50_us", Num st.Omos.Blame.bs_p50_us);
                ("p95_us", Num st.Omos.Blame.bs_p95_us);
              ]
          in
          let slice_json (s : Omos.Blame.slice) =
            Obj
              ([
                 ("category", Str (Omos.Blame.category_label s.Omos.Blame.s_cat));
                 ("from_us", Num s.Omos.Blame.s_from);
                 ("until_us", Num s.Omos.Blame.s_until);
                 ("self_us", Num s.Omos.Blame.s_self);
               ]
              @ if s.Omos.Blame.s_on >= 0 then [ ("on", Num (float_of_int s.Omos.Blame.s_on)) ]
                else [])
          in
          let base =
            [
              ("schema", Str "omos.blame/1");
              ("requests", Num (float_of_int prof.Omos.Blame.bp_requests));
              ("total_sim_us", Num prof.Omos.Blame.bp_total_sim_us);
              ("wait_us", Num prof.Omos.Blame.bp_wait_us);
              ("wait_frac", Num wait_frac);
              ( "categories",
                Arr (List.map stat_json prof.Omos.Blame.bp_categories) );
            ]
          in
          let base =
            base
            @ (match wi with
              | None -> []
              | Some wi ->
                  [
                    ( "what_if",
                      Obj
                        [
                          ("knob", Str wi.Omos.Blame.wi_knob);
                          ("recorded_us", Num wi.Omos.Blame.wi_recorded_us);
                          ("predicted_us", Num wi.Omos.Blame.wi_predicted_us);
                          ( "delta_us",
                            Num
                              (wi.Omos.Blame.wi_predicted_us
                              -. wi.Omos.Blame.wi_recorded_us) );
                        ] );
                  ])
            @
            match detail with
            | None -> []
            | Some p ->
                [
                  ( "request",
                    Obj
                      [
                        ("id", Num (float_of_int p.Omos.Blame.p_id));
                        ("target", Str p.Omos.Blame.p_target);
                        ("sim_us", Num p.Omos.Blame.p_sim_us);
                        ("hit", Bool p.Omos.Blame.p_hit);
                        ( "slices",
                          Arr (List.map slice_json p.Omos.Blame.p_slices) );
                      ] );
                ]
          in
          print_endline (to_string (Obj base))
        end
        else begin
          Printf.printf "requests: %d  total_sim_us: %.1f  wait_us: %.1f (%.1f%%)\n"
            prof.Omos.Blame.bp_requests prof.Omos.Blame.bp_total_sim_us
            prof.Omos.Blame.bp_wait_us (100.0 *. wait_frac);
          Printf.printf "%-12s %10s %6s %9s %9s\n" "category" "total_us" "frac"
            "p50_us" "p95_us";
          List.iter
            (fun (name, (st : Omos.Blame.stat)) ->
              Printf.printf "%-12s %10.1f %6.3f %9.1f %9.1f\n" name
                st.Omos.Blame.bs_total_us st.Omos.Blame.bs_frac
                st.Omos.Blame.bs_p50_us st.Omos.Blame.bs_p95_us)
            prof.Omos.Blame.bp_categories;
          (match wi with
          | None -> ()
          | Some wi ->
              Printf.printf
                "what-if %s: recorded_us=%.1f predicted_us=%.1f delta_us=%+.1f\n"
                wi.Omos.Blame.wi_knob wi.Omos.Blame.wi_recorded_us
                wi.Omos.Blame.wi_predicted_us
                (wi.Omos.Blame.wi_predicted_us -. wi.Omos.Blame.wi_recorded_us));
          match detail with
          | None -> ()
          | Some p ->
              Printf.printf "request %d: %s sim_us=%.1f hit=%b\n"
                p.Omos.Blame.p_id p.Omos.Blame.p_target p.Omos.Blame.p_sim_us
                p.Omos.Blame.p_hit;
              List.iter
                (fun (s : Omos.Blame.slice) ->
                  Printf.printf "  [%10.1f, %10.1f) %-12s %10.1f us%s\n"
                    s.Omos.Blame.s_from s.Omos.Blame.s_until
                    (Omos.Blame.category_label s.Omos.Blame.s_cat)
                    (Omos.Blame.slice_us s)
                    (if s.Omos.Blame.s_on >= 0 then
                       Printf.sprintf " on=r%d" s.Omos.Blame.s_on
                     else ""))
                p.Omos.Blame.p_slices
        end;
        match folded with
        | None -> ()
        | Some file -> Printf.printf "wrote %s\n" file)
  in
  Cmd.v
    (Cmd.info "blame" ~exits
       ~doc:
         "record a run with the causal event graph on and attribute every \
          simulated microsecond of request latency: per-stage self-compute \
          vs typed waits (admission queue, place-barrier batching, \
          coalescing onto an in-flight build, scheduler dispatch), with \
          p50/p95 per category. The critical path of each request tiles \
          its submit-to-seal interval exactly — the slices sum to its \
          sim_us. $(b,--what-if) deterministically replays the recorded \
          graph under a counterfactual knob and predicts what the run \
          would have cost; $(b,--folded) writes flamegraph folded stacks.")
    Term.(const run $ meta $ meta_file_arg $ workload $ request $ json $ folded
          $ what_if)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"master seed; each iteration derives its own case seed from \
                   it, so equal seeds reproduce the whole run byte-for-byte")
  in
  let iterations =
    Arg.(value & opt int 100
         & info [ "iterations" ] ~docv:"N" ~doc:"number of generated cases to run")
  in
  let max_modules =
    Arg.(value & opt int 12
         & info [ "max-modules" ] ~docv:"N" ~doc:"module-count bound per case")
  in
  let max_libs =
    Arg.(value & opt int 6
         & info [ "max-libs" ] ~docv:"N" ~doc:"library-count bound per case")
  in
  let replay =
    Arg.(value & opt_all file []
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"replay a committed $(b,omos.fuzzcase/1) file through the \
                   oracles instead of generating (repeatable)")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"on failure, write the minimized case to $(docv)")
  in
  let progress =
    Arg.(value & opt int 50
         & info [ "progress" ] ~docv:"N"
             ~doc:"print a status line every $(docv) iterations (0 = quiet)")
  in
  let run failed seed iterations max_modules max_libs replay dump progress =
    handle (fun () ->
        if replay <> [] then
          List.iter
            (fun file ->
              let ic = open_in file in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              let case = Workloads.Fuzz.of_string text in
              match Omos.Fuzzer.run_case case with
              | Omos.Fuzzer.Pass { clean_libs; events } ->
                  Printf.printf "%s: ok (clean_libs=%d events=%d)\n"
                    (Filename.basename file) clean_libs events
              | Omos.Fuzzer.Fail f ->
                  failed := true;
                  Printf.printf "%s: FAIL oracle=%s\n  %s\n"
                    (Filename.basename file) f.Omos.Fuzzer.fz_oracle
                    f.Omos.Fuzzer.fz_detail)
            replay
        else begin
          let on_iteration i v =
            if progress > 0 && (i + 1) mod progress = 0 then
              match v with
              | Omos.Fuzzer.Pass { clean_libs; events } ->
                  Printf.printf "iter %d/%d ok (clean_libs=%d events=%d)\n"
                    (i + 1) iterations clean_libs events
              | Omos.Fuzzer.Fail _ -> ()
          in
          match
            Omos.Fuzzer.fuzz ~max_modules ~max_libs ~on_iteration ~seed
              ~iterations ()
          with
          | None ->
              Printf.printf "fuzz: %d iterations clean (seed %d)\n" iterations
                seed
          | Some (i, f) ->
              failed := true;
              Printf.printf "fuzz: iteration %d tripped oracle %s\n  %s\n" i
                f.Omos.Fuzzer.fz_oracle f.Omos.Fuzzer.fz_detail;
              let min_case, runs = Omos.Fuzzer.reduce f in
              (match Omos.Fuzzer.run_case min_case with
              | Omos.Fuzzer.Fail f' ->
                  Printf.printf "minimized (%d reducer runs), still %s:\n  %s\n"
                    runs f'.Omos.Fuzzer.fz_oracle f'.Omos.Fuzzer.fz_detail
              | Omos.Fuzzer.Pass _ -> ());
              let text = Workloads.Fuzz.to_string min_case in
              print_string text;
              match dump with
              | None -> ()
              | Some file ->
                  let oc = open_out file in
                  output_string oc text;
                  close_out oc;
                  Printf.printf "wrote %s\n" file
        end)
  in
  let run seed iterations max_modules max_libs replay dump progress =
    let failed = ref false in
    let code = run failed seed iterations max_modules max_libs replay dump progress in
    if code = 0 && !failed then 2 else code
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "seeded blueprint/workload fuzzing: generate dependency-graph \
          blueprints (version skew, interposition stacks, rename/freeze \
          chains, address-constraint collisions) plus workload scenarios \
          over them, and hold every case to three differential oracles — \
          the lint-vs-evaluator symbol-flow check, residency invariants \
          after every operation, and batched-vs-serial pipeline \
          equivalence (byte-identical fault replay when fault injection \
          is armed). On failure the built-in reducer shrinks the case to \
          a minimal reproduction, printed as $(b,omos.fuzzcase/1) text \
          (and written to $(b,--dump)); the flight recorder ring dumps \
          automatically on the non-zero exit. Deterministic: a fixed \
          $(b,--seed) reproduces the whole run byte-for-byte.")
    Term.(const run $ seed $ iterations $ max_modules $ max_libs $ replay
          $ dump $ progress)

let main =
  Cmd.group
    (Cmd.info "ofe" ~exits
       ~doc:"the Object File Editor: inspect and transform SOF objects")
    [
      info_cmd; symbols_cmd; relocs_cmd; disasm_cmd; exports_cmd; undefined_cmd;
      nm_cmd; size_cmd; strings_cmd;
      compile_cmd; convert_cmd; rename_cmd; copy_as_cmd; merge_cmd;
      lint_cmd; impact_cmd; trace_cmd; stats_cmd; explain_cmd; profile_cmd; hotspots_cmd;
      blame_cmd; workload_cmd; top_cmd; health_cmd; fuzz_cmd;
      unary_op "hide" "hide definitions, freezing internal references"
        (fun p x -> Blueprint.Mgraph.Hide (p, x));
      unary_op "restrict" "virtualize definitions (remove, keep references)"
        (fun p x -> Blueprint.Mgraph.Restrict (p, x));
      unary_op "show" "hide all but the selected definitions"
        (fun p x -> Blueprint.Mgraph.Show (p, x));
      unary_op "project" "virtualize all but the selected definitions"
        (fun p x -> Blueprint.Mgraph.Project (p, x));
      unary_op "freeze" "make current bindings permanent"
        (fun p x -> Blueprint.Mgraph.Freeze (p, x));
    ]

(* Every run arms the flight recorder's auto-dump: on any non-zero exit
   the ring (when non-empty) is written next to the invocation, so a
   failing request leaves its last ~4k events behind for inspection. *)
let () =
  Telemetry.Flight.set_auto_dump (Some "flight");
  let code = Cmd.eval' ~term_err:2 main in
  if
    code <> 0
    && Telemetry.Flight.trip ~reason:(Printf.sprintf "ofe exit %d" code) ()
  then
    Printf.eprintf "ofe: flight recorder dump written to flight.json, flight.txt\n";
  exit code
