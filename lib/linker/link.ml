(** The link engine: layout, symbol resolution, relocation.

    Two entry points:

    - {!link} performs a {e full} link of an ordered fragment list into
      a positioned, fully relocated {!Image.t} — what OMOS does when it
      executes a [merge]/[constrain] m-graph down to a mappable image.
      Symbols may also be resolved against {e external images} (already
      positioned shared libraries), which is how a client binds to a
      self-contained library's fixed addresses.

    - {!combine} performs a {e partial} link: fragments are concatenated
      into one relocatable object, internal references stay symbolic.
      This is how a multi-member library (Figure 1's libc) becomes a
      single cacheable implementation object. *)

type error =
  | Duplicate of string * string * string (* symbol, defining frag, second frag *)
  | Undefined of string list
  | Layout_overlap of string

exception Link_error of error

let error_to_string = function
  | Duplicate (sym, f1, f2) ->
      Printf.sprintf "duplicate definition of %s (in %s and %s)" sym f1 f2
  | Undefined syms -> "undefined symbols: " ^ String.concat ", " syms
  | Layout_overlap who -> "layout overlap: " ^ who

let () =
  Printexc.register_printer (function
    | Link_error e -> Some ("Link_error: " ^ error_to_string e)
    | _ -> None)

(** Where the linked image goes. *)
type layout = { text_base : int; data_base : int }

let align_up v a = (v + a - 1) / a * a

(* Per-fragment placement within the combined image. *)
type placed = {
  frag : Sof.Object_file.t;
  text_off : int; (* offset of this fragment's text within combined text *)
  data_off : int;
  bss_off : int;
}

let place_fragments (frags : Sof.Object_file.t list) : placed list * int * int * int =
  let text_off = ref 0 and data_off = ref 0 and bss_off = ref 0 in
  let placed =
    List.map
      (fun (frag : Sof.Object_file.t) ->
        let p = { frag; text_off = !text_off; data_off = !data_off; bss_off = !bss_off } in
        text_off := !text_off + Bytes.length frag.text;
        data_off := align_up (!data_off + Bytes.length frag.data) 4;
        bss_off := align_up (!bss_off + frag.bss_size) 4;
        p)
      frags
  in
  (placed, !text_off, !data_off, !bss_off)

(* Absolute address of a defined symbol of a placed fragment, given the
   section bases. *)
let sym_addr ~text_base ~data_base ~bss_base (p : placed) (s : Sof.Symbol.t) : int =
  match s.Sof.Symbol.kind with
  | Sof.Symbol.Text -> text_base + p.text_off + s.value
  | Sof.Symbol.Data -> data_base + p.data_off + s.value
  | Sof.Symbol.Bss -> bss_base + p.bss_off + s.value
  | Sof.Symbol.Abs -> s.value
  | Sof.Symbol.Undef -> invalid_arg "sym_addr: undefined symbol"

(** Result statistics — the quantities the paper's cost argument is
    about. *)
type stats = {
  fragments : int;
  relocs_applied : int;
  symbols_resolved : int;
  undefined : string list; (* non-empty only with [~allow_undefined] *)
}

let tm_links = Telemetry.Counter.make "linker.links"
let tm_relocs = Telemetry.Counter.make "linker.relocs_applied"
let tm_symbols = Telemetry.Counter.make "linker.symbols_resolved"
let tm_combines = Telemetry.Counter.make "linker.combines"

module H = Hashtbl.Make (String)

(* A fragment's own definitions, keyed by (fragment index, name). *)
module Own = Hashtbl.Make (struct
  type t = int * string

  let equal (i, a) (j, b) = i = j && String.equal a b
  let hash (i, n) = String.hash n + i
end)

(** [link ~layout frags] fully links [frags].

    [entry] names the entry-point symbol (default ["_start"], falling
    back to ["main"]). [externals] are already-positioned images whose
    exported symbols satisfy remaining references (binding a client
    against self-contained shared libraries). With [allow_undefined],
    unresolved references are left as zero words and reported in
    [stats] instead of raising. *)
let link ?entry ?(externals : Image.t list = []) ?(allow_undefined = false)
    ~(layout : layout) (frags : Sof.Object_file.t list) : Image.t * stats =
  Telemetry.with_span "linker.link"
    ~attrs:[ ("fragments", Telemetry.I (List.length frags)) ]
  @@ fun () ->
  let placed, text_size, data_size, bss_size = place_fragments frags in
  let text_base = layout.text_base and data_base = layout.data_base in
  let bss_base = align_up (data_base + data_size) 4 in
  if text_base + text_size > data_base && data_base + data_size + bss_size > text_base
  then raise (Link_error (Layout_overlap "text/data segments"));
  let n_symbols =
    List.fold_left (fun k p -> k + List.length p.frag.Sof.Object_file.symbols) 0 placed
  in
  (* one pass over the symbol tables: each fragment's own definitions
     (the first of a name wins), the global table of exported
     definitions, and the explicit undefined entries *)
  let own : int Own.t = Own.create n_symbols in
  let globals : (int * string * Sof.Symbol.binding) H.t = H.create n_symbols in
  let undef_entries = ref [] in
  let prov = Telemetry.Provenance.is_enabled () in
  List.iteri
    (fun i p ->
      List.iter
        (fun (s : Sof.Symbol.t) ->
          if not (Sof.Symbol.is_defined s) then
            undef_entries := (i, s.name) :: !undef_entries
          else begin
            let addr = sym_addr ~text_base ~data_base ~bss_base p s in
            let key = (i, s.name) in
            if not (Own.mem own key) then Own.add own key addr;
            if Sof.Symbol.is_exported s then (
              let fname = p.frag.Sof.Object_file.name in
              match H.find_opt globals s.name with
              | None -> H.replace globals s.name (addr, fname, s.binding)
              | Some (_, f1, Sof.Symbol.Global) when s.binding = Sof.Symbol.Global ->
                  raise (Link_error (Duplicate (s.name, f1, fname)))
              | Some (_, f1, Sof.Symbol.Weak) when s.binding = Sof.Symbol.Global ->
                  if prov then
                    Telemetry.Provenance.record_interpose ~symbol:s.name
                      ~winner:fname ~loser:f1 ~how:"global-over-weak";
                  H.replace globals s.name (addr, fname, s.binding)
              | Some (_, f1, existing) ->
                  (* existing Global beats Weak; first Weak kept *)
                  if prov then
                    Telemetry.Provenance.record_interpose ~symbol:s.name
                      ~winner:f1 ~loser:fname
                      ~how:
                        (if existing = Sof.Symbol.Global then "global-over-weak"
                         else "first-weak-kept"))
          end)
        p.frag.Sof.Object_file.symbols)
    placed;
  (* journal the winning definitions while the table is fresh *)
  if prov then
    H.fold (fun name (addr, frag, binding) acc -> (name, addr, frag, binding) :: acc) globals []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
    |> List.iter (fun (name, addr, frag, binding) ->
           Telemetry.Provenance.record_bind ~symbol:name ~addr ~frag
             ~via:
               (if binding = Sof.Symbol.Weak then "weak definition"
                else "definition"));
  (* external images: weaker than any fragment definition *)
  let external_syms : int H.t =
    H.create (List.fold_left (fun k (img : Image.t) -> k + List.length img.Image.symtab) 0 externals)
  in
  List.iter
    (fun (img : Image.t) ->
      List.iter
        (fun (name, addr) ->
          if not (H.mem external_syms name) then H.replace external_syms name addr)
        img.Image.symtab)
    externals;
  (* combined sections *)
  let text = Bytes.make text_size '\000' in
  let data = Bytes.make data_size '\000' in
  List.iter
    (fun p ->
      Bytes.blit p.frag.Sof.Object_file.text 0 text p.text_off
        (Bytes.length p.frag.Sof.Object_file.text);
      Bytes.blit p.frag.Sof.Object_file.data 0 data p.data_off
        (Bytes.length p.frag.Sof.Object_file.data))
    placed;
  (* resolution: fragment-local defs first (covers locals), then
     globals, then externals; a name that resolves nowhere is missing *)
  let resolve i name : int option =
    match Own.find_opt own (i, name) with
    | Some _ as a -> a
    | None -> (
        match H.find_opt globals name with
        | Some (addr, _, _) -> Some addr
        | None -> H.find_opt external_syms name)
  in
  let missing = H.create 16 in
  List.iter
    (fun (i, name) -> if resolve i name = None then H.replace missing name ())
    !undef_entries;
  let relocs_applied = ref 0 in
  let text_relocs = ref 0 and data_relocs = ref 0 in
  let ext_bound : unit H.t = H.create 8 in
  List.iteri
    (fun i p ->
      List.iter
        (fun (r : Sof.Reloc.t) ->
          match resolve i r.symbol with
          | None -> H.replace missing r.symbol ()
          | Some s_addr -> (
              incr relocs_applied;
              (match r.target with
              | Sof.Reloc.In_text -> incr text_relocs
              | Sof.Reloc.In_data -> incr data_relocs);
              (* references satisfied by an already-positioned external
                 image bind outside this link: journal them once *)
              if
                prov
                && (not (Own.mem own (i, r.symbol)))
                && (not (H.mem globals r.symbol))
                && not (H.mem ext_bound r.symbol)
              then begin
                H.replace ext_bound r.symbol ();
                Telemetry.Provenance.record_bind ~symbol:r.symbol ~addr:s_addr
                  ~frag:"<external image>" ~via:"external"
              end;
              match r.target with
              | Sof.Reloc.In_text ->
                  let site = p.text_off + r.offset in
                  let value =
                    match r.kind with
                    | Sof.Reloc.Abs32 -> s_addr + r.addend
                    | Sof.Reloc.Pcrel32 ->
                        let instr_base = text_base + site - Svm.Isa.imm_offset in
                        s_addr + r.addend - (instr_base + Svm.Isa.width)
                  in
                  Bytes.set_int32_le text site (Int32.of_int value)
              | Sof.Reloc.In_data ->
                  let site = p.data_off + r.offset in
                  let value =
                    match r.kind with
                    | Sof.Reloc.Abs32 -> s_addr + r.addend
                    | Sof.Reloc.Pcrel32 ->
                        s_addr + r.addend - (data_base + site)
                  in
                  Bytes.set_int32_le data site (Int32.of_int value)))
        p.frag.Sof.Object_file.relocs)
    placed;
  (* truly undefined = referenced anywhere, defined nowhere *)
  let missing = List.sort String.compare (H.fold (fun n () acc -> n :: acc) missing []) in
  if missing <> [] && not allow_undefined then
    raise (Link_error (Undefined missing));
  (* entry point *)
  let lookup_global n =
    match H.find_opt globals n with Some (a, _, _) -> Some a | None -> None
  in
  let entry_addr =
    match entry with
    | Some n -> ( match lookup_global n with Some a -> a | None -> -1)
    | None -> (
        match lookup_global "_start" with
        | Some a -> a
        | None -> ( match lookup_global "main" with Some a -> a | None -> -1))
  in
  let symtab =
    H.fold (fun name (addr, _, _) acc -> (name, addr) :: acc) globals []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let img_name =
    match frags with [] -> "<empty>" | f :: _ -> f.Sof.Object_file.name
  in
  let img =
    {
      Image.name = img_name;
      segments =
        [
          { Image.seg_name = "text"; vaddr = text_base; bytes = text; writable = false };
          { Image.seg_name = "data"; vaddr = data_base; bytes = data; writable = true };
        ];
      bss_vaddr = bss_base;
      bss_size;
      entry = entry_addr;
      symtab;
      reloc_work = !relocs_applied;
    }
  in
  if prov then begin
    Telemetry.Provenance.record_reloc ~section:"text" ~count:!text_relocs;
    Telemetry.Provenance.record_reloc ~section:"data" ~count:!data_relocs
  end;
  Telemetry.Counter.incr tm_links;
  Telemetry.Counter.incr tm_relocs ~by:!relocs_applied;
  Telemetry.Counter.incr tm_symbols ~by:!relocs_applied;
  Telemetry.add_attr "relocs_applied" (Telemetry.I !relocs_applied);
  Telemetry.add_attr "symbols_resolved" (Telemetry.I !relocs_applied);
  ( img,
    {
      fragments = List.length frags;
      relocs_applied = !relocs_applied;
      symbols_resolved = !relocs_applied;
      undefined = missing;
    } )

(** [combine ~name frags] partially links [frags] into one relocatable
    object. Sections are concatenated and symbol values rebased; all
    relocations are kept symbolic. Local symbols are mangled
    per-fragment so same-named locals in different members cannot
    collide, and each fragment's references to its own locals follow the
    mangling. *)
let combine ~name (frags : Sof.Object_file.t list) : Sof.Object_file.t =
  Telemetry.with_span "linker.combine"
    ~attrs:
      [ ("name", Telemetry.S name); ("fragments", Telemetry.I (List.length frags)) ]
  @@ fun () ->
  Telemetry.Counter.incr tm_combines;
  Telemetry.Provenance.record_op ~op:"combine"
    ~detail:(Printf.sprintf "%s (%d fragments)" name (List.length frags));
  let placed, text_size, data_size, bss_size = place_fragments frags in
  let text = Bytes.make text_size '\000' in
  let data = Bytes.make data_size '\000' in
  List.iter
    (fun p ->
      Bytes.blit p.frag.Sof.Object_file.text 0 text p.text_off
        (Bytes.length p.frag.Sof.Object_file.text);
      Bytes.blit p.frag.Sof.Object_file.data 0 data p.data_off
        (Bytes.length p.frag.Sof.Object_file.data))
    placed;
  (* the lists grow newest-first and are reversed once at the end:
     appending each fragment's part would be quadratic in the fragment
     count *)
  let symbols = ref [] and relocs = ref [] and ctors = ref [] in
  let undef_seen = Hashtbl.create 16 in
  List.iteri
    (fun i p ->
      let frag = p.frag in
      let mangle n = Printf.sprintf "%s$%d$%s" "L" i n in
      let local_defs = Hashtbl.create 8 in
      List.iter
        (fun (s : Sof.Symbol.t) ->
          if Sof.Symbol.is_defined s && s.binding = Sof.Symbol.Local then
            Hashtbl.replace local_defs s.name ())
        frag.Sof.Object_file.symbols;
      let rebase (s : Sof.Symbol.t) : Sof.Symbol.t option =
        match s.kind with
        | Sof.Symbol.Undef ->
            if Hashtbl.mem undef_seen s.name then None
            else (
              Hashtbl.replace undef_seen s.name ();
              Some s)
        | _ ->
            let value =
              match s.kind with
              | Sof.Symbol.Text -> p.text_off + s.value
              | Sof.Symbol.Data -> p.data_off + s.value
              | Sof.Symbol.Bss -> p.bss_off + s.value
              | Sof.Symbol.Abs -> s.value
              | Sof.Symbol.Undef -> assert false
            in
            let name =
              if s.binding = Sof.Symbol.Local then mangle s.name else s.name
            in
            Some { s with Sof.Symbol.name; value }
      in
      symbols :=
        List.fold_left
          (fun acc s -> match rebase s with Some s -> s :: acc | None -> acc)
          !symbols frag.Sof.Object_file.symbols;
      let rebase_reloc (r : Sof.Reloc.t) : Sof.Reloc.t =
        let offset =
          match r.target with
          | Sof.Reloc.In_text -> p.text_off + r.offset
          | Sof.Reloc.In_data -> p.data_off + r.offset
        in
        let symbol = if Hashtbl.mem local_defs r.symbol then mangle r.symbol else r.symbol in
        { r with Sof.Reloc.offset; symbol }
      in
      relocs :=
        List.fold_left (fun acc r -> rebase_reloc r :: acc) !relocs
          frag.Sof.Object_file.relocs;
      let rebase_ctor c = if Hashtbl.mem local_defs c then mangle c else c in
      ctors :=
        List.fold_left (fun acc c -> rebase_ctor c :: acc) !ctors
          frag.Sof.Object_file.ctors)
    placed;
  let symbols = List.rev !symbols in
  (* drop undef entries that are now satisfied internally *)
  let defined = Hashtbl.create 32 in
  List.iter
    (fun (s : Sof.Symbol.t) ->
      if Sof.Symbol.is_defined s then Hashtbl.replace defined s.name ())
    symbols;
  let symbols =
    List.filter
      (fun (s : Sof.Symbol.t) ->
        Sof.Symbol.is_defined s || not (Hashtbl.mem defined s.name))
      symbols
  in
  Sof.Object_file.make ~name ~data ~bss_size ~relocs:(List.rev !relocs)
    ~ctors:(List.rev !ctors) ~text symbols
