(** The OMOS namespace.

    "OMOS maintains and exports a hierarchical namespace, whose names
    represent meta-objects, executable code fragments, or directories
    of other objects." *)

exception Namespace_error of string

type entry =
  | Fragment of Sof.Object_file.t (* a relocatable, e.g. /obj/ls.o *)
  | Meta of Blueprint.Meta.t (* a meta-object *)
  | Directory of (string, entry) Hashtbl.t

type t = { root : (string, entry) Hashtbl.t }

let create () : t = { root = Hashtbl.create 16 }

let split_path (path : string) : string list =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let rec lookup_in dir = function
  | [] -> Some (Directory dir)
  | p :: rest -> (
      match Hashtbl.find_opt dir p with
      | Some (Directory d) -> lookup_in d rest
      | Some e -> if rest = [] then Some e else None
      | None -> None)

let lookup (t : t) (path : string) : entry option = lookup_in t.root (split_path path)

let exists (t : t) (path : string) : bool = lookup t path <> None

(* Bind an entry at a path, creating directories. *)
let bind (t : t) (path : string) (e : entry) : unit =
  match List.rev (split_path path) with
  | [] -> raise (Namespace_error "cannot bind /")
  | name :: rev_dir ->
      let rec go dir = function
        | [] -> Hashtbl.replace dir name e
        | p :: rest -> (
            match Hashtbl.find_opt dir p with
            | Some (Directory d) -> go d rest
            | Some _ ->
                raise (Namespace_error (path ^ ": component is not a directory"))
            | None ->
                let d = Hashtbl.create 8 in
                Hashtbl.replace dir p (Directory d);
                go d rest)
      in
      go t.root (List.rev rev_dir)

let bind_fragment (t : t) (path : string) (o : Sof.Object_file.t) : unit =
  bind t path (Fragment o)

let bind_meta (t : t) (path : string) (m : Blueprint.Meta.t) : unit = bind t path (Meta m)

let unbind (t : t) (path : string) : unit =
  match List.rev (split_path path) with
  | [] -> raise (Namespace_error "cannot unbind /")
  | name :: rev_dir -> (
      match lookup_in t.root (List.rev rev_dir) with
      | Some (Directory d) -> Hashtbl.remove d name
      | _ -> raise (Namespace_error (path ^ ": no such directory")))

(** Entries of a directory, sorted. *)
let list (t : t) (path : string) : (string * [ `Fragment | `Meta | `Directory ]) list =
  match lookup t path with
  | Some (Directory d) ->
      Hashtbl.fold
        (fun name e acc ->
          let kind =
            match e with
            | Fragment _ -> `Fragment
            | Meta _ -> `Meta
            | Directory _ -> `Directory
          in
          (name, kind) :: acc)
        d []
      |> List.sort compare
  | Some _ -> raise (Namespace_error (path ^ ": not a directory"))
  | None -> raise (Namespace_error (path ^ ": no such directory"))

(** All meta-object paths (for administrative listings). *)
let all_metas (t : t) : string list =
  let out = ref [] in
  (* a path string only for what it names: a directory can hold a
     fragment for every version ever bound *)
  let rec walk prefix dir =
    Hashtbl.iter
      (fun name e ->
        match e with
        | Meta _ -> out := (prefix ^ "/" ^ name) :: !out
        | Directory d -> walk (prefix ^ "/" ^ name) d
        | Fragment _ -> ())
      dir
  in
  walk "" t.root;
  List.sort String.compare !out
