(** Executable images: the "mappable result" of evaluating an m-graph.

    An image is a set of positioned segments plus an entry point and an
    exported symbol table. Images are what OMOS caches and maps into
    client address spaces; their read-only segments are the unit of
    physical sharing between processes. *)

type segment = {
  seg_name : string; (* "text" / "data" *)
  vaddr : int;
  bytes : Bytes.t;
  writable : bool;
}

type t = {
  name : string;
  segments : segment list;
  bss_vaddr : int;
  bss_size : int;
  entry : int; (* absolute address of the entry symbol; -1 if none *)
  symtab : (string * int) list; (* exported name -> absolute address *)
  reloc_work : int; (* relocations applied while building — cost input *)
}

let find_symbol (img : t) (name : string) : int option =
  List.assoc_opt name img.symtab

(** Total bytes of initialized segments. *)
let loaded_size (img : t) : int =
  List.fold_left (fun acc s -> acc + Bytes.length s.bytes) 0 img.segments

let text_segment (img : t) : segment option =
  List.find_opt (fun s -> not s.writable) img.segments

let data_segment (img : t) : segment option =
  List.find_opt (fun s -> s.writable) img.segments

(** Address range [lo, hi) spanned by the image (segments + bss). *)
let extent (img : t) : int * int =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) s ->
        (min lo s.vaddr, max hi (s.vaddr + Bytes.length s.bytes)))
      (max_int, 0) img.segments
  in
  let hi = if img.bss_size > 0 then max hi (img.bss_vaddr + img.bss_size) else hi in
  let lo = if lo = max_int then 0 else lo in
  (lo, hi)

(** Content digest, stable across builds of identical images. Segment
    placement is part of the identity: the same library placed at a
    different base is a different image. *)
let digest (img : t) : string =
  let buf = Buffer.create (loaded_size img + 64) in
  Buffer.add_string buf img.name;
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "|%s@%x:%b:" s.seg_name s.vaddr s.writable);
      Buffer.add_bytes buf s.bytes)
    img.segments;
  Buffer.add_string buf (Printf.sprintf "|bss@%x+%x|e%x" img.bss_vaddr img.bss_size img.entry);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** [load_into_flat img mem] copies all segments into a flat memory
    buffer at their virtual addresses and zeroes the bss — the
    single-process loading path used by tests and examples that run
    without the full simulated OS. *)
let load_into_flat (img : t) (mem : Bytes.t) : unit =
  List.iter
    (fun s -> Bytes.blit s.bytes 0 mem s.vaddr (Bytes.length s.bytes))
    img.segments;
  if img.bss_size > 0 then Bytes.fill mem img.bss_vaddr img.bss_size '\000'

(** Serialize an image to bytes — the on-"disk" executable format the
    traditional exec path reads and parses. *)
let encode (img : t) : Bytes.t =
  let buf = Buffer.create (loaded_size img + 256) in
  Buffer.add_string buf "SIMG";
  let put_u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  let put_str s = put_u32 (String.length s); Buffer.add_string buf s in
  put_str img.name;
  put_u32 (List.length img.segments);
  List.iter
    (fun s ->
      put_str s.seg_name;
      put_u32 s.vaddr;
      put_u32 (if s.writable then 1 else 0);
      put_u32 (Bytes.length s.bytes);
      Buffer.add_bytes buf s.bytes)
    img.segments;
  put_u32 img.bss_vaddr;
  put_u32 img.bss_size;
  put_u32 (img.entry land 0xFFFFFFFF);
  put_u32 (List.length img.symtab);
  List.iter (fun (n, a) -> put_str n; put_u32 a) img.symtab;
  put_u32 img.reloc_work;
  Buffer.to_bytes buf

(* The layout [encode] writes, in its order: a string is a u32 length
   and its bytes; a segment is its name, three u32s and its bytes. *)
let encoded_size (img : t) : int =
  let str s = 4 + String.length s in
  let seg acc s = acc + str s.seg_name + 12 + Bytes.length s.bytes in
  let sym acc (n, _) = acc + str n + 4 in
  (* magic, name, segment count *)
  4 + str img.name + 4
  + List.fold_left seg 0 img.segments
  (* bss vaddr, bss size, entry, symbol count *)
  + 16
  + List.fold_left sym 0 img.symtab
  (* reloc_work *)
  + 4

exception Decode_error of string

let decode (b : Bytes.t) : t =
  let pos = ref 0 in
  let need n =
    if !pos + n > Bytes.length b then raise (Decode_error "truncated image")
  in
  let get_u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le b !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let get_str () =
    let n = get_u32 () in
    need n;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  need 4;
  if Bytes.sub_string b 0 4 <> "SIMG" then raise (Decode_error "bad image magic");
  pos := 4;
  let name = get_str () in
  let nsegs = get_u32 () in
  let segments =
    List.init nsegs (fun _ -> ())
    |> List.map (fun () ->
           let seg_name = get_str () in
           let vaddr = get_u32 () in
           let writable = get_u32 () = 1 in
           let len = get_u32 () in
           need len;
           let bytes = Bytes.sub b !pos len in
           pos := !pos + len;
           { seg_name; vaddr; bytes; writable })
  in
  let bss_vaddr = get_u32 () in
  let bss_size = get_u32 () in
  let entry =
    let e = get_u32 () in
    if e = 0xFFFFFFFF then -1 else e
  in
  let nsyms = get_u32 () in
  let symtab =
    List.init nsyms (fun _ -> ())
    |> List.map (fun () ->
           let n = get_str () in
           let a = get_u32 () in
           (n, a))
  in
  let reloc_work = get_u32 () in
  { name; segments; bss_vaddr; bss_size; entry; symtab; reloc_work }
