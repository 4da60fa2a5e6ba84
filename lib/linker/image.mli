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
  entry : int;  (** absolute address of the entry symbol; -1 if none *)
  symtab : (string * int) list;  (** exported name → absolute address *)
  reloc_work : int;  (** relocations applied while building *)
}

val find_symbol : t -> string -> int option

(** Total bytes of initialized segments. *)
val loaded_size : t -> int

val text_segment : t -> segment option
val data_segment : t -> segment option

(** Address range [lo, hi) spanned by the image (segments + bss). *)
val extent : t -> int * int

(** Content digest, stable across builds of identical images. Placement
    is part of the identity: the same library at a different base is a
    different image. *)
val digest : t -> string

(** Copy all segments into a flat memory buffer at their virtual
    addresses and zero the bss — the single-process loading path used
    by tests and examples without the full simulated OS. *)
val load_into_flat : t -> Bytes.t -> unit

(** Serialize to bytes — the on-"disk" executable format the
    traditional exec path reads and parses. *)
val encode : t -> Bytes.t

(** [encoded_size img] = [Bytes.length (encode img)], computed from the
    field lengths without encoding. *)
val encoded_size : t -> int

exception Decode_error of string

(** Parse bytes produced by {!encode}. @raise Decode_error. *)
val decode : Bytes.t -> t
