(** Physical-memory accounting.

    The unit of sharing in OMOS is the read-only segment of a cached
    image: every client that maps it references the same physical
    frames. This module tracks frame groups and reference counts so
    benchmarks can report real memory use; region contents stay in
    their backing [Bytes.t]. Resident and mapped totals are kept as
    groups come and go. *)

type frame_group = {
  pages : int;
  mutable refs : int;  (** how many mappings share this group *)
}

type t

(** Empty accounting, in pages of {!Cost.page_size} bytes. *)
val create : unit -> t

(** Allocate a group of frames backing [bytes] bytes (refcount 1). *)
val alloc : t -> bytes:int -> frame_group

(** Share an existing group (another process maps the same segment). *)
val addref : t -> frame_group -> unit

(** Drop one reference; the group is freed at zero, and a freed group's
    further releases count for nothing. *)
val decref : t -> frame_group -> unit

(** Physical pages actually allocated. *)
val resident_pages : t -> int

(** Pages summed over every mapping — the no-sharing counterfactual. *)
val mapped_pages : t -> int

(** Pages saved by sharing. *)
val saved_pages : t -> int

val pp : Format.formatter -> t -> unit
