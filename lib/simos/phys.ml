(** Physical-memory accounting.

    The unit of sharing in OMOS is the read-only segment of a cached
    image: every client that maps it references the same physical
    frames. This module tracks frames and reference counts so the
    benchmarks can report real memory use (the dispatch-table-vs-sharing
    experiment) without scattering actual bytes across frame objects —
    region contents stay in their backing [Bytes.t]. The totals are
    kept as groups are allocated, shared and released. *)

type frame_group = {
  pages : int;
  mutable refs : int; (* how many mappings share this group *)
}

type t = {
  mutable resident : int; (* pages of the groups with a reference *)
  mutable mapped : int; (* pages times references, over every group *)
}

let create () : t = { resident = 0; mapped = 0 }

(** Allocate a group of frames backing [bytes] bytes. *)
let alloc (t : t) ~(bytes : int) : frame_group =
  let pages = max 1 ((bytes + Cost.page_size - 1) / Cost.page_size) in
  t.resident <- t.resident + pages;
  t.mapped <- t.mapped + pages;
  { pages; refs = 1 }

(** Share an existing group (another process maps the same segment). *)
let addref (t : t) (g : frame_group) : unit =
  g.refs <- g.refs + 1;
  t.mapped <- t.mapped + g.pages

(** Drop one reference; the group is freed when refs reach zero. A
    freed group's further releases count for nothing. *)
let decref (t : t) (g : frame_group) : unit =
  if g.refs > 0 then begin
    g.refs <- g.refs - 1;
    t.mapped <- t.mapped - g.pages;
    if g.refs = 0 then t.resident <- t.resident - g.pages
  end

(** Physical pages actually allocated. *)
let resident_pages (t : t) : int = t.resident

(** Pages as they appear summed over every process's mappings — the
    no-sharing counterfactual. *)
let mapped_pages (t : t) : int = t.mapped

(** Pages saved by sharing. *)
let saved_pages (t : t) : int = mapped_pages t - resident_pages t

let pp ppf (t : t) =
  Format.fprintf ppf "resident=%d mapped=%d saved=%d (pages)" (resident_pages t)
    (mapped_pages t) (saved_pages t)
