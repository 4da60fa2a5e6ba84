(** The image cache (paper §3.1: "OMOS treats executable images as a
    cache … By treating executables as a cache, OMOS avoids unnecessary
    repetition of work").

    Entries are keyed by the construction digest (meta-object graph +
    specialization); several entries may exist per key when address
    conflicts forced alternate placements. *)

(** Residency of an entry relative to the server's address-space
    arenas: [Placed] entries hold live text/data reservations, [Evicted]
    entries have lost them and must be re-placed before mapping,
    [Static] entries live at fixed client bases and never claim arena
    ranges. Transitions go through {!Residency}. *)
type residency = Placed | Evicted | Static

val residency_to_string : residency -> string

type entry = {
  key : string;  (** construction digest *)
  image : Linker.Image.t;
  text_base : int;
  data_base : int;
  disk_bytes : int;  (** serialized size (disk-consumption accounting) *)
  mutable hits : int;
  mutable residency : residency;
  mutable provenance : Telemetry.Provenance.t option;
      (** binding journal of the build that produced this image; hits
          serve it as-is, without relinking *)
}

type t

val create : unit -> t

(** Structural age: insertions + evictions seen so far. *)
val generation : t -> int

(** All cached placements of a construction (no hit/miss counting). *)
val candidates : t -> string -> entry list

(** [find t key ~acceptable] returns a cached image whose placement
    satisfies [acceptable], counting a hit or miss. *)
val find : t -> string -> acceptable:(entry -> bool) -> entry option

(** Record a freshly built image ([residency] defaults to [Static];
    the residency layer promotes arena-placed entries). *)
val insert :
  t ->
  key:string ->
  text_base:int ->
  data_base:int ->
  ?residency:residency ->
  ?provenance:Telemetry.Provenance.t ->
  Linker.Image.t ->
  entry

(** Drop every placement of a construction (its sources changed). *)
val invalidate : t -> string -> unit

(** {1 Per-node memo table}

    Materialized subtree views keyed by {!Analysis.Impact} interface
    digest — the substrate of incremental relinking. The table is
    derived data: it is dropped wholesale whenever {!evict_to_budget}
    sheds any image, and by {!clear}. *)

type memo_entry = {
  m_digest : string;  (** interface digest (the memo key) *)
  m_result : Blueprint.Mgraph.result;  (** materialized views + prefs *)
  mutable m_hits : int;
}

(** Memoized materialization of a subtree, counting a memo hit. *)
val memo_find : t -> string -> memo_entry option

(** Idempotent: the first materialization of a digest wins. *)
val memo_insert : t -> digest:string -> Blueprint.Mgraph.result -> unit

val memo_count : t -> int

(** [memo_retain t keep] drops every entry whose digest [keep] rejects
    (counted as [cache.memo_evictions]). *)
val memo_retain : t -> (string -> bool) -> unit

(** Drop the whole memo table (counts the dropped entries as
    [cache.memo_evictions]). *)
val memo_clear : t -> unit

(** Every live entry, across all keys and placements. *)
val to_list : t -> entry list

val clear : t -> unit

(** [evict_to_budget t ~bytes] trims the cache to at most [bytes] of
    serialized image data, least-used entries first (and among
    equally-used ones, alternate placements before primaries). Returns
    the evicted entries so the caller can release their reservations. *)
val evict_to_budget : t -> bytes:int -> entry list

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** live entries, across all placements *)
  versions_max : int;  (** worst-case placements of one construction *)
  disk_bytes_total : int;
}

val stats : t -> stats
