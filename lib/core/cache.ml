(** The image cache.

    "OMOS treats executable images as a cache, translating from more
    expressive forms (e.g., .o's, or source modules) as necessary. By
    treating executables as a cache, OMOS avoids unnecessary repetition
    of work."

    Entries are keyed by the construction digest (meta-object graph +
    specialization); several entries may exist per key when address
    conflicts forced alternate placements — the disk-consumption
    concern the paper flags. Each entry carries its serialized size so
    the cache can report disk use, and hit/miss counters feed the
    caching experiment (E3). *)

(* Global telemetry: a process hosts one server cache at a time, so
   these track the per-cache counts below one-for-one. *)
let tm_hits = Telemetry.Counter.make "cache.hits"
let tm_misses = Telemetry.Counter.make "cache.misses"
let tm_insertions = Telemetry.Counter.make "cache.insertions"
let tm_evictions = Telemetry.Counter.make "cache.evictions"
let tm_entry_bytes = Telemetry.Histogram.make "cache.entry_bytes"
let tm_memo_hits = Telemetry.Counter.make "cache.memo_hits"
let tm_memo_insertions = Telemetry.Counter.make "cache.memo_insertions"
let tm_memo_evictions = Telemetry.Counter.make "cache.memo_evictions"

(** Residency of an entry relative to the server's arenas: [Placed]
    entries hold live text/data reservations, [Evicted] entries have
    lost them (a demoted candidate awaiting revival), [Static] entries
    live at fixed client bases and never claim arena ranges. The
    {!Residency} layer owns the transitions. *)
type residency = Placed | Evicted | Static

let residency_to_string = function
  | Placed -> "placed"
  | Evicted -> "evicted"
  | Static -> "static"

type entry = {
  key : string; (* construction digest *)
  image : Linker.Image.t;
  text_base : int;
  data_base : int;
  disk_bytes : int;
  mutable hits : int;
  mutable residency : residency;
  mutable provenance : Telemetry.Provenance.t option;
      (* how this image was built; served as-is on hits *)
}

(** One memoized subtree materialization: the evaluated module (and
    its accumulated constraints) keyed by {!Analysis.Impact} interface
    digest. *)
type memo_entry = {
  m_digest : string;
  m_result : Blueprint.Mgraph.result;
  mutable m_hits : int;
}

type t = {
  entries : (string, entry list ref) Hashtbl.t;
  memos : (string, memo_entry) Hashtbl.t;
      (* per-node memo table, keyed by interface digest *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable insertions : int;
  mutable generation : int; (* bumped on every insertion and eviction *)
}

let create () : t =
  {
    entries = Hashtbl.create 32;
    memos = Hashtbl.create 64;
    hit_count = 0;
    miss_count = 0;
    insertions = 0;
    generation = 0;
  }

(** Structural age of the cache: how many insertions and evictions it
    has seen. Recorded into each entry's provenance at build time, so
    [ofe explain] can say which cache era an image came from. *)
let generation (t : t) : int = t.generation

(** All cached placements of a construction. *)
let candidates (t : t) (key : string) : entry list =
  match Hashtbl.find_opt t.entries key with Some r -> !r | None -> []

(** [find t key ~acceptable] returns a cached image whose placement
    satisfies [acceptable], counting a hit or miss. *)
let find (t : t) (key : string) ~(acceptable : entry -> bool) : entry option =
  match List.find_opt acceptable (candidates t key) with
  | Some e ->
      e.hits <- e.hits + 1;
      t.hit_count <- t.hit_count + 1;
      Telemetry.Counter.incr tm_hits;
      Some e
  | None ->
      t.miss_count <- t.miss_count + 1;
      Telemetry.Counter.incr tm_misses;
      None

(** Record a freshly built image. *)
let insert (t : t) ~(key : string) ~(text_base : int) ~(data_base : int)
    ?(residency = Static) ?provenance (image : Linker.Image.t) : entry =
  let e =
    {
      key;
      image;
      text_base;
      data_base;
      disk_bytes = Bytes.length (Linker.Image.encode image);
      hits = 0;
      residency;
      provenance;
    }
  in
  (match Hashtbl.find_opt t.entries key with
  | Some r -> r := e :: !r
  | None -> Hashtbl.replace t.entries key (ref [ e ]));
  t.insertions <- t.insertions + 1;
  t.generation <- t.generation + 1;
  Telemetry.Counter.incr tm_insertions;
  Telemetry.Histogram.observe tm_entry_bytes (float_of_int e.disk_bytes);
  e

(** Drop every placement of a construction (e.g. after its sources
    changed). *)
let invalidate (t : t) (key : string) : unit = Hashtbl.remove t.entries key

(* -- per-node memo table ---------------------------------------------------- *)

(** [memo_find t digest] returns the memoized materialization of a
    subtree, counting a memo hit. No miss counter: the eval path probes
    every node, so misses are the common, uninteresting case. *)
let memo_find (t : t) (digest : string) : memo_entry option =
  match Hashtbl.find_opt t.memos digest with
  | Some e ->
      e.m_hits <- e.m_hits + 1;
      Telemetry.Counter.incr tm_memo_hits;
      Some e
  | None -> None

let memo_insert (t : t) ~(digest : string) (result : Blueprint.Mgraph.result) :
    unit =
  if not (Hashtbl.mem t.memos digest) then begin
    Hashtbl.replace t.memos digest
      { m_digest = digest; m_result = result; m_hits = 0 };
    Telemetry.Counter.incr tm_memo_insertions
  end

let memo_count (t : t) : int = Hashtbl.length t.memos

let memo_retain (t : t) (keep : string -> bool) : unit =
  let before = Hashtbl.length t.memos in
  Hashtbl.filter_map_inplace (fun d e -> if keep d then Some e else None) t.memos;
  let dropped = before - Hashtbl.length t.memos in
  if dropped > 0 then Telemetry.Counter.incr tm_memo_evictions ~by:dropped

(* The memo table is derived data: entries reference module views that
   may share structure with cached images, so whenever the image cache
   sheds weight the memo table is dropped wholesale rather than tracing
   which subtrees fed the victims. Conservative, always sound — the
   next build re-materializes and re-memoizes what it actually needs. *)
let memo_clear (t : t) : unit =
  let n = Hashtbl.length t.memos in
  if n > 0 then begin
    Hashtbl.reset t.memos;
    Telemetry.Counter.incr tm_memo_evictions ~by:n
  end

(** Every live entry, across all keys and placements. *)
let to_list (t : t) : entry list =
  Hashtbl.fold (fun _ r acc -> List.rev_append !r acc) t.entries []

let clear (t : t) : unit =
  Hashtbl.reset t.entries;
  memo_clear t;
  t.hit_count <- 0;
  t.miss_count <- 0;
  t.insertions <- 0

(** [evict_to_budget t ~bytes] trims the cache to at most [bytes] of
    serialized image data, dropping the least-used entries first (and
    among equally-used ones, alternate placements before primaries).
    Addresses the paper's §4.1 concern: "disk space for caching multiple
    versions of large libraries could be significant". Returns the
    evicted entries so the server can release their arena
    reservations. *)
let evict_to_budget (t : t) ~(bytes : int) : entry list =
  let all =
    (* a key's list is newest-first, so its primary (first-built)
       placement is the last element; tag each entry accordingly *)
    Hashtbl.fold
      (fun _ r acc ->
        match List.rev !r with
        | [] -> acc
        | primary :: alternates ->
            ((primary, true) :: List.map (fun e -> (e, false)) alternates) @ acc)
      t.entries []
  in
  let total = List.fold_left (fun a (e, _) -> a + e.disk_bytes) 0 all in
  if total <= bytes then []
  else begin
    (* least hits first; among equal hits, alternates before primaries *)
    let by_use =
      List.sort
        (fun ((a : entry), a_primary) ((b : entry), b_primary) ->
          match compare a.hits b.hits with
          | 0 -> compare a_primary b_primary
          | c -> c)
        all
    in
    let victims = ref [] in
    let excess = ref (total - bytes) in
    List.iter
      (fun (e, _) ->
        if !excess > 0 then begin
          victims := e :: !victims;
          excess := !excess - e.disk_bytes
        end)
      by_use;
    let victim_set = !victims in
    Hashtbl.iter
      (fun _ r -> r := List.filter (fun e -> not (List.memq e victim_set)) !r)
      t.entries;
    (* drop now-empty keys *)
    let empty =
      Hashtbl.fold (fun k r acc -> if !r = [] then k :: acc else acc) t.entries []
    in
    List.iter (Hashtbl.remove t.entries) empty;
    t.generation <- t.generation + List.length victim_set;
    Telemetry.Counter.incr tm_evictions ~by:(List.length victim_set);
    (* derived data follows the images it was derived from *)
    if victim_set <> [] then memo_clear t;
    victim_set
  end

type stats = {
  hits : int;
  misses : int;
  entries : int; (* live entries, across all placements *)
  versions_max : int; (* worst-case placements of one construction *)
  disk_bytes_total : int;
}

let stats (t : t) : stats =
  let entries, versions_max, disk =
    Hashtbl.fold
      (fun _ r (n, vmax, disk) ->
        let l = List.length !r in
        ( n + l,
          max vmax l,
          disk + List.fold_left (fun a e -> a + e.disk_bytes) 0 !r ))
      t.entries (0, 0, 0)
  in
  {
    hits = t.hit_count;
    misses = t.miss_count;
    entries;
    versions_max;
    disk_bytes_total = disk;
  }
