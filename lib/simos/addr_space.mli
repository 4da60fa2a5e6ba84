(** Per-process virtual address spaces with demand paging.

    A space is a set of non-overlapping regions. Read-only regions can
    be {e shared}: their backing bytes and physical frames belong to a
    cached image and are referenced, not copied. Writable regions are
    private: each references its initial bytes and makes a buffer for a
    page (zeros, with the initial bytes that fall in it) the first time
    anything reads or writes that page. Every region is demand-paged:
    the first touch of each page charges a soft fault (resident
    backing) or a disk read (first-ever load of a segment still "on
    disk"), plus an optional per-page user cost (deferred-relocation
    modelling). {!Phys} accounts each region whole, as before.

    The CPU runs code straight from the backing bytes, through the
    three windows that {!mem} hands it: one for fetches and two for
    loads and stores, each onto one touched page (a private page's own
    buffer). Only an access outside its windows calls in here, and that
    call pays any first touch and re-points a window: a data miss moves
    the data window's page into the second data window first. A shared
    region carries its segment's {!Svm.Cpu.translations}, and a fetch
    miss hands the code window the page of them it touched, so the CPU
    runs that page's code a block at a time; a writable region's code
    runs word by word. *)

exception Fault of string

(** Residency of a segment's source, page by page, SHARED by every
    process mapping the segment: the first process to touch a page pays
    the disk read. An empty array means "always resident". *)
type backing_state = { resident : bool array }

type region = {
  lo : int;
  hi : int; (* exclusive *)
  bytes : Bytes.t;
      (* a shared region's segment; a private region's initial bytes,
         zero beyond them: read a region's current bytes with
         {!contents} *)
  pages : Bytes.t array; (* a private region's pages, empty until made *)
  writable : bool; (* private *)
  label : string;
  touched : bool array; (* per-page demand accounting *)
  backing : backing_state;
  frames : Phys.frame_group;
  touch_user_cost : float;
  translations : Svm.Cpu.translations option;
      (* the segment's, for a shared region; [None] when writable *)
}

type t

val create : phys:Phys.t -> clock:Clock.t -> cost:Cost.t -> unit -> t

val regions : t -> region list

(** A region's bytes as they are now: a fresh copy of a private
    region's (its pages, or the initial bytes and zeros where a page is
    not made yet), the segment itself for a shared region, which must
    not be written. *)
val contents : region -> Bytes.t

(** Backing that must be demand-loaded from disk, for a segment of
    [bytes] bytes. *)
val disk_backing : bytes:int -> backing_state

(** Map a read-only shared segment: backing bytes, translations and
    frames are referenced, not copied. [code] must be translations of
    [bytes] ({!Svm.Cpu.translations}), and every mapping of the segment,
    in any space and at any address, may share them: the caller owns
    them, as it owns [frames] and [backing].
    @raise Invalid_argument if [code] translates other bytes *)
val map_shared :
  t ->
  vaddr:int ->
  bytes:Bytes.t ->
  code:Svm.Cpu.translations ->
  frames:Phys.frame_group ->
  backing:backing_state ->
  ?touch_user_cost:float ->
  label:string ->
  unit ->
  unit

(** Map a private writable region, initialized from [init]
    (zero-filled beyond it). The region references [init], which must
    not change while it is mapped; no page is made until it is first
    read or written. *)
val map_private :
  t ->
  vaddr:int ->
  ?init:Bytes.t ->
  ?backing:backing_state ->
  ?touch_user_cost:float ->
  size:int ->
  label:string ->
  unit ->
  unit

(** Release all mappings (process teardown). *)
val destroy : t -> unit

(** Remove the region starting at [lo] (dynamic unlinking).
    @raise Fault if no region starts there. *)
val unmap : t -> lo:int -> unit

(** Pages touched in regions whose label satisfies [pred] — the
    working-set measure used by the reordering experiment. *)
val touched_pages : t -> ?pred:(string -> bool) -> unit -> int

(** (soft faults, disk faults) so far. *)
val fault_stats : t -> int * int

(** Raw accessors (each may fault and charges demand-paging costs).
    Words are ints: [load32] sign-extends, [store32] stores the low 32
    bits. A fault raises before any page is charged. A 32-bit access
    that straddles two pages charges only the first, and reads or
    writes the second's bytes, making it if need be. *)

val load8 : t -> int -> int
val store8 : t -> int -> int -> unit
val load32 : t -> int -> int
val store32 : t -> int -> int -> unit

(** CPU memory interface for this address space: its windows, these
    accessors, and a fetch check that charges the page before it faults
    a misaligned or out-of-range instruction, and points the code
    window at the page's translations ([Words] in a writable region).
    Every map change empties all three windows. *)
val mem : t -> Svm.Cpu.mem
