(** Per-process virtual address spaces with demand paging.

    A space is a set of non-overlapping regions. Read-only regions can
    be {e shared}: their backing bytes and physical frames belong to a
    cached image and are referenced, not copied — this is where OMOS's
    "same physical memory" clients come from. Writable regions are
    private: each keeps its initial bytes by reference and makes a
    buffer for a page the first time anything reads or writes it, so
    the host pays for the pages a process uses, as the simulated
    machine does. Every region is demand-paged: the first touch of
    each page charges a soft fault (resident backing) or a disk read
    (first-ever load of a segment that is still "on disk").

    The CPU runs code straight from the backing bytes. It holds three
    windows, one for fetches and two for loads and stores, each onto a
    single page that is already touched, so it serves most accesses
    without calling in here. A miss comes here, first tries the region
    the previous miss of its kind hit, pays any first touch, and
    re-points the window at the page it touched; a data miss first
    moves the page its window served into the second data window. *)

exception Fault of string

(* Residency of the segment's source, page by page, SHARED by every
   process mapping the segment: the first process to touch a page pays
   the disk read; everyone after that (and every later touch) pays only
   a soft fault. An empty array means "always resident" (anonymous
   memory, already-cached segments). *)
type backing_state = { resident : bool array }

type region = {
  lo : int;
  hi : int; (* exclusive *)
  (* a shared region's segment; a private region's initial bytes, zero
     beyond them, referenced and never written *)
  bytes : Bytes.t;
  (* a private region's pages, each made at its first access and empty
     until then; none for a shared region *)
  pages : Bytes.t array;
  writable : bool; (* private *)
  label : string;
  touched : bool array; (* per-page demand accounting *)
  backing : backing_state; (* residency of the segment's source *)
  frames : Phys.frame_group;
  (* extra user-time charge on first touch of each page: models
     deferred (page-wise lazy) relocation work a traditional dynamic
     loader performs in the client, per process *)
  touch_user_cost : float;
  (* the segment's translations, for a shared region; a writable
     region's code runs word by word *)
  translations : Svm.Cpu.translations option;
}

type stats = {
  mutable soft_faults : int;
  mutable disk_faults : int;
}

type t = {
  mutable regions : region list; (* sorted by lo *)
  (* The region the last fetch miss and the last data miss hit, and the
     CPU's windows. Any change to the map resets all five. *)
  mutable code : region;
  mutable data : region;
  code_window : Svm.Cpu.window;
  data_window : Svm.Cpu.window;
  data2_window : Svm.Cpu.window;
  phys : Phys.t;
  clock : Clock.t;
  cost : Cost.t;
  stats : stats;
  page_size : int;
}

(* Contains no address, so a lookup through it always falls back to
   the region list. *)
let no_region : region =
  {
    lo = 0;
    hi = 0;
    bytes = Bytes.empty;
    pages = [||];
    writable = false;
    label = "";
    touched = [||];
    backing = { resident = [||] };
    frames = { Phys.pages = 0; refs = 0 };
    touch_user_cost = 0.0;
    translations = None;
  }

let empty_window () : Svm.Cpu.window =
  { Svm.Cpu.bytes = Bytes.empty; base = 0; lo = 0; hi = 0; writable = false; page = Words }

(* Serves no address, so the next access through [w] misses. *)
let clear (w : Svm.Cpu.window) =
  w.bytes <- Bytes.empty;
  w.lo <- 0;
  w.hi <- 0;
  w.page <- Words

let create ~(phys : Phys.t) ~(clock : Clock.t) ~(cost : Cost.t) () : t =
  {
    regions = [];
    code = no_region;
    data = no_region;
    code_window = empty_window ();
    data_window = empty_window ();
    data2_window = empty_window ();
    phys;
    clock;
    cost;
    stats = { soft_faults = 0; disk_faults = 0 };
    page_size = Cost.page_size;
  }

let regions (t : t) = t.regions

(* Always-resident backing for anonymous regions. *)
let resident_backing () : backing_state = { resident = [||] }

(** Backing that must be demand-loaded from disk, for a segment of
    [bytes] bytes. *)
let disk_backing ~(bytes : int) : backing_state =
  { resident = Array.make (max 1 ((bytes + Cost.page_size - 1) / Cost.page_size)) false }

let check_overlap (t : t) lo hi label =
  List.iter
    (fun r ->
      if lo < r.hi && r.lo < hi then
        raise
          (Fault
             (Printf.sprintf "mapping %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)" label lo
                hi r.label r.lo r.hi)))
    t.regions

let set_regions (t : t) (regions : region list) =
  t.regions <- regions;
  t.code <- no_region;
  t.data <- no_region;
  clear t.code_window;
  clear t.data_window;
  clear t.data2_window

let insert (t : t) (r : region) =
  let rec go = function
    | [] -> [ r ]
    | x :: rest -> if r.lo < x.lo then r :: x :: rest else x :: go rest
  in
  set_regions t (go t.regions)

(** [map_shared t ~vaddr ~bytes ~code ~frames ~backing ~label] maps a
    read-only shared segment: backing bytes, translations and frames are
    referenced. The caller (the server/kernel) owns [code], [frames]
    and [backing]. *)
let map_shared (t : t) ~(vaddr : int) ~(bytes : Bytes.t) ~(code : Svm.Cpu.translations)
    ~(frames : Phys.frame_group) ~(backing : backing_state)
    ?(touch_user_cost = 0.0) ~(label : string) () : unit =
  if not (Svm.Cpu.translates code bytes) then
    invalid_arg ("Addr_space.map_shared: translations of other bytes for " ^ label);
  let hi = vaddr + Bytes.length bytes in
  check_overlap t vaddr hi label;
  Phys.addref t.phys frames;
  let npages = max 1 ((Bytes.length bytes + t.page_size - 1) / t.page_size) in
  insert t
    {
      lo = vaddr;
      hi;
      bytes;
      pages = [||];
      writable = false;
      label;
      touched = Array.make npages false;
      backing;
      frames;
      touch_user_cost;
      translations = Some code;
    }

(** [map_private t ~vaddr ~init ~size ~label ()] maps a private
    writable region, initialized from [init] (zero-filled beyond it),
    which it references: [init] must not change while it is mapped.
    [backing] tracks residency of the init content's source; anonymous
    regions omit it. *)
let map_private (t : t) ~(vaddr : int) ?(init = Bytes.empty) ?backing
    ?(touch_user_cost = 0.0) ~(size : int) ~(label : string) () : unit =
  let size = max size (Bytes.length init) in
  let hi = vaddr + size in
  check_overlap t vaddr hi label;
  let npages = max 1 ((size + t.page_size - 1) / t.page_size) in
  insert t
    {
      lo = vaddr;
      hi;
      bytes = init;
      pages = Array.make npages Bytes.empty;
      writable = true;
      label;
      touched = Array.make npages false;
      backing = (match backing with Some b -> b | None -> resident_backing ());
      frames = Phys.alloc t.phys ~bytes:size;
      touch_user_cost;
      translations = None;
    }

(** Release all mappings (process teardown). *)
let destroy (t : t) : unit =
  List.iter (fun r -> Phys.decref t.phys r.frames) t.regions;
  set_regions t []

(** [unmap t ~lo] removes the region starting at [lo] (dynamic
    unlinking). Raises {!Fault} if no region starts there. *)
let unmap (t : t) ~(lo : int) : unit =
  match List.find_opt (fun r -> r.lo = lo) t.regions with
  | Some r ->
      Phys.decref t.phys r.frames;
      set_regions t (List.filter (fun r' -> r'.lo <> lo) t.regions)
  | None -> raise (Fault (Printf.sprintf "unmap: no region at 0x%x" lo))

let rec find_region (addr : int) : region list -> region = function
  | [] -> raise (Fault (Printf.sprintf "unmapped address 0x%x" addr))
  | r :: rest -> if addr >= r.lo && addr < r.hi then r else find_region addr rest

let[@inline] data_region (t : t) (addr : int) : region =
  let r = t.data in
  if addr >= r.lo && addr < r.hi then r
  else begin
    let r = find_region addr t.regions in
    t.data <- r;
    r
  end

let[@inline] code_region (t : t) (addr : int) : region =
  let r = t.code in
  if addr >= r.lo && addr < r.hi then r
  else begin
    let r = find_region addr t.regions in
    t.code <- r;
    r
  end

(* [Cost.page_size] as a shift, so that page indices need no division. *)
let page_shift = 12
let page_mask = (1 lsl page_shift) - 1
let () = assert (Cost.page_size = 1 lsl page_shift)

(* Private page [page] of [r], made at its first access: zeros, with
   whatever part of the initial bytes falls in it. A made page is never
   empty, since the region runs past its start. *)
let page_bytes (r : region) (page : int) : Bytes.t =
  let b = r.pages.(page) in
  if Bytes.length b > 0 then b
  else begin
    let off = page lsl page_shift in
    let b = Bytes.make (min Cost.page_size (r.hi - r.lo - off)) '\000' in
    let init = Bytes.length r.bytes - off in
    if init > 0 then Bytes.blit r.bytes off b 0 (min init (Bytes.length b));
    r.pages.(page) <- b;
    b
  end

(** A region's bytes as they are now: a fresh copy of a private
    region's, the segment itself for a shared region (never to be
    written). *)
let contents (r : region) : Bytes.t =
  if not r.writable then r.bytes
  else begin
    let b = Bytes.make (r.hi - r.lo) '\000' in
    Bytes.blit r.bytes 0 b 0 (Bytes.length r.bytes);
    Array.iteri (fun i p -> Bytes.blit p 0 b (i lsl page_shift) (Bytes.length p)) r.pages;
    b
  end

(* Demand-paging charge on first touch of a page. *)
let first_touch (t : t) (r : region) (page : int) : unit =
  r.touched.(page) <- true;
  if r.touch_user_cost > 0.0 then Clock.charge_user t.clock r.touch_user_cost;
  let on_disk =
    page < Array.length r.backing.resident && not r.backing.resident.(page)
  in
  if on_disk then begin
    r.backing.resident.(page) <- true;
    t.stats.disk_faults <- t.stats.disk_faults + 1;
    Clock.charge_system t.clock t.cost.Cost.soft_fault;
    Clock.charge_io t.clock t.cost.Cost.disk_read_page
  end
  else begin
    t.stats.soft_faults <- t.stats.soft_faults + 1;
    Clock.charge_system t.clock t.cost.Cost.soft_fault
  end

(* Charge the first touch of the page holding [off], then point [w] at
   that page, clipped to the region: every address it serves is now in
   a touched page of a mapped region. Over a private region the window
   holds the page's own buffer. *)
let touch (t : t) (w : Svm.Cpu.window) (r : region) (off : int) : unit =
  let page = off lsr page_shift in
  if not r.touched.(page) then first_touch t r page;
  let lo = r.lo + (page lsl page_shift) in
  if r.writable then begin
    w.bytes <- page_bytes r page;
    w.base <- lo
  end
  else begin
    w.bytes <- r.bytes;
    w.base <- r.lo
  end;
  w.lo <- lo;
  w.hi <- min r.hi (lo + t.page_size);
  w.writable <- r.writable

(* [touch] for a data access: the page the data window served moves
   into the second data window first. *)
let touch_data (t : t) (r : region) (off : int) : unit =
  let d = t.data_window and d2 = t.data2_window in
  d2.bytes <- d.bytes;
  d2.base <- d.base;
  d2.lo <- d.lo;
  d2.hi <- d.hi;
  d2.writable <- d.writable;
  touch t d r off

(** Pages touched in regions whose label satisfies [pred] — the working
    set measure used by the reordering experiment. *)
let touched_pages (t : t) ?(pred = fun _ -> true) () : int =
  List.fold_left
    (fun acc r ->
      if pred r.label then
        acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 r.touched
      else acc)
    0 t.regions

let fault_stats (t : t) : int * int = (t.stats.soft_faults, t.stats.disk_faults)

(* -- accessors wired into the CPU -------------------------------------- *)

(* The CPU calls these only when neither data window serves the
   access; each leaves the data window on the page it touched. A 32-bit
   access that runs past that page's end reads or writes the next page
   too, making it if need be but charging nothing for it. *)

let byte (r : region) (off : int) : int =
  if r.writable then Bytes.get_uint8 (page_bytes r (off lsr page_shift)) (off land page_mask)
  else Bytes.get_uint8 r.bytes off

let set_byte (r : region) (off : int) (v : int) : unit =
  Bytes.set_uint8 (page_bytes r (off lsr page_shift)) (off land page_mask) v

let load8 (t : t) (addr : int) : int =
  let r = data_region t addr in
  touch_data t r (addr - r.lo);
  let d = t.data_window in
  Bytes.get_uint8 d.bytes (addr - d.base)

let store8 (t : t) (addr : int) (v : int) : unit =
  let r = data_region t addr in
  if not r.writable then
    raise (Fault (Printf.sprintf "write to read-only %s at 0x%x" r.label addr));
  touch_data t r (addr - r.lo);
  let d = t.data_window in
  Bytes.set_uint8 d.bytes (addr - d.base) (v land 0xff)

let load32 (t : t) (addr : int) : int =
  let r = data_region t addr in
  let off = addr - r.lo in
  if off + 4 > r.hi - r.lo then
    raise (Fault (Printf.sprintf "load32 spans end of %s at 0x%x" r.label addr));
  touch_data t r off;
  let d = t.data_window in
  if addr + 4 <= d.hi then Int32.to_int (Bytes.get_int32_le d.bytes (addr - d.base))
  else
    Int32.to_int
      (Int32.of_int
         (byte r off lor (byte r (off + 1) lsl 8) lor (byte r (off + 2) lsl 16)
         lor (byte r (off + 3) lsl 24)))

let store32 (t : t) (addr : int) (v : int) : unit =
  let r = data_region t addr in
  if not r.writable then
    raise (Fault (Printf.sprintf "write to read-only %s at 0x%x" r.label addr));
  let off = addr - r.lo in
  if off + 4 > r.hi - r.lo then
    raise (Fault (Printf.sprintf "store32 spans end of %s at 0x%x" r.label addr));
  touch_data t r off;
  let d = t.data_window in
  if addr + 4 <= d.hi then Bytes.set_int32_le d.bytes (addr - d.base) (Int32.of_int v)
  else
    for i = 0 to 3 do
      set_byte r (off + i) ((v lsr (8 * i)) land 0xff)
    done

(* A fetch charges its page before checking alignment, and hands the
   window that page's translations. *)
let fill_code (t : t) (addr : int) : unit =
  let r = code_region t addr in
  let off = addr - r.lo in
  touch t t.code_window r off;
  t.code_window.page <-
    (match r.translations with
    | Some tr -> Svm.Cpu.page tr (off lsr page_shift)
    | None -> Words);
  if off land (Svm.Isa.width - 1) <> 0 || off + Svm.Isa.width > r.hi - r.lo then
    raise (Fault (Printf.sprintf "misaligned or out-of-range fetch at 0x%x" addr))

(** CPU memory interface for this address space. *)
let mem (t : t) : Svm.Cpu.mem =
  {
    Svm.Cpu.code = t.code_window;
    data = t.data_window;
    data2 = t.data2_window;
    (* closures that call the accessors directly: partial applications
       would add a currying hop to every miss *)
    fill_code = (fun a -> fill_code t a);
    load8 = (fun a -> load8 t a);
    store8 = (fun a v -> store8 t a v);
    load32 = (fun a -> load32 t a);
    store32 = (fun a v -> store32 t a v);
  }
