(** The OMOS address-space constraint system (paper §3.5).

    "OMOS describes an address space in terms of prioritized
    constraints. A required constraint is that no two objects may
    overlap. A highly desired constraint is that existing
    implementations be reused. Other weaker constraints, optionally
    provided by the user, may specify desired placement of the object
    (e.g., library) within the address space."

    An {!arena} records which intervals of a (shared, virtual) address
    space are occupied by which named object. {!place} answers a
    placement request by honouring, in priority order:

    - the required no-overlap constraint (never violated);
    - the caller's weak preferences ([At] / [Near] / [Within] /
      [Avoid]), tried strongest-first, each dropped if unsatisfiable;
    - finally first-fit within the arena's default region.

    The "highly desired" reuse of an existing placement is not the
    arena's: a cached image keeps its placement through the residency
    layer ([Omos.Residency.acceptable] and [reacquire]), which
    re-reserves its exact extents with {!reserve}. *)

exception No_space of string

(** A weak placement preference. *)
type pref =
  | At of int (* exactly this base address *)
  | Near of int (* as close as possible to this address *)
  | Within of int * int (* inside [lo, hi) *)
  | Avoid of int * int (* outside [lo, hi) if possible *)

let pp_pref ppf = function
  | At a -> Format.fprintf ppf "at 0x%x" a
  | Near a -> Format.fprintf ppf "near 0x%x" a
  | Within (lo, hi) -> Format.fprintf ppf "within [0x%x,0x%x)" lo hi
  | Avoid (lo, hi) -> Format.fprintf ppf "avoid [0x%x,0x%x)" lo hi

type interval = { lo : int; hi : int; owner : string }

type t = {
  mutable occupied : interval list; (* sorted by lo, non-overlapping *)
  region_lo : int; (* default allocation region *)
  region_hi : int;
}

(* the base alignment of every placement: a page *)
let page = 0x1000

let create ?(region_lo = 0x1000) ?(region_hi = 0x7FFF_F000) () : t =
  if region_lo < 0 || region_hi <= region_lo then invalid_arg "Placement.create";
  { occupied = []; region_lo; region_hi }

let intervals (t : t) : (int * int * string) list =
  List.map (fun i -> (i.lo, i.hi, i.owner)) t.occupied

(** Base alignment of every placement in this arena (callers that
    [reserve] ranges a [place] may later have to coexist with should
    align their sizes the same way). *)
let align (_ : t) : int = page

let align_up v a = (v + a - 1) / a * a

let overlaps t lo hi =
  List.find_opt (fun i -> lo < i.hi && i.lo < hi) t.occupied

(** [free t lo hi] — is [lo,hi) completely unoccupied? *)
let free (t : t) ~lo ~hi : bool = overlaps t lo hi = None

(* Insert keeping sort order. *)
let insert (t : t) (iv : interval) : unit =
  let rec go = function
    | [] -> [ iv ]
    | x :: rest -> if iv.lo < x.lo then iv :: x :: rest else x :: go rest
  in
  t.occupied <- go t.occupied

(** [reserve t ~lo ~size owner] claims an exact interval; [Error owner']
    names the conflicting occupant if any. *)
let reserve (t : t) ~lo ~size owner : (unit, string) result =
  let hi = lo + size in
  match overlaps t lo hi with
  | Some i -> Error i.owner
  | None ->
      insert t { lo; hi; owner };
      Ok ()

(** [release t ~lo] frees the interval starting at [lo]. *)
let release (t : t) ~lo : unit =
  t.occupied <- List.filter (fun i -> i.lo <> lo) t.occupied

(* Candidate base addresses adjacent to occupied intervals plus region
   start: the classic first-fit gap scan. *)
let gap_candidates (t : t) : int list =
  t.region_lo :: List.map (fun i -> align_up i.hi page) t.occupied

let fits t lo size =
  lo >= t.region_lo && lo + size <= t.region_hi && free t ~lo ~hi:(lo + size)

(* First fit at or above [from]. *)
let first_fit_from (t : t) ~from ~size : int option =
  let cands =
    List.sort_uniq compare
      (List.filter (fun c -> c >= from) (align_up from page :: gap_candidates t))
  in
  List.find_opt (fun c -> fits t c size) cands

(* Closest fit to [target] (scan candidates by distance). In addition
   to the gap starts, consider bases placed flush below each occupied
   interval — the closest position on the low side of a "wall". *)
let closest_fit (t : t) ~target ~size : int option =
  let below =
    List.map (fun i -> (i.lo - size) / page * page) t.occupied
  in
  let cands =
    List.sort_uniq compare (align_up target page :: (gap_candidates t @ below))
  in
  let ok = List.filter (fun c -> fits t c size) cands in
  match ok with
  | [] -> None
  | _ ->
      let dist c = abs (c - target) in
      Some (List.fold_left (fun best c -> if dist c < dist best then c else best)
              (List.hd ok) ok)

let try_pref (t : t) ~size = function
  | At a -> if a mod page = 0 && fits t a size then Some a else None
  | Near a -> closest_fit t ~target:a ~size
  | Within (lo, hi) ->
      Option.bind (first_fit_from t ~from:lo ~size) (fun c ->
          if c + size <= hi then Some c else None)
  | Avoid (lo, hi) -> (
      (* prefer below the avoided range, then above it *)
      match
        Option.bind (first_fit_from t ~from:t.region_lo ~size) (fun c ->
            if c + size <= lo then Some c else None)
      with
      | Some c -> Some c
      | None -> first_fit_from t ~from:(align_up hi page) ~size)

(** Outcome of a placement decision. *)
type decision = {
  base : int;
  satisfied : pref option; (* which preference was honoured, if any *)
}

let tm_placements = Telemetry.Counter.make "constraints.placements"

let place_raw (t : t) ~size ~owner ~prefs : decision =
  let size = align_up (max size 1) page in
  let sorted =
    List.map snd (List.sort (fun (p1, _) (p2, _) -> compare p2 p1) prefs)
  in
  let rec try_all = function
    | [] -> None
    | p :: rest -> (
        match try_pref t ~size p with
        | Some base -> Some (base, Some p)
        | None -> try_all rest)
  in
  let found =
    match try_all sorted with
    | Some _ as found -> found
    | None ->
        Option.map (fun b -> (b, None)) (first_fit_from t ~from:t.region_lo ~size)
  in
  match found with
  | None -> raise (No_space owner)
  | Some (base, satisfied) ->
      insert t { lo = base; hi = base + size; owner };
      { base; satisfied }

(** [place t ~size ~owner ?prefs ()] chooses a base address and
    reserves it. [prefs] are (priority, preference) pairs; higher
    priority first. Raises {!No_space} if the arena cannot fit [size]
    at all. Traced: a span per decision plus the arena-level counter. *)
let place (t : t) ~size ~owner ?(prefs = []) () : decision =
  Telemetry.with_span "constraints.place"
    ~attrs:[ ("owner", Telemetry.S owner); ("size", Telemetry.I size) ]
  @@ fun () ->
  let d = place_raw t ~size ~owner ~prefs in
  Telemetry.Counter.incr tm_placements;
  Telemetry.add_attr "base" (Telemetry.I d.base);
  d
