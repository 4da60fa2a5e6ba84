(** The simulated clock: accumulates user, system, and I/O time in
    microseconds, mirroring how the paper's tables split measurements
    (User / System / Elapsed). *)

type t = { mutable user : float; mutable system : float; mutable io : float }

type snapshot = { s_user : float; s_system : float; s_io : float }

let create () : t = { user = 0.0; system = 0.0; io = 0.0 }

(* Every charge also flows to the telemetry profiler, which attributes
   it to the open span stack (no-op unless profiling is enabled) — the
   single funnel that makes [ofe profile]'s folded stacks sum to
   exactly what the cost model charged. *)
let charge_user (c : t) (us : float) =
  c.user <- c.user +. us;
  Telemetry.Profile.charge Telemetry.Profile.User us

let charge_system (c : t) (us : float) =
  c.system <- c.system +. us;
  Telemetry.Profile.charge Telemetry.Profile.System us

let charge_io (c : t) (us : float) =
  c.io <- c.io +. us;
  Telemetry.Profile.charge Telemetry.Profile.Io us

(** Elapsed time: everything, including I/O waits. *)
let elapsed (c : t) : float = c.user +. c.system +. c.io

let snapshot (c : t) : snapshot = { s_user = c.user; s_system = c.system; s_io = c.io }

(** Time accumulated since [snap], as (user, system, elapsed). *)
let since (c : t) (snap : snapshot) : float * float * float =
  let u = c.user -. snap.s_user in
  let s = c.system -. snap.s_system in
  let io = c.io -. snap.s_io in
  (u, s, u +. s +. io)

let pp ppf (c : t) =
  Format.fprintf ppf "user=%.0fus system=%.0fus io=%.0fus elapsed=%.0fus" c.user
    c.system c.io (elapsed c)
