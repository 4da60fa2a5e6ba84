(** A deterministic cooperative scheduler for the server's staged
    request pipeline.

    Tasks are plain thunks queued on a run queue; {!step} runs them one
    at a time on the caller's (simulated) time line — there is no
    preemption and no wall-clock anywhere, so a run is exactly as
    deterministic as the tasks themselves. A task that wants to
    continue later simply {!spawn}s its continuation. Tasks carry no
    label and no timestamp: what a task's owner waited on is the
    owner's to record (the server keeps each request's timeline).

    Two orders are available:

    - seed [0] (the default): strict FIFO — tasks run in spawn order.
    - seed [<> 0]: a seeded xorshift32 picks among the ready tasks, so
      tests can exercise interleavings other than submission order
      while staying byte-reproducible for a given seed.

    Batching barriers belong to the caller: the server's place stage
    parks requests outside the scheduler, and the server's pump loop
    (behind [Server.drain] and [Server.await]) flushes them as one
    batch whenever {!step} finds nothing ready. *)

type t

(** [create ()] makes an empty FIFO scheduler (seed 0). *)
val create : unit -> t

(** Reseed a scheduler (takes effect from the next pick): [0] means
    FIFO order; any other seed shuffles deterministically. *)
val set_seed : t -> int -> unit

(** Enqueue a task. *)
val spawn : t -> (unit -> unit) -> unit

(** Run one ready task. Returns [false] when nothing ran — the run
    queue is empty. *)
val step : t -> bool

(** Is a {!step} currently executing a task? *)
val running : t -> bool
