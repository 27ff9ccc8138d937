(** A small work-stealing domain pool (OCaml 5 domains).

    [run_tasks ~jobs ~tasks f] evaluates [f i] for every
    [i ∈ [0, tasks)] on up to [jobs] domains (the caller's included)
    and returns the results indexed by task.  Task claiming is a shared
    fetch-and-add cursor, so domains steal whatever task is next the
    moment they go idle; result slots are per-task, so the output array
    is independent of domain scheduling.

    [jobs] is clamped to at least 1; with [jobs = 1] (or a single task)
    everything runs in the calling domain and no domain is spawned.
    Spawned domains are additionally capped at [available_cores () - 1]:
    oversubscribing a small machine only adds scheduler and minor-heap
    contention, and the calling domain drains the queue regardless, so
    results are unchanged.  A negative [tasks] raises
    [Invalid_argument].

    If a task raises, the pool drains (no further tasks start) and the
    first exception is re-raised in the caller with the raising task's
    backtrace — through the same capture-and-reraise path whatever
    [jobs] was, so error behaviour does not depend on parallelism. *)

val run_tasks : jobs:int -> tasks:int -> (int -> 'a) -> 'a array

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()], exposed for [--jobs 0]-style
    "use every core" defaults. *)

val spawned : unit -> int
(** How many domains {!run_tasks} has spawned since the program started,
    over every call.  Read-only: a test reads it before and after a run
    to tell whether the run reached the pool or took a sequential path. *)
