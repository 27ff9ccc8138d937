(** Multi-domain workload driver for the runtime STM (the engine behind
    [tmx stm-bench]).

    Runs a grid of (workload × mode × contention policy) stages, each on
    fresh transactional state with the statistics reset, and reports the
    per-stage {!Stm.snapshot} alongside wall time.  Workload decisions
    come from per-worker deterministic PRNGs, so a configuration always
    issues the same transaction mix. *)

type workload = Read_heavy | Write_heavy | Long_read | Privatization_heavy

val workload_name : workload -> string
val all_workloads : workload list

type config = {
  domains : int;  (** worker domains per stage *)
  iters : int;  (** transactions per domain per stage *)
  modes : Stm.mode list;
  policies : (string * Contention.policy) list;
  workloads : workload list;
}

val default_policies : (string * Contention.policy) list
(** spin, jittered, budget8. *)

val default_config : config
(** 4 domains, 1000 iters, all four modes, all policies, all
    workloads. *)

type result = {
  workload : string;
  mode : string;
  policy : string;
  domains : int;
  ops : int;  (** transactions issued (committed or user-aborted) *)
  seconds : float;
  snapshot : Stm.snapshot;
}

val run : config -> result list
val pp_result : Format.formatter -> result -> unit

val abort_rate : Stm.snapshot -> float
(** Full conflict aborts per attempt outcome,
    [(validation + lock) / (commits + validation + lock)]; partial-mode
    checkpoint rollbacks do not count (avoiding the full abort is the
    mode's point). *)

type fence_cost = {
  workload : string;
  mode : string;
  policy : string;
  fences : int;  (** quiescence fences executed by the fenced run *)
  fenced_per_sec : float;
  unfenced_per_sec : float;
}

val fence_overhead : fence_cost -> float
(** [1 - fenced/unfenced] commit throughput — the price of the §5
    quiescence fence, the edit [tmx repair] inserts. *)

val paired :
  reps:int -> rate:('a -> float) -> baseline:'a -> 'a list -> float * float list
(** [paired ~reps ~rate ~baseline variants] runs [rate baseline] once as
    a discarded warm-up, then [reps] (at least 1) rounds of [rate
    baseline] followed by [rate v] for each variant in order.  Returns
    the best baseline rate and, per variant, the median of its
    per-round variant/baseline ratios: the measurement both
    {!repair_cost} and {!arch_fence_cost} make. *)

val repair_cost : config -> fence_cost list
(** Run the privatization workload with and without its quiescence
    fence for every (mode, policy) of [config], {!paired} with the
    unfenced program as the baseline — empty when the config omits
    {!Privatization_heavy}. *)

val pp_fence_cost : Format.formatter -> fence_cost -> unit

type arch_cost = {
  arch : string;  (** ["x86tso"], ["armv8"] or ["rc11"] *)
  workload : string;
  mode : string;
  fenced_per_sec : float;
  baseline_per_sec : float;
}
(** The runtime price of the §6 per-architecture fence insertions,
    emulated with same-ordering-class atomics on an uncontended
    per-worker cell: nothing for x86-TSO (zero inserted fences), an
    atomic load per transactional read for ARMv8's [DMB LD], an atomic
    RMW for C++'s [atomic_thread_fence(seq_cst)]. *)

val arch_penalty : arch_cost -> float
(** [1 - fenced/baseline] commit throughput. *)

val arch_fence_cost : config -> arch_cost list
(** One entry per architecture on the read-mix microworkload: each
    fence variant {!paired} with the unfenced run (x86-TSO inserts no
    fence, so its penalty is reported as 0), using the first mode and
    policy of [config]. *)

val pp_arch_cost : Format.formatter -> arch_cost -> unit

val arch_json : config -> arch_cost list -> string
(** The [tmx stm-bench --arch-out] document
    ([experiment: "arch_fence_penalty"]; schema in EXPERIMENTS.md). *)

val write_arch_json : file:string -> config -> arch_cost list -> unit

val to_json : ?repair_cost:fence_cost list -> config -> result list -> string
(** The [tmx stm-bench -o] document (schema in EXPERIMENTS.md); the
    [repair_cost] entries land in a top-level ["repair_cost"] array. *)

val write_json :
  ?repair_cost:fence_cost list -> file:string -> config -> result list -> unit
