(** A software transactional memory for OCaml 5 realizing the paper's
    implementation model (§5).

    Four versioning strategies, matching §3's design space and the
    Manticore lineage:

    - [Lazy] (the default): TL2-style — a global version clock, reads
      validated against the transaction's read version (opacity), writes
      buffered and published at commit under per-variable versioned
      locks;
    - [Eager]: encounter-time locking with an undo log — writes lock and
      update in place, aborts roll back;
    - [Partial]: [Lazy] plus bounded partial aborts — on a validation
      failure the transaction keeps the still-valid prefix of its read
      set up to the oldest invalidated read and re-runs the closure,
      serving the retained reads from a value log (a replay-based
      rendering of Manticore's READ_SET_BOUND checkpoints; the closure
      must be deterministic given its reads, which STM code is).  An
      [or_else] whose first branch read memory and then aborted degrades
      the next partial abort to a full one;
    - [Norec]: NOrec — one global sequence lock, value-based
      revalidation whenever the global commit counter moves, and no
      per-variable ownership metadata.  Writer commits serialize;
      privatization-by-commit is safe by construction, but a [Norec]
      transaction must not run concurrently with other-mode transactions
      over the same variables (it ignores their per-variable locks).

    All order transactions with a direct dependency (the publication
    idiom needs no fence); neither orders transactions against later
    plain accesses — privatization needs {!quiesce}, the quiescence fence
    of §5.

    {b Conflicts retry automatically; user aborts do not.}  Raising an
    arbitrary exception inside a transaction aborts it and re-raises.

    How a conflicted transaction waits is a pluggable
    {!Contention.policy} (default: jittered exponential backoff; a
    retry-budget policy escalates starved transactions to a serialized
    slow path).  Commit/abort behaviour is observable through {!stats}
    (per-mode, per-reason counters and retry/latency histograms) and,
    when enabled, through the {!Trace} event ring buffers. *)

module Trace = Stm_trace
module Contention = Contention

type mode = Lazy | Eager | Partial | Norec

val mode_name : mode -> string

type tx
(** A transaction in progress.  Valid only during the [atomically]
    callback that provided it. *)

val read : tx -> Tvar.t -> int
(** Transactional read (sees the transaction's own writes). *)

val write : tx -> Tvar.t -> int -> unit

val abort : tx -> 'a
(** The paper's explicit [abort]: discard all effects, do not retry. *)

val or_else : tx -> (tx -> 'a) -> (tx -> 'a) -> 'a
(** [or_else tx f1 f2] runs [f1]; if it aborts, its effects are undone
    and [f2] runs within the same transaction (the classic composable
    alternative).  An abort in [f2] aborts the whole transaction. *)

val atomically :
  ?mode:mode ->
  ?policy:Contention.policy ->
  ?footprint:Tvar.t list ->
  (tx -> 'a) ->
  'a option
(** Run to commit, retrying on conflicts; [None] if the user aborted.

    [policy] selects the contention-management strategy for this call
    (default {!Contention.default_policy}).

    [footprint] declares the set of TVars the transaction may touch —
    any access outside it raises — and lets per-location fences
    ([quiesce ~var]) skip this transaction when the variable is not in
    the set. *)

val atomically_result :
  ?mode:mode ->
  ?policy:Contention.policy ->
  ?footprint:Tvar.t list ->
  (tx -> 'a) ->
  ('a, [ `Aborted ]) result

val quiesce : ?var:Tvar.t -> unit -> unit
(** The quiescence fence: returns once every relevant transaction in
    flight at the call has resolved, making subsequent plain accesses
    safe against pre-fence transactions (the privatization recipe of
    §5).  With [var] this is the paper's per-location fence [Qx]: only
    transactions whose declared footprint contains [var] — plus all
    transactions without a declared footprint — are waited for. *)

(** {1 Observability} *)

type conflict =
  | Validation
      (** a read, or the commit-time read-set check, saw a version newer
          than the transaction's read version (or a locked variable) *)
  | Lock  (** a lock acquisition lost to a concurrent writer *)

type mode_stats = {
  commits : int;
  validation_aborts : int;
  lock_aborts : int;
  user_aborts : int;
}

type histogram = {
  bounds : int array;
      (** inclusive upper bounds; a value [v] lands in the first bucket
          with [v <= bounds.(i)] *)
  counts : int array;  (** [Array.length bounds + 1] buckets; the last
          is the overflow bucket *)
}

val bucket : int array -> int -> int
(** [bucket bounds v] is the index of the {!histogram} bucket [v] lands
    in: the first [i] with [v <= bounds.(i)], else [Array.length bounds]
    (the overflow bucket).  The one bucket rule of every histogram the
    program records. *)

val histogram_to_json : histogram -> Tmx_json.t
(** [{"bounds": [...], "counts": [...]}], the one JSON rendering of a
    histogram ([tmx stm-bench] report runs, the serve [stats] verb). *)

type snapshot = {
  lazy_stats : mode_stats;
  eager_stats : mode_stats;
  partial_stats : mode_stats;
  norec_stats : mode_stats;
  retry_hist : histogram;  (** retries per {e committed} transaction *)
  latency_hist_ns : histogram;
      (** first-attempt-to-commit latency, nanoseconds (monotonic
          clock) *)
  quiesces : int;
  escalations : int;
      (** transactions that took the serialized slow path *)
  partial_aborts : int;
      (** partial-mode rollbacks to a read-set checkpoint that avoided a
          full abort *)
}

val stats : unit -> snapshot
(** A pure, consistent-enough view of the global counters (each cell is
    read atomically; the cells are independent). *)

val reset_stats : unit -> unit
(** Zero every counter and histogram (benchmark staging; do not call
    concurrently with transactions you intend to count). *)

val stats_snapshot : unit -> int * int * int
(** Legacy projection: total (commits, conflict aborts, user aborts)
    summed over all modes. *)

(**/**)

val clock : int Atomic.t

val attempt :
  ?footprint:int list ->
  mode ->
  (tx -> 'a) ->
  ('a, [ `Aborted | `Conflict of conflict ]) result

(**/**)
