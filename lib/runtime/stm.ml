(* A software transactional memory for OCaml 5 realizing the paper's
   implementation model (§5).

   Four versioning strategies, matching §3's design-space discussion and
   the Manticore lineage (SNIPPETS.md):

   - [Lazy]: TL2-style.  A global version clock; reads validate against
     the transaction's read version (giving opacity); writes are buffered
     and published at commit under per-variable versioned locks.
   - [Eager]: encounter-time locking with an undo log.  Writes lock the
     variable and update in place; aborts roll back.
   - [Partial]: [Lazy] plus partial aborts.  Every versioned read logs
     the value it returned; when validation finds the read set invalid,
     the transaction keeps the still-valid prefix up to the oldest
     invalidated read (clamped to a READ_SET_BOUND-style budget) and
     re-runs the closure, serving the retained reads from the value log
     instead of memory.  OCaml 5's one-shot continuations rule out
     Manticore's captured-continuation checkpoints, so the re-run *is*
     the checkpoint: the closure is deterministic given its read values,
     hence replaying the recorded prefix values reproduces the original
     prefix execution exactly, and only the suffix touches memory again.
     The one construct that breaks replay determinism is an [or_else]
     whose first branch made memory reads and then aborted (those reads
     influenced control flow but left the read set); such transactions
     fall back to a full abort.
   - [Norec]: a single global sequence lock and value-based validation —
     no per-variable ownership metadata is consulted at all.  Writer
     commits serialize on the counter (odd = write-back in flight);
     in-flight transactions revalidate their read set by value whenever
     the counter moved, which gives opacity without per-read version
     checks.  NOrec transactions must not run concurrently with
     lazy/eager/partial transactions over the same variables: they
     ignore the per-variable locks the other modes rely on.

   All four order transactions with a direct dependency (the publication
   idiom) by construction — a reader validates against the writer's
   commit — but neither orders transactions against later plain accesses
   (the privatization idiom): that requires [quiesce], the quiescence
   fence of §5, implemented as an RCU-style grace period over the
   active-transaction registry.

   Around the core protocol sit three operational layers:

   - contention management ([Contention], pluggable per call): how a
     conflicted transaction waits before retrying, including a
     retry-budget policy that escalates starved transactions to a
     serialized slow path;
   - statistics: per-mode commit/abort counters split by abort reason,
     plus retry-count and commit-latency histograms, all read through
     pure snapshots ([stats]); the legacy three-counter
     [stats_snapshot] is kept as a projection;
   - tracing ([Stm_trace], off by default): per-domain ring buffers of
     structured begin/abort/commit/quiesce events. *)

module Trace = Stm_trace
module Contention = Contention

type mode = Lazy | Eager | Partial | Norec

let mode_name = function
  | Lazy -> "lazy"
  | Eager -> "eager"
  | Partial -> "partial"
  | Norec -> "norec"

(* why an optimistic attempt failed *)
type conflict =
  | Validation (* a read (or the commit-time read-set check) saw a torn version *)
  | Lock (* a lock acquisition lost to a concurrent writer *)

exception Retry_conflict of conflict
exception User_abort

exception Partial_restart of int
(* internal to partial mode: re-run the closure keeping the oldest [p]
   read-set entries and serving them from the value log *)

let clock = Atomic.make 0

(* NOrec's global commit counter / sequence lock: even = free, odd = a
   writer's commit write-back is in flight *)
let norec_seq = Atomic.make 0

(* --- statistics ----------------------------------------------------- *)

(* counters are per mode (index 0 = Lazy, 1 = Eager, 2 = Partial,
   3 = Norec) and, for aborts, per reason; histograms are global.
   Everything is an atomic cell so [stats] is a pure read. *)

let mode_index = function Lazy -> 0 | Eager -> 1 | Partial -> 2 | Norec -> 3
let n_modes = 4

let acell_array n = Array.init n (fun _ -> Atomic.make 0)

let commit_counts = acell_array n_modes
let validation_counts = acell_array n_modes
let lock_counts = acell_array n_modes
let user_abort_counts = acell_array n_modes
let quiesce_count = Atomic.make 0
let escalation_count = Atomic.make 0
let partial_abort_count = Atomic.make 0

(* histogram buckets: value v lands in the first bucket with
   v <= bounds.(i); the extra last bucket is the overflow *)
let retry_bounds = [| 0; 1; 2; 4; 8; 16; 32 |]
let latency_bounds_ns = [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]
let retry_counts = acell_array (Array.length retry_bounds + 1)
let latency_counts = acell_array (Array.length latency_bounds_ns + 1)

let bucket bounds v =
  let i = ref 0 in
  while !i < Array.length bounds && v > bounds.(!i) do
    incr i
  done;
  !i

let observe bounds counts v = Atomic.incr counts.(bucket bounds v)

type mode_stats = {
  commits : int;
  validation_aborts : int;
  lock_aborts : int;
  user_aborts : int;
}

type histogram = { bounds : int array; counts : int array }

type snapshot = {
  lazy_stats : mode_stats;
  eager_stats : mode_stats;
  partial_stats : mode_stats;
  norec_stats : mode_stats;
  retry_hist : histogram; (* retries per committed transaction *)
  latency_hist_ns : histogram; (* first-attempt-to-commit latency *)
  quiesces : int;
  escalations : int; (* transactions that took the serialized slow path *)
  partial_aborts : int; (* checkpoint rollbacks that avoided a full abort *)
}

let stats () =
  let mode_stats i =
    {
      commits = Atomic.get commit_counts.(i);
      validation_aborts = Atomic.get validation_counts.(i);
      lock_aborts = Atomic.get lock_counts.(i);
      user_aborts = Atomic.get user_abort_counts.(i);
    }
  in
  let hist bounds counts =
    { bounds = Array.copy bounds; counts = Array.map Atomic.get counts }
  in
  {
    lazy_stats = mode_stats 0;
    eager_stats = mode_stats 1;
    partial_stats = mode_stats 2;
    norec_stats = mode_stats 3;
    retry_hist = hist retry_bounds retry_counts;
    latency_hist_ns = hist latency_bounds_ns latency_counts;
    quiesces = Atomic.get quiesce_count;
    escalations = Atomic.get escalation_count;
    partial_aborts = Atomic.get partial_abort_count;
  }

let reset_stats () =
  let zero = Array.iter (fun c -> Atomic.set c 0) in
  zero commit_counts;
  zero validation_counts;
  zero lock_counts;
  zero user_abort_counts;
  zero retry_counts;
  zero latency_counts;
  Atomic.set quiesce_count 0;
  Atomic.set escalation_count 0;
  Atomic.set partial_abort_count 0

(* the legacy triple (commits, conflicts, user aborts), a projection of
   the per-mode counters so existing callers keep working unchanged *)
let stats_snapshot () =
  let s = stats () in
  let total f =
    f s.lazy_stats + f s.eager_stats + f s.partial_stats + f s.norec_stats
  in
  ( total (fun m -> m.commits),
    total (fun m -> m.validation_aborts + m.lock_aborts),
    total (fun m -> m.user_aborts) )

let histogram_to_json h =
  let ints a = Tmx_json.Arr (Array.to_list (Array.map Tmx_json.int a)) in
  Tmx_json.Obj [ ("bounds", ints h.bounds); ("counts", ints h.counts) ]

(* --- transactions ---------------------------------------------------- *)

type tx = {
  mode : mode;
  mutable rv : int;
      (* read version (lazy/eager/partial: global clock sample, extended
         on revalidation in partial mode) or, in norec mode, the global
         sequence value the read set was last validated at *)
  footprint : int list option; (* declared TVar ids, for selective fences *)
  mutable reads : (Tvar.t * int) list;
      (* read set, newest first.  lazy/eager/partial: variable and
         observed VERSION; norec: variable and observed VALUE (no
         per-variable metadata is consulted) *)
  mutable writes : (Tvar.t * int) list; (* lazy/partial/norec write buffer *)
  mutable undo : (Tvar.t * int * int option) list;
      (* eager: var, overwritten value, and — on the first write to the
         variable, which also takes its lock — the pre-lock version.
         Every write is logged so [or_else] can roll back to a branch
         point. *)
  mutable vals : int list;
      (* partial: value returned by each versioned read, newest first,
         aligned with [reads] *)
  mutable replay : int list;
      (* partial: after a partial abort, the retained prefix's values,
         oldest first; versioned reads are served from here until the
         re-run catches up with where it rolled back to *)
  mutable unreplayable : bool;
      (* partial: an [or_else] discarded memory reads of an aborted
         first branch — the value log no longer determines the re-run's
         control flow, so a partial abort must degrade to a full one *)
}

(* partial mode: the READ_SET_BOUND analog — a rollback never keeps more
   than this many reads — and the per-attempt partial-abort budget
   before degrading to a full abort *)
let partial_read_set_bound = 64
let max_partial_restarts = 8

let abort _tx = raise User_abort

(* a transaction that declared a footprint must stay inside it: a stray
   access would defeat selective quiescence silently *)
let check_footprint tx v =
  match tx.footprint with
  | Some ids when not (List.mem (Tvar.id v) ids) ->
      invalid_arg
        (Fmt.str "Stm: access to tvar#%d outside the declared footprint" (Tvar.id v))
  | _ -> ()

let eager_owns tx v = List.exists (fun (u, _, _) -> u == v) tx.undo

let validation_fail v =
  Stm_trace.record Stm_trace.Read_validate_fail ~detail:(Tvar.id v) ();
  raise (Retry_conflict Validation)

let lock_fail v =
  Stm_trace.record Stm_trace.Lock_fail ~detail:(Tvar.id v) ();
  raise (Retry_conflict Lock)

let read_versioned tx v =
  let s1 = Tvar.version_word v in
  if Tvar.locked s1 || s1 > tx.rv then validation_fail v;
  let x = Tvar.unsafe_read v in
  let s2 = Tvar.version_word v in
  if s1 <> s2 then validation_fail v;
  tx.reads <- (v, s1) :: tx.reads;
  x

(* -- partial mode ------------------------------------------------------ *)

let rec list_drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: t -> list_drop (k - 1) t

(* Timestamp extension with partial-abort fallout: sample the clock,
   revalidate the whole read set oldest-first; if it holds, move rv
   forward; if not, roll back to the oldest invalidated read (a full
   abort when that is read 0, or when replay can no longer reproduce the
   prefix). *)
let partial_extend tx =
  let t = Atomic.get clock in
  let rec oldest_invalid j = function
    | [] -> None
    | (v, s1) :: older ->
        let w = Tvar.version_word v in
        if Tvar.locked w || w <> s1 then Some j else oldest_invalid (j + 1) older
  in
  match oldest_invalid 0 (List.rev tx.reads) with
  | None -> tx.rv <- t
  | Some j ->
      Stm_trace.record Stm_trace.Read_validate_fail ();
      if j = 0 || tx.unreplayable then raise (Retry_conflict Validation)
      else raise (Partial_restart (min j partial_read_set_bound))

let rec partial_read_versioned tx v =
  let s1 = Tvar.version_word v in
  if Tvar.locked s1 then lock_fail v
  else if s1 > tx.rv then begin
    (* a fresh read past rv is not a conflict yet: extend if the read
       set still validates, partially abort otherwise *)
    partial_extend tx;
    partial_read_versioned tx v
  end
  else begin
    let x = Tvar.unsafe_read v in
    let s2 = Tvar.version_word v in
    if s1 <> s2 then begin
      partial_extend tx;
      partial_read_versioned tx v
    end
    else begin
      tx.reads <- (v, s1) :: tx.reads;
      tx.vals <- x :: tx.vals;
      x
    end
  end

let partial_read tx v =
  match List.find_opt (fun (u, _) -> u == v) tx.writes with
  | Some (_, x) -> x
  | None -> (
      match tx.replay with
      | x :: rest ->
          (* re-running the prefix after a partial abort: the read-set
             entry for this read is already retained; serve the recorded
             value so the prefix replays deterministically *)
          tx.replay <- rest;
          x
      | [] -> partial_read_versioned tx v)

(* -- norec mode -------------------------------------------------------- *)

(* wait until no writer holds the sequence lock; returns the (even)
   counter value *)
let rec norec_sample () =
  let s = Atomic.get norec_seq in
  if s land 1 = 1 then begin
    Domain.cpu_relax ();
    norec_sample ()
  end
  else s

(* the counter moved: revalidate every read by value against a stable
   (even, unchanged) counter window, then adopt that window *)
let rec norec_extend tx =
  let s = norec_sample () in
  let ok = List.for_all (fun (v, x) -> Tvar.unsafe_read v = x) tx.reads in
  if not ok then begin
    Stm_trace.record Stm_trace.Read_validate_fail ();
    raise (Retry_conflict Validation)
  end;
  if Atomic.get norec_seq <> s then norec_extend tx else tx.rv <- s

let norec_read tx v =
  match List.find_opt (fun (u, _) -> u == v) tx.writes with
  | Some (_, x) -> x
  | None ->
      let rec go () =
        if Atomic.get norec_seq <> tx.rv then norec_extend tx;
        let x = Tvar.unsafe_read v in
        (* the counter must not have moved across the read, else the
           value may belong to a half-published write set *)
        if Atomic.get norec_seq <> tx.rv then go ()
        else begin
          tx.reads <- (v, x) :: tx.reads;
          x
        end
      in
      go ()

let read tx v =
  check_footprint tx v;
  match tx.mode with
  | Lazy -> (
      match List.find_opt (fun (u, _) -> u == v) tx.writes with
      | Some (_, x) -> x
      | None -> read_versioned tx v)
  | Partial -> partial_read tx v
  | Norec -> norec_read tx v
  | Eager ->
      if eager_owns tx v then Tvar.unsafe_read v else read_versioned tx v

let write tx v x =
  check_footprint tx v;
  match tx.mode with
  | Lazy | Partial | Norec ->
      tx.writes <- (v, x) :: List.filter (fun (u, _) -> u != v) tx.writes
  | Eager ->
      if eager_owns tx v then begin
        tx.undo <- (v, Tvar.unsafe_read v, None) :: tx.undo;
        Tvar.unsafe_write v x
      end
      else begin
        match Tvar.try_lock v with
        | None -> lock_fail v
        | Some prev ->
            tx.undo <- (v, Tvar.unsafe_read v, Some prev) :: tx.undo;
            Tvar.unsafe_write v x
      end

(* roll the undo log back (newest first) down to [until] (an earlier
   value of [tx.undo], physically); locks are released at their
   first-write entries *)
let rec eager_rollback_to tx until =
  if tx.undo != until then
    match tx.undo with
    | [] -> ()
    | (v, old, prev) :: rest ->
        Tvar.unsafe_write v old;
        (match prev with Some p -> Tvar.unlock v ~version:p | None -> ());
        tx.undo <- rest;
        eager_rollback_to tx until

let eager_rollback tx = eager_rollback_to tx []

(* Validate the read set: each read variable must be at the observed
   version and not locked by another transaction.  A variable locked by
   the committing transaction itself validates against the version saved
   when the lock was taken — anything newer means a concurrent commit
   slipped between our read and our lock (a would-be lost update). *)
let validate ?(own = []) tx =
  List.for_all
    (fun (v, s1) ->
      match List.find_opt (fun (u, _) -> u == v) own with
      | Some (_, prev) -> prev = s1
      | None ->
          let word = Tvar.version_word v in
          (not (Tvar.locked word)) && word = s1)
    tx.reads

let commit_validation_fail () =
  Stm_trace.record Stm_trace.Read_validate_fail ();
  raise (Retry_conflict Validation)

let lazy_commit tx =
  if tx.writes = [] then begin
    (* read-only transactions commit without locking *)
    if not (validate tx) then commit_validation_fail ()
  end
  else begin
    let to_lock =
      List.sort_uniq (fun (a, _) (b, _) -> compare (Tvar.id a) (Tvar.id b)) tx.writes
    in
    let locked = ref [] in
    let release () =
      List.iter (fun (v, prev) -> Tvar.unlock v ~version:prev) !locked
    in
    (try
       List.iter
         (fun (v, _) ->
           match Tvar.try_lock v with
           | Some prev -> locked := (v, prev) :: !locked
           | None -> lock_fail v)
         to_lock
     with Retry_conflict _ as e ->
       release ();
       raise e);
    (* a write variable observed before being locked must still be at its
       observed version *)
    if not (validate ~own:!locked tx) then begin
      release ();
      commit_validation_fail ()
    end;
    let wv = Atomic.fetch_and_add clock 2 + 2 in
    List.iter (fun (v, x) -> Tvar.unsafe_write v x) (List.rev tx.writes);
    List.iter (fun (v, _) -> Tvar.unlock v ~version:wv) !locked
  end

(* lazy_commit, except a validation failure becomes a partial abort to
   the oldest invalidated read when one is possible *)
let partial_commit tx =
  let partial_validation_fail ~own =
    Stm_trace.record Stm_trace.Read_validate_fail ();
    let rec oldest_invalid j = function
      | [] -> None
      | (v, s1) :: older -> (
          match List.find_opt (fun (u, _) -> u == v) own with
          | Some (_, prev) ->
              if prev = s1 then oldest_invalid (j + 1) older else Some j
          | None ->
              let w = Tvar.version_word v in
              if Tvar.locked w || w <> s1 then Some j
              else oldest_invalid (j + 1) older)
    in
    match oldest_invalid 0 (List.rev tx.reads) with
    | Some j when j > 0 && not tx.unreplayable ->
        raise (Partial_restart (min j partial_read_set_bound))
    | _ -> raise (Retry_conflict Validation)
  in
  if tx.writes = [] then begin
    if not (validate tx) then partial_validation_fail ~own:[]
  end
  else begin
    let to_lock =
      List.sort_uniq (fun (a, _) (b, _) -> compare (Tvar.id a) (Tvar.id b)) tx.writes
    in
    let locked = ref [] in
    let release () =
      List.iter (fun (v, prev) -> Tvar.unlock v ~version:prev) !locked
    in
    (try
       List.iter
         (fun (v, _) ->
           match Tvar.try_lock v with
           | Some prev -> locked := (v, prev) :: !locked
           | None -> lock_fail v)
         to_lock
     with Retry_conflict _ as e ->
       release ();
       raise e);
    if not (validate ~own:!locked tx) then begin
      release ();
      partial_validation_fail ~own:!locked
    end;
    let wv = Atomic.fetch_and_add clock 2 + 2 in
    List.iter (fun (v, x) -> Tvar.unsafe_write v x) (List.rev tx.writes);
    List.iter (fun (v, _) -> Tvar.unlock v ~version:wv) !locked
  end

(* NOrec commit: read-only transactions are consistent by construction
   (every read revalidated the set whenever the counter moved, and the
   set was read under a stable counter); writers serialize on the
   sequence lock and publish with plain writes — no per-variable lock is
   taken or bumped *)
let norec_commit tx =
  if tx.writes <> [] then begin
    let rec acquire () =
      if not (Atomic.compare_and_set norec_seq tx.rv (tx.rv + 1)) then begin
        (* the counter moved since we last validated: revalidate (which
           also waits out any writer) and try again *)
        norec_extend tx;
        acquire ()
      end
    in
    acquire ();
    List.iter (fun (v, x) -> Tvar.unsafe_write v x) (List.rev tx.writes);
    Atomic.set norec_seq (tx.rv + 2)
  end

let eager_commit tx =
  let own =
    List.filter_map
      (fun (v, _, prev) -> Option.map (fun p -> (v, p)) prev)
      tx.undo
  in
  if not (validate ~own tx) then begin
    eager_rollback tx;
    commit_validation_fail ()
  end;
  let wv = Atomic.fetch_and_add clock 2 + 2 in
  List.iter (fun (v, _) -> Tvar.unlock v ~version:wv) own;
  tx.undo <- []

(* Composition: try [f1]; if it aborts, undo its effects and try [f2]
   within the same transaction (the classic STM orElse). *)
let or_else tx f1 f2 =
  let saved_reads = tx.reads in
  match tx.mode with
  | Lazy | Norec ->
      let saved_writes = tx.writes in
      (try f1 tx
       with User_abort ->
         tx.reads <- saved_reads;
         tx.writes <- saved_writes;
         f2 tx)
  | Partial ->
      let saved_writes = tx.writes and saved_vals = tx.vals in
      (try f1 tx
       with User_abort ->
         (* the aborted branch's memory reads shaped control flow but
            leave the read set: the value log alone can no longer replay
            this transaction, so partial aborts must degrade to full *)
         if tx.reads != saved_reads then tx.unreplayable <- true;
         tx.reads <- saved_reads;
         tx.writes <- saved_writes;
         tx.vals <- saved_vals;
         f2 tx)
  | Eager -> (
      let saved_undo = tx.undo in
      try f1 tx
      with User_abort ->
        eager_rollback_to tx saved_undo;
        tx.reads <- saved_reads;
        f2 tx)

(* Run one attempt; [Error (`Conflict _)] means retry, [Error `Aborted]
   means the user aborted. *)
let make_tx ?footprint mode =
  let rv = match mode with Norec -> norec_sample () | _ -> Atomic.get clock in
  {
    mode;
    rv;
    footprint;
    reads = [];
    writes = [];
    undo = [];
    vals = [];
    replay = [];
    unreplayable = false;
  }

let commit tx =
  match tx.mode with
  | Lazy -> lazy_commit tx
  | Eager -> eager_commit tx
  | Partial -> partial_commit tx
  | Norec -> norec_commit tx

(* roll the transaction back to the retained prefix of [p] reads: the
   re-run serves those reads from the value log and only re-executes —
   and re-buffers — the suffix *)
let partial_restart tx p =
  let n = List.length tx.reads in
  let p = min p n in
  Atomic.incr partial_abort_count;
  Stm_trace.record Stm_trace.Partial_abort ~detail:p ();
  tx.reads <- list_drop (n - p) tx.reads;
  tx.vals <- list_drop (n - p) tx.vals;
  tx.replay <- List.rev tx.vals;
  tx.writes <- [];
  tx.unreplayable <- false

let attempt ?footprint mode f =
  Registry.enter ?footprint ();
  let result =
    (* partial mode re-runs the closure in place on a partial abort —
       still the same attempt, same registry span; [budget] bounds the
       rollbacks before degrading to a full abort *)
    let rec run tx budget =
      match f tx with
      | x -> (
          match commit tx with
          | () -> Ok x
          | exception Partial_restart p when budget > 0 ->
              partial_restart tx p;
              run tx (budget - 1)
          | exception Partial_restart _ -> Error (`Conflict Validation)
          | exception Retry_conflict c -> Error (`Conflict c))
      | exception Partial_restart p when budget > 0 ->
          partial_restart tx p;
          run tx (budget - 1)
      | exception Partial_restart _ -> Error (`Conflict Validation)
      | exception Retry_conflict c ->
          if mode = Eager then eager_rollback tx;
          Error (`Conflict c)
      | exception User_abort ->
          if mode = Eager then eager_rollback tx;
          Error `Aborted
      | exception exn ->
          if mode = Eager then eager_rollback tx;
          Registry.exit ();
          raise exn
    in
    run (make_tx ?footprint mode) max_partial_restarts
  in
  Registry.exit ();
  result

let now_ns = Clock.now_ns

(* Commit [f], retrying on conflicts under the contention policy;
   [Error `Aborted] if the user aborted (the paper's explicit abort —
   not retried). *)
let atomically_result ?(mode = Lazy) ?(policy = Contention.default_policy)
    ?footprint f =
  let footprint = Option.map (List.map Tvar.id) footprint in
  let mi = mode_index mode in
  let t0 = now_ns () in
  let committed retries x =
    Atomic.incr commit_counts.(mi);
    observe retry_bounds retry_counts retries;
    observe latency_bounds_ns latency_counts (now_ns () - t0);
    Stm_trace.record Stm_trace.Commit ~detail:retries ();
    Ok x
  in
  let conflicted = function
    | Validation -> Atomic.incr validation_counts.(mi)
    | Lock -> Atomic.incr lock_counts.(mi)
  in
  let aborted () =
    Atomic.incr user_abort_counts.(mi);
    Stm_trace.record Stm_trace.User_abort ();
    Error `Aborted
  in
  let one_attempt n =
    Stm_trace.record Stm_trace.Begin ~detail:n ();
    attempt ?footprint mode f
  in
  (* the serialized slow path: the gate stalls new optimistic attempts
     on every other domain, so the in-flight ones drain and this
     transaction commits after bounded interference *)
  let escalate n =
    Atomic.incr escalation_count;
    Stm_trace.record Stm_trace.Escalate ~detail:n ();
    Contention.serialized (fun () ->
        let rec again n =
          match one_attempt n with
          | Ok x -> committed n x
          | Error (`Conflict c) ->
              conflicted c;
              Domain.cpu_relax ();
              again (n + 1)
          | Error `Aborted -> aborted ()
        in
        again n)
  in
  let rec go n =
    Contention.stall_if_serialized ();
    match one_attempt n with
    | Ok x -> committed n x
    | Error (`Conflict c) ->
        conflicted c;
        if Contention.escalates policy ~retry:n then escalate (n + 1)
        else begin
          Contention.backoff policy ~retry:n;
          go (n + 1)
        end
    | Error `Aborted -> aborted ()
  in
  go 0

let atomically ?mode ?policy ?footprint f =
  match atomically_result ?mode ?policy ?footprint f with
  | Ok x -> Some x
  | Error `Aborted -> None

(* The quiescence fence of §5: returns once every (relevant) transaction
   that was in flight at the call has resolved, so subsequent plain
   accesses cannot race with pre-fence transactions (privatization).
   With [var], only transactions that might touch that TVar are waited
   for — the per-location hQxi fence, sound because transactions with
   declared footprints cannot stray (checked on every access). *)
let quiesce ?var () =
  let vid = Option.map Tvar.id var in
  let detail = Option.value vid ~default:(-1) in
  Stm_trace.record Stm_trace.Quiesce_start ~detail ();
  Atomic.incr quiesce_count;
  Registry.quiesce ?var:vid ();
  Stm_trace.record Stm_trace.Quiesce_end ~detail ()
