(* The conservative static happens-before abstraction.

   A pair of static accesses is declared [Ordered] only when EVERY pair
   of their dynamic instances is happens-before-ordered (or excluded
   from racing outright) in every well-formed trace, under every model:

   - [Same_thread]: program order is in the happens-before base (HBdef),
     and a trace linearizes program order, so same-thread instances can
     never race.  Transaction boundaries need no separate case: Begin
     and Commit are po-ordered with their transaction's accesses.
   - [Both_transactional]: an L-race requires at least one plain access,
     so two transactional accesses never race by definition.
   - [Both_reads]: an L-conflict requires at least one write.
   - [Must_abort]: every instance of the access is in an aborted
     transaction, and aborted actions never conflict.

   Nothing else is sound.  In particular the quiescence-fence rules
   WF12/HBCQ/HBQB order a fence against transactions on ONE side of it
   in the trace — a transaction that begins after the fence (HBQB) is
   unordered with plain accesses that follow the fence, and one that
   commits before it (HBCQ) is unordered with plain accesses that
   precede it — and which side a transaction lands on is resolved only
   dynamically.  Likewise HBww-style privatization ordering depends on
   the guard's reads-from choice.  These one-sided facts are reported as
   [protection]s: they downgrade a finding's severity and shape its fix
   suggestion, but never suppress it, preserving soundness. *)

type reason =
  | Same_thread
  | Both_transactional
  | Both_reads
  | Must_abort
  | Guard_dominated of string

type protection =
  | Fence_commit_side of string
      (* the plain access is dominated by fence(x): transactions on x
         that commit before the fence are ordered before it (HBCQ) *)
  | Fence_begin_side of string
      (* the plain access is postdominated by fence(x): transactions on
         x that begin after the fence are ordered after it (HBQB) *)
  | Guarded_publication of string
      (* the transactional side reads flag x, and the plain side's
         thread writes x in an atomic block before the plain access —
         the privatization idiom that HBww orders when the guard reads
         the pre-publication value *)
  | Published_flag of string
      (* the plain access precedes an atomic block that writes flag x,
         which the transactional side reads — the publication idiom:
         cwr serializes the publishing transaction before the reading
         one whenever the guard value is observed *)
  | Consumed_flag of string
      (* the transactional side writes flag x, which the plain side's
         thread read in an atomic block before the plain access — the
         dual handoff: cwr serializes the writing transaction before
         the reader's atomic whenever its value is observed *)

let pp_protection ppf = function
  | Fence_commit_side x -> Fmt.pf ppf "fence(%s) before the plain access (HBCQ)" x
  | Fence_begin_side x -> Fmt.pf ppf "fence(%s) after the plain access (HBQB)" x
  | Guarded_publication x -> Fmt.pf ppf "guarded publication via %s (HBww)" x
  | Published_flag x -> Fmt.pf ppf "flag %s published after the plain access (cwr)" x
  | Consumed_flag x -> Fmt.pf ppf "flag %s consumed before the plain access (cwr)" x

type verdict = Ordered of reason | Unordered of protection list

(* Protections for an (access, access) pair known to clash on a
   location.  Only tx-vs-plain pairs have any. *)
let protections (a : Access.t) (b : Access.t) =
  match (a.mode, b.mode) with
  | Access.Plain, Access.Plain | Access.Transactional, Access.Transactional -> []
  | _ ->
      let tx, plain =
        if a.mode = Access.Transactional then (a, b) else (b, a)
      in
      let fence_hits fences =
        List.filter
          (fun x ->
            Tmx_opt.Footprint.name_clash x tx.loc
            || Tmx_opt.Footprint.name_clash x plain.loc)
          fences
      in
      let flag_of ok mk flag =
        if ok flag && not (Tmx_opt.Footprint.name_clash flag tx.loc) then
          Some (mk flag)
        else None
      in
      List.map (fun x -> Fence_commit_side x) (fence_hits plain.fences_before)
      @ List.map (fun x -> Fence_begin_side x) (fence_hits plain.fences_after)
      @ List.filter_map
          (flag_of
             (fun f -> List.mem f plain.prior_atomic_writes)
             (fun f -> Guarded_publication f))
          tx.txn_reads
      @ List.filter_map
          (flag_of
             (fun f -> List.mem f plain.later_atomic_writes)
             (fun f -> Published_flag f))
          tx.txn_reads
      @ List.filter_map
          (flag_of
             (fun f -> List.mem f plain.prior_atomic_reads)
             (fun f -> Consumed_flag f))
          tx.txn_writes

(* -- guard dominance ---------------------------------------------------------

   The one sound exclusion beyond the four structural ones.  Unlike the
   [protection]s above, which are one-sided, this rule's premises force
   EVERY dynamic race instance to be hb-ordered through relations in the
   happens-before BASE of every model (init ∪ po ∪ cwr ∪ cww), so the
   pair can be declared [Ordered] without losing soundness.

   Two dual shapes, both hinging on a flag F distinct from the raced
   location whose every static write is transactional, and on branch
   conditions that pin a register nonzero (initial register values and
   the initializing writes are 0, and aborted transactions roll
   registers back — so a nonzero guard proves the register's unique
   defining load observed a COMMITTED transactional write of F):

   - publication (GD-pub): the transactional access runs only under a
     guard r ≠ 0 whose unique definition loads F earlier in the same
     atomic block, and every static write of F is transactional, in the
     plain side's thread, walk-after the plain access.  Then in any
     trace where both race candidates execute:
       plain ─po→ F-write ─po→ its commit ─cwr→ guard load ─po→ tx access
   - consumption (GD-con, D.4's shape): the plain access runs only
     under a guard r ≠ 0 whose unique definition loads F inside an
     earlier atomic block of its own thread, and every static write of
     F is transactional, in the tx side's thread, in the same atomic
     block as the tx access (or walk-after it).  Then:
       tx access ─po→ F-write's commit ─cwr→ guard load ─po→ plain

   Both directions need walk order to coincide with per-trace program
   order, which holds exactly when the thread is loop-free — so the
   rule refuses when either thread contains a while.  The "unique
   definition" premise avoids register-freshness tracking: if the guard
   register has exactly one static def in its thread, a nonzero value
   can only have come from that load. *)

let guard_dominated (ctx : Access.context) (a : Access.t) (b : Access.t) =
  match (a.mode, b.mode) with
  | Access.Plain, Access.Plain | Access.Transactional, Access.Transactional ->
      None
  | _ ->
      let tx, plain =
        if a.mode = Access.Transactional then (a, b) else (b, a)
      in
      let loop_free t = not ctx.Access.ctx_loops.(t) in
      if not (loop_free tx.thread && loop_free plain.thread) then None
      else
        let unique_load thread r =
          match
            List.filter
              (fun (d : Access.def) -> d.def_thread = thread && d.reg = r)
              ctx.ctx_defs
          with
          | [ ({ from_load = Some f; _ } as d) ] -> Some (d, f)
          | _ -> None
        in
        let writes_to f =
          List.filter
            (fun (w : Access.t) ->
              w.kind = Access.Write && Tmx_opt.Footprint.name_clash w.loc f)
            ctx.ctx_accesses
        in
        let distinct_flag f =
          (not (Tmx_opt.Footprint.name_clash f tx.loc))
          && not (Tmx_opt.Footprint.name_clash f plain.loc)
        in
        let all_writes_ok f pred =
          match writes_to f with [] -> false | ws -> List.for_all pred ws
        in
        let pub =
          List.find_map
            (fun r ->
              match unique_load tx.thread r with
              | Some (d, f)
                when d.def_txn <> None
                     && d.def_txn = Access.txn_prefix tx.path
                     && d.def_walk < tx.walk && distinct_flag f
                     && all_writes_ok f (fun w ->
                            w.mode = Access.Transactional
                            && w.thread = plain.thread
                            && plain.walk < w.walk) ->
                  Some f
              | _ -> None)
            tx.nonzero_guards
        in
        let con () =
          List.find_map
            (fun r ->
              match unique_load plain.thread r with
              | Some (d, f)
                when d.def_txn <> None && d.def_walk < plain.walk
                     && distinct_flag f
                     && all_writes_ok f (fun w ->
                            w.mode = Access.Transactional
                            && w.thread = tx.thread
                            && (Access.txn_prefix w.path
                                = Access.txn_prefix tx.path
                               || tx.walk <= w.walk)) ->
                  Some f
              | _ -> None)
            plain.nonzero_guards
        in
        (match pub with Some f -> Some f | None -> con ())

let pair ?ctx (a : Access.t) (b : Access.t) =
  if a.thread = b.thread then Ordered Same_thread
  else if a.mode = Access.Transactional && b.mode = Access.Transactional then
    Ordered Both_transactional
  else if a.kind = Access.Read && b.kind = Access.Read then Ordered Both_reads
  else if a.must_abort || b.must_abort then Ordered Must_abort
  else
    match Option.bind ctx (fun c -> guard_dominated c a b) with
    | Some f -> Ordered (Guard_dominated f)
    | None -> Unordered (protections a b)
