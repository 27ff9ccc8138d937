(** The conservative static happens-before abstraction over static
    accesses.

    A pair is declared [Ordered] only when every pair of its dynamic
    instances is happens-before-ordered, or excluded from racing by the
    race definition itself, in every well-formed trace under every
    model: same thread (program order, which subsumes transaction
    boundaries), both transactional, both reads, an always-aborting
    transaction — or guard dominance, the one data-dependent exclusion
    whose premises force every dynamic race instance through the
    happens-before base (po ∪ cwr) of every model.

    The quiescence-fence rules (WF12/HBCQ/HBQB) and the HBww
    privatization ordering are one-sided or data-dependent, so they are
    reported as {!protection}s — severity hints that never suppress a
    finding. *)

type reason =
  | Same_thread
  | Both_transactional
  | Both_reads
  | Must_abort
  | Guard_dominated of string
      (** the guarded side only executes after a nonzero test of a
          register whose unique definition transactionally loads this
          flag; every static write of the flag is transactional and
          positioned so cwr + po order the pair in every trace (needs
          loop-free threads and program-global write facts, hence the
          [?ctx] argument of {!pair}) *)

type protection =
  | Fence_commit_side of string
      (** the plain access is dominated by a fence on the raced
          location: HBCQ orders transactions that commit before the
          fence ahead of it *)
  | Fence_begin_side of string
      (** the plain access is postdominated by such a fence: HBQB
          orders transactions that begin after the fence behind it *)
  | Guarded_publication of string
      (** privatization idiom: the transactional side reads this flag,
          which the plain side's thread publishes in an earlier atomic
          block; HBww orders the pair when the guard reads the
          pre-publication value *)
  | Published_flag of string
      (** publication idiom: the plain access precedes an atomic block
          writing this flag, which the transactional side reads; cwr
          orders the publisher before the reader when the value is
          observed *)
  | Consumed_flag of string
      (** dual handoff: the transactional side writes this flag, which
          the plain side's thread read in an earlier atomic block; cwr
          orders the writer before the reader when the value is
          observed *)

val pp_protection : protection Fmt.t

type verdict = Ordered of reason | Unordered of protection list

val protections : Access.t -> Access.t -> protection list
(** Protections for a pair known to clash on a location; only
    transactional-vs-plain pairs have any. *)

val guard_dominated : Access.context -> Access.t -> Access.t -> string option
(** The flag witnessing a guard-dominance exclusion for the pair, if
    one applies (see {!reason}).  Sound under every model: the flag's
    observed value serializes the guarded side behind the other through
    base-happens-before edges alone. *)

val pair : ?ctx:Access.context -> Access.t -> Access.t -> verdict
(** The static verdict for a clashing pair of accesses.  [ctx] (from
    {!Access.context}) enables the guard-dominance exclusion, which
    needs program-global facts; without it the rule is skipped. *)
