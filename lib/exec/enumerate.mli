(** Exhaustive enumeration of the consistent executions of a litmus
    program, herd-style.

    Rather than enumerating raw interleavings, the enumerator works over
    execution graphs — per-thread control paths × reads-from choices ×
    per-location coherence orders × fence/transaction orderings — and
    builds one well-formed linearization per graph through the
    WF-derived ordering constraints (initialization, program order, WF8
    reads-from, WF9–WF11 obscured accesses, WF12 fence sides).  This is
    complete by the paper's observation that WF8–WF11 are redundant with
    respect to the consistency axioms at the graph level; every produced
    trace is re-checked against the full well-formedness scan (a
    violation raises, as an enumerator-bug detector).

    The candidate space is searched under a configurable {!reduction}
    strategy; docs/ENUMERATION.md is the chapter-length account of the
    machinery and of why every strategy reports identical verdicts. *)

type reduction =
  | No_reduction
      (** the reference: materialize and judge every candidate graph *)
  | Dpor
      (** dynamic partial-order reduction: walk the selection product as
          a prefix tree carrying an incremental execution-graph state,
          prune doomed subtrees wholesale, judge surviving leaves on the
          accumulated relations without building a trace.  Bit-identical
          results (executions, order, counts) to [No_reduction]. *)
  | Dpor_sym
      (** [Dpor] plus symmetry reduction: thread-path combinations are
          quotiented by program automorphisms (thread permutations that
          map the unfolded program onto itself up to a location
          renaming); only orbit representatives are searched and their
          consistent selections are transported onto each image combo.
          Verdicts, the execution multiset and the candidate accounting
          are preserved; within an orbit, an image combo's executions
          appear in its representative's enumeration order. *)

val reduction_name : reduction -> string
(** ["none"], ["dpor"], ["dpor+sym"]. *)

val reduction_of_string : string -> reduction option

type config = {
  fuel : int;  (** loop unrollings per thread *)
  domain_iters : int;  (** value-domain fixpoint rounds *)
  max_graphs : int;  (** cap on candidate graphs *)
  jobs : int;
      (** domains to enumerate on (default 1 = sequential).  Under
          [Dpor] and [Dpor_sym] with [jobs > 1] the candidate space is
          split into tasks — one per (live orbit representative, first
          reads-from choice), the top of the prefix tree — dispatched
          to a work-stealing domain pool and merged deterministically:
          the result is identical to the sequential run for every
          [jobs].  A run whose live representatives have fewer than 512
          candidates between them, too few to amortize a domain pool,
          stays sequential.  [No_reduction], the reference, always runs
          on one domain. *)
  reduction : reduction;  (** search strategy (default {!Dpor_sym}) *)
}

val default_config : config

val config_key : config -> string
(** The cache-key projection of a config: the fields that can change the
    result ([fuel], [domain_iters], [max_graphs], [reduction]).  [jobs]
    is excluded — parallel and sequential runs are identical by
    construction (and pinned so by the [parallel] suite), so they may
    share a cache entry. *)

type execution = { trace : Tmx_core.Trace.t; outcome : Outcome.t }

type result = {
  executions : execution list;  (** the consistent executions *)
  truncated : bool;  (** a path hit the loop bound *)
  capped : bool;  (** the graph cap was hit *)
  graphs : int;  (** candidate graphs accounted for, at most the cap *)
  explored : int;
      (** candidate graphs whose leaf check actually ran, at most
          [graphs].  Equal to [graphs] without reduction; under
          reduction, candidates pruned in bulk (doomed prefixes,
          symmetric images) are counted in [graphs] but not here — the
          ratio is the reduction's win.  Every strategy numbers the
          candidates by the same global ordinals, so under a cap no
          strategy checks a leaf past it, and [explored] shrinks from
          [No_reduction] to [Dpor] to [Dpor_sym].  The same whatever
          [jobs] was, capped runs included. *)
  races : (int * int) list array option;
      (** per execution, in [executions] order: its races at L = every
          location under the model that was enumerated, equal to
          [Race.races e.trace (Hb.compute model (Lift.make e.trace))],
          order included.  [Some] when {!run} was asked with
          [~races:true], or when the verdict cache
          ([Tmx_service.Cache]) returns the pairs it stores; [None]
          otherwise.  A race check reads them ({!Tmx_core.Race.restrict},
          {!Tmx_core.Race.is_mixed}) instead of deriving hb again. *)
}

val unfold_combos :
  config -> Tmx_lang.Ast.program -> string list * Proto.path list list * bool
(** The shared front half of {!run}: validate, unfold every thread's
    control paths (dropping paths that hit the loop-unrolling bound) and
    report the location set.  Returns [(locs, thread_paths, truncated)].
    The architecture backends ({!Tmx_arch}) enter here and then run the
    reference's candidate loop ({!Combo.iter_candidates}) — path combos
    × reads-from choices × coherence permutations × fence sides — while
    swapping the consistency check.
    @raise Invalid_argument on an ill-formed program. *)

val run :
  ?config:config -> ?races:bool -> Tmx_core.Model.t -> Tmx_lang.Ast.program -> result
(** Enumerate the consistent executions under the model.

    [races] (default [false]) also fills [result.races], from the
    happens-before each strategy already holds when it judges an
    execution, with no second [Lift.make] + [Hb.compute] pass:
    - [No_reduction] takes them from the trace-level hb of its
      consistency check;
    - [Dpor] reads the leaf's hb once {!Reduce} has judged the leaf
      (the rules extend it in place), on the combo's conflicting pairs
      ({!Combo.conflicts}), and maps them to trace positions through the
      order {!Combo.linearize} chose;
    - [Dpor_sym] carries that hb on the conflicting pairs along with
      each transported selection, renames the pairs through π, and
      orders each pair by the image's own linearization.
    hb is a relation on the execution graph (WF8–WF11 add nothing at
    graph level), so the three agree with the trace-derived races.  The
    pairs are found once per combo, then each execution costs one hb
    lookup per conflicting pair, and its race list is kept in the
    result.  That is small beside a cache miss's other work, but not
    beside a big enumeration's: with it on, [w5r3] (25,920 executions,
    jobs 1, pm) takes about twice the time and 1.9× the minor words,
    and perfbench's [verify-corpus] judged 0.72× the programs per
    second at 2.0× the peak RSS (EXPERIMENTS.md Part 4d'').  So
    callers that never read races (outcome sets, counts) leave it
    off. *)

val outcomes : result -> Outcome.t list
val allowed : result -> (Outcome.t -> bool) -> bool
val forbidden : result -> (Outcome.t -> bool) -> bool
