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
      (** domains to enumerate on (default 1 = sequential).  With
          [jobs > 1] the candidate space is split into tasks — one per
          (thread-path combination, first reads-from choice), the top of
          the linearization prefix tree — dispatched to a work-stealing
          domain pool and merged deterministically: the result is
          identical to the sequential run for every [jobs].  Runs whose
          estimated candidate count — measured on the reduced space,
          i.e. live orbit representatives when reduction is on — is too
          small to amortize a domain pool fall back to the sequential
          path automatically. *)
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
  graphs : int;  (** candidate graphs accounted for *)
  explored : int;
      (** candidate graphs whose leaf check actually ran.  Equal to
          [graphs] without reduction; under reduction, candidates pruned
          in bulk (doomed prefixes, symmetric images) are counted in
          [graphs] but not here — the ratio is the reduction's win. *)
  races : (int * int) list array option;
      (** per execution, in [executions] order: its races at L = every
          location ({!Tmx_core.Race.races}) under the model that was
          enumerated.  {!run} leaves it [None]; the verdict cache
          ([Tmx_service.Cache]) returns [Some] of the pairs it stores, so
          a race check reads them ({!Tmx_core.Race.restrict},
          {!Tmx_core.Race.is_mixed}) instead of deriving hb again. *)
}

val unfold_combos :
  config -> Tmx_lang.Ast.program -> string list * Proto.path list list * bool
(** The shared front half of {!run}: validate, unfold every thread's
    control paths (dropping paths that hit the loop-unrolling bound) and
    report the location set.  Returns [(locs, thread_paths, truncated)].
    The architecture backends ({!Tmx_arch}) enter here to reuse the
    candidate space — path combos × reads-from choices × coherence
    permutations × fence sides — while swapping the consistency check.
    @raise Invalid_argument on an ill-formed program. *)

val run : ?config:config -> Tmx_core.Model.t -> Tmx_lang.Ast.program -> result
val outcomes : result -> Outcome.t list
val allowed : result -> (Outcome.t -> bool) -> bool
val forbidden : result -> (Outcome.t -> bool) -> bool
