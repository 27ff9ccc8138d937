(** The differential oracles: one program in, one verdict out, each
    cross-checking two independent implementations of the semantics.

    | name          | claim                                                         |
    |---------------|---------------------------------------------------------------|
    | [enum-naive]  | every enumerated execution satisfies the definition-faithful
                      [Tmx_core.Naive] axioms, and on random order-preserving
                      re-merges of its traces the optimized and naive consistency
                      verdicts coincide                                            |
    | [machine-enum]| operational-machine outcomes ⊆ axiomatic im outcomes
                      (equality when neither side truncated or capped)             |
    | [stmsim-enum] | STM-simulator outcomes ⊆ axiomatic im outcomes, for the
                      lazy and lazy+atomic-commit modes (naive eager versioning
                      is documented-unsound, Example 3.4, and not an oracle)       |
    | [lint-sound]  | a location the lint does not flag has no enumerated L-race
                      under any model, and enumerated mixed races imply a mixed
                      finding                                                      |
    | [jobs-det]    | [Enumerate.run] with [jobs = 1] and [jobs = N] agree
                      bit-for-bit (traces, outcomes, order, graphs,
                      explored, caps), under
                      pm and under the strongest variant.  A generated program
                      almost never clears [Enumerate]'s parallel threshold (512
                      candidates over the live orbit representatives), so at
                      [jobs = N] it takes the sequential fallback and this
                      oracle pins that decision; the pool itself is held to
                      [jobs = 1] by
                      [test_parallel]'s "jobs split and cap merge
                      deterministically", [reduction_quick]'s "graph cap
                      inside an image combo at every jobs" (both assert a
                      domain was spawned) and CI's [-j 2] diff of
                      litmus/w3o3.litmus                                           |
    | [reduction-det] | [Enumerate.run] under [Dpor] is bit-identical to the
                      unreduced reference, and under [Dpor_sym] preserves the
                      execution multiset, graphs, caps, and monotonically
                      shrinks explored states, under pm and the strongest
                      variant.  With [~races:true], each execution's races
                      (read off each strategy's own hb) agree across the
                      three strategies, execution by execution, and with
                      the races derived again from the trace.  Capped at
                      half the reference's graphs (when it has at least
                      2), every strategy checks no leaf past the cap
                      (explored ≤ graphs), explored still shrinks, graphs
                      and caps agree, and [Dpor] keeps the reference's
                      executions in order                                  |
    | [repair-sound]| synthesized repairs re-verify mixed-race-free, and every
                      edit is load-bearing                                         |
    | [arch-diff]   | x86-TSO and the C++-TM mapping validate the strongest
                      LTRF variant fence-free; ARMv8 escapes close under a
                      re-verified minimal DMB LD set; and the architecture
                      outcome lattice (tso ⊆ armv8, rc11 ⊆ armv8) holds
                      ({!Tmx_arch.Diff})                                           |

    A further oracle, [broken], deliberately fails on any program with a
    mixed location.  It exists to test the minimizer end-to-end and is
    hidden: {!by_name} only resolves it when the [TMX_FUZZ_BROKEN]
    environment variable is set. *)

open Tmx_lang

type verdict = Pass | Fail of string

type ctx = {
  jobs : int;  (** the N of the jobs-determinism oracle (>= 2) *)
  seed : int;  (** seeds the oracle-internal permutation choices *)
  run :
    Tmx_exec.Enumerate.config ->
    Tmx_core.Model.t ->
    Ast.program ->
    Tmx_exec.Enumerate.result;
      (** how the oracles obtain their reference enumeration (default
          [Enumerate.run]); `tmx fuzz --cache` plugs the verdict cache
          in here.  The [jobs-det] oracle deliberately bypasses this
          hook and calls [Enumerate.run] directly on both sides — its
          whole claim is about the enumerator, and a memoized run
          would make it vacuous. *)
}

type t = {
  name : string;
  descr : string;
  check : ctx -> Ast.program -> verdict;
}

val make_ctx :
  ?run:
    (Tmx_exec.Enumerate.config ->
    Tmx_core.Model.t ->
    Ast.program ->
    Tmx_exec.Enumerate.result) ->
  jobs:int ->
  seed:int ->
  unit ->
  ctx

val stock : t list
(** The six differential oracles, in the order of the table above. *)

val broken : t
(** The deliberately-broken demo oracle (fails iff the program has a
    mixed location — minimal failing programs have 2 statements). *)

val by_name : string -> t option
(** Resolve an oracle by name.  ["broken"] resolves only when
    [TMX_FUZZ_BROKEN] is set in the environment. *)

val names : unit -> string list
(** The resolvable names ([stock], plus ["broken"] when enabled). *)

val random_merge : Random.State.t -> Tmx_core.Trace.t -> int array
(** A random order-preserving re-merge of the trace's per-thread
    sequences, keeping the initializing thread first — the permutation
    the [enum-naive] oracle (and the permutation-invariance test) feeds
    to [Trace.permute]. *)
