(** Architecture-level execution: enumerate the outcomes a litmus
    program can exhibit on an architecture, herd-style.

    The candidate space is exactly the LTRF enumerator's — per-thread
    control paths × reads-from choices × per-location coherence orders ×
    quiescence-fence sides, walked by the unreduced reference's own
    candidate loop and cap ({!Tmx_exec.Enumerate.unfold_combos},
    {!Tmx_exec.Combo.iter_candidates}) — but candidates are judged as
    {e graphs} under the architecture's axioms instead of being
    linearized: weak architectures admit executions (load buffering on
    ARMv8) that no well-formed trace can witness, so the trace-based
    pipeline cannot represent them.

    The transactional compilation is shared by all three backends:

    - a transaction is one atomic class (its events commute with
      nothing), bounded by full fences — the locked-region / HTM
      compilation both cited semantics papers use;
    - the quiescence fence [Qx] compiles to the architecture's full
      barrier {e plus} the runtime's quiescence ordering: the WF12
      per-(fence, transaction) side choice becomes hard ordering edges,
      exactly as the STM's quiescence algorithm enforces by waiting;
    - aborted transactions are invisible speculation: their reads take
      reads-from edges (control flow may depend on them) but their
      writes never reach coherence, and they impose no
      antidependencies.

    Per-architecture axioms, after Chong–Sorensen–Wickerson:

    - all three: SC-per-location — per location, acyclic
      (po-loc ∪ rf ∪ co ∪ fr);
    - x86-TSO: acyclic class-lifted ghb, with
      ghb = (po minus W→R) ∪ barriers ∪ rfe ∪ co ∪ fr;
    - ARMv8 (lite): acyclic class-lifted ob, with
      ob = barriers ∪ rfe ∪ coe ∪ fre — {e no} plain program order, so
      load buffering is observable until a [DMB LD] is inserted;
    - RC11 (lite, C++-TM): acyclic (po ∪ rf) (no-thin-air);
      irreflexive (hb ; eco) with hb = (po ∪ sw ∪ barriers)⁺, sw the
      transaction-to-transaction reads-from edges, eco = (rf ∪ co ∪
      fr)⁺; and acyclic class-lifted (hb ∪ eco). *)

open Tmx_exec

type fence_site = { thread : int; loc : string }
(** An anti-load-buffering fence insertion point: a [DMB LD] placed
    immediately after every {e plain} load of [loc] in [thread].  In the
    event graph: every load po-before-or-at such a load becomes ordered
    before everything po-after it. *)

val pp_fence_site : fence_site Fmt.t
val compare_fence_site : fence_site -> fence_site -> int

type result = {
  outcomes : Outcome.t list;  (** deduplicated, sorted *)
  truncated : bool;  (** a control path hit the loop-unrolling bound *)
  capped : bool;  (** the candidate-graph cap was hit *)
  graphs : int;  (** candidate graphs judged *)
}

val run :
  ?config:Enumerate.config ->
  ?fences:fence_site list ->
  Arch.t ->
  Tmx_lang.Ast.program ->
  result
(** The architecture-consistent outcomes of a program, optionally with
    inserted anti-load-buffering fences.
    @raise Invalid_argument on an ill-formed program. *)

val plain_load_sites :
  ?config:Enumerate.config -> Tmx_lang.Ast.program -> fence_site list
(** Every (thread, location) with a plain (non-transactional) load on
    some control path — the candidate insertion points for the ARMv8
    anti-load-buffering repair, in deterministic order. *)
