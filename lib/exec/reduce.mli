(** Reduced enumeration of one combo's candidate graphs — the dynamic
    partial-order reduction behind [Enumerate.Dpor].

    The unreduced enumerator iterates the full selection product
    (reads-from sources × per-location coherence permutations × fence
    sides) and evaluates every leaf by building a trace, lifting its
    relations and checking the axioms.  Here the same product is walked
    as a prefix tree whose nodes carry an incrementally maintained
    execution-graph state; a prefix is pruned — with its candidates
    bulk-claimed, so the accounting matches the unreduced enumerator
    exactly — as soon as a monotone condition dooms every leaf below it.
    The soundness argument is spelled out in docs/ENUMERATION.md. *)

open Tmx_core

(** Cheap per-path-selection feasibility: a combo enumerates zero
    candidates whenever some read's nonzero value has no writer in the
    selected paths, and this spots that from per-path summaries alone,
    so dead path selections are never prepared at all. *)
module Feasible : sig
  type t

  val make : Proto.path array array -> t
  (** Summaries of [tp.(thread).(choice)]: values written, nonzero
      values read. *)

  val check : t -> int array -> bool
  (** [check t sel] — false only if the combo selecting path [sel.(i)]
      for thread [i] provably enumerates zero candidates. *)
end

type plan
(** A prepared combo with its choice levels (reads-from per read,
    coherence permutation per written location, WF12 side per fence
    pair), their widths, and the tables the incremental state updates
    against: transaction classes as member arrays, each location's
    reads and init write, and each coherence permutation as an int
    array with its position array.  Built once, so that applying a
    choice hashes nothing, compares no string and builds no list. *)

val make_plan : model:Model.t -> locs:string list -> Combo.t -> plan

(** A consistent candidate, as the walk emits it. *)
type leaf = {
  ordinal : int;  (** its candidate ordinal *)
  sel : Combo.selection;
  trace : Trace.t;  (** its linearization ({!Combo.linearize}) *)
  order : int array;  (** the combo events in trace order *)
  hb : int array;
      (** per conflicting pair [(i, j)] passed to {!enumerate}: bit 0 is
          hb(i, j) and bit 1 is hb(j, i), under the plan's model, read
          off the leaf's happens-before once its check has extended it;
          [[||]] when no pairs were passed *)
}

val enumerate :
  ?pin:int ->
  ?conflicts:(int * int) array ->
  claim:(int -> int) ->
  emit:(leaf -> unit) ->
  plan ->
  int
(** Walk the plan's candidates in unreduced product order, optionally
    pinning the first level's choice (the parallel task split).
    [claim k] accounts for [k] candidates and returns the ordinal of the
    first if it is to be processed, or -1 past the graph cap; pruned
    subtrees are bulk-claimed, so ordinals and totals coincide with the
    unreduced enumerator.  A walk pinned to choice [k] first bulk-claims
    the subtrees of choices [0 .. k-1], so its ordinals are those of the
    unpinned walk, and a cap stops it where it stops that walk.  [emit]
    receives each consistent candidate, with the leaf's hb on
    [conflicts] (default none; pass {!Combo.conflicts} of the plan's
    combo to get {!races}).  Returns the number of candidates whose leaf
    consistency check actually ran (the [explored] statistic). *)

val races :
  base:int -> (int * int) array -> int array -> int array -> (int * int) list
(** [races ~base conflicts hb order]: the races at L = every location
    of the linearization [order] (combo events in trace order, the first
    at trace position [base] = #locs + 2), given a leaf's [hb] on
    [conflicts].  For a representative's leaf, [conflicts] are those
    passed to {!enumerate}; for an image combo, the same pairs renamed
    through the symmetry's {!Symmetry.event_map}, with the
    representative's [hb] and the image's own [order].  Sorted as
    {!Tmx_core.Race.races} sorts them: equal to
    [Race.races trace (Hb.compute model (Lift.make trace))]. *)
