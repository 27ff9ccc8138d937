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
    pair), their widths, and the transaction-class tables the
    incremental state updates against. *)

val make_plan : model:Model.t -> locs:string list -> Combo.t -> plan

val enumerate :
  ?pin:int ->
  claim:(int -> int option) ->
  emit:(int -> Combo.selection -> Trace.t -> unit) ->
  plan ->
  int
(** Walk the plan's candidates in unreduced product order, optionally
    pinning the first level's choice (the parallel task split).
    [claim k] accounts for [k] candidates and returns the ordinal of the
    first if it is to be processed ([None] past the graph cap); pruned
    subtrees are bulk-claimed, so ordinals and totals coincide with the
    unreduced enumerator.  A walk pinned to choice [k] first bulk-claims
    the subtrees of choices [0 .. k-1], so its ordinals are those of the
    unpinned walk, and a cap stops it where it stops that walk.  [emit]
    receives each consistent candidate's
    ordinal, selection and linearized trace.  Returns the number of
    candidates whose leaf consistency check actually ran (the [explored]
    statistic). *)
