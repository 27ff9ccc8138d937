(** Consistency of executions (§2, with the model-dependent antidependency
    axioms of §2.3 and §5).

    An execution is consistent iff it is well-formed, [Causality]
    ((hb ∪ lwr ∪ xrw) acyclic), [Coherence] ((hb ; lww) irreflexive) and
    [Observation] ((hb ; lrw) irreflexive) hold, and the antidependency
    axioms enabled by the model hold. *)

type report = {
  well_formed : bool;
  causality : bool;
  coherence : bool;
  observation : bool;
  anti_ww : bool;
  anti_rw : bool;
  anti_ww' : bool;
  anti_rw' : bool;
}

val ok : report -> bool
val pp_report : report Fmt.t

val check : Model.t -> Trace.t -> report
val consistent : Model.t -> Trace.t -> bool

val check_axioms : Model.t -> Lift.ctx -> Rel.t -> report
(** Axioms only, over a precomputed lifting context and happens-before;
    [well_formed] is reported as [true] without being checked. *)

val consistent_axioms : Model.t -> Lift.ctx -> Rel.t -> bool

val check_axioms_rels :
  Model.t ->
  hb:Rel.t ->
  lwr:Rel.t ->
  xrw:Rel.t ->
  crw:Rel.t ->
  lww:Rel.t ->
  lrw:Rel.t ->
  report
(** Axioms over bare relations, with no trace or lifting context in
    sight: the reduced enumerator judges candidate execution graphs
    before any linearization exists and supplies the lifted relations
    directly.  [well_formed] is reported as [true] without being
    checked. *)
