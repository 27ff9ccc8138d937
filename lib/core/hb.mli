(** Happens-before (§2 of the paper; §5 for the quiescence-fence rules).

    [compute model ctx] is the least relation containing
    [init ∪ po ∪ cwr ∪ cww] (plus the HBCQ/HBQB fence edges when
    [model.quiescence]), closed under transitivity and whichever of the
    HBww/HBwr/HBrw rules and their primed variants [model] enables. *)

val compute : Model.t -> Lift.ctx -> Rel.t
(** The fixpoint maintains the transitive closure incrementally: the
    base relation is closed once and every rule-derived edge extends the
    closed relation in place ([Rel.union_into_closed]), instead of
    re-running a full closure per round.  A round applies the enabled
    rules as two row intersections, one for the unprimed rules and one
    for the primed.  [compute_reference] is the unoptimized
    equivalent. *)

val compute_from :
  Model.t ->
  plain:(int -> bool) ->
  crw:Rel.t ->
  lww:Rel.t ->
  lwr:Rel.t ->
  lrw:Rel.t ->
  Rel.t ->
  Rel.t
(** [compute_from model ~plain ~crw ~lww ~lwr ~lrw hb] runs the rule
    fixpoint over bare relations, with no trace in sight: the reduced
    enumerator evaluates candidate execution graphs before any
    linearization exists and supplies the plainness predicate and the
    lifted relations directly.  [hb] must already contain the
    transitively closed base relation; it is extended in place and
    returned. *)

val compute_reference : Model.t -> Lift.ctx -> Rel.t
(** The pre-cache fixpoint (full re-closure every round), kept as an
    oracle: tests assert [compute] and [compute_reference] coincide. *)

val quiescence_edges : Lift.ctx -> Rel.t
(** The HBCQ and HBQB edges of the implementation model, exposed for
    testing. *)
