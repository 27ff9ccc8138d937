(** Transaction-lifting of relations (§2 of the paper).

    [a lR b] iff [a R b], or [a' R b'] for some [a' tx~ a], [b' tx~ b]
    with [a !tx~ b].  The [x] variant restricts both endpoints to
    transactional actions; the [c] variant further to committed-or-live
    transactions.  Each base relation is lifted once, per tx~ class
    rather than per pair of actions ({!Rel.lift}); its [x] and [c]
    variants are restrictions of that one lifting. *)

(** All base and lifted relations of a trace, computed once and shared by
    happens-before, consistency and race checking. *)
type ctx = {
  trace : Trace.t;
  index_ : Rel.t;
  init_ : Rel.t;
  po : Rel.t;
  ww : Rel.t;
  wr : Rel.t;
  rw : Rel.t;
  lww : Rel.t;
  lwr : Rel.t;
  lrw : Rel.t;
  xww : Rel.t;
  xwr : Rel.t;
  xrw : Rel.t;
  cww : Rel.t;
  cwr : Rel.t;
  crw : Rel.t;
}

val make : Trace.t -> ctx
