(* Transaction-lifting of relations (§2, "Lifted Relations").

     a lR b  iff  a R b, or a' R b' for some a' tx~ a !tx~ b tx~ b'
     a xR b  iff  a lR b and a, b are transactional
     a cR b  iff  a xR b and a, b are committed or live

   Lifting is composition with the tx~ equivalence, whose classes are
   transactions plus singletons for plain events; [Rel.lift] computes it
   once per class.  Each base relation is lifted once, and its x and c
   variants mask the lifted rows. *)

(* All lifted variants of the three base memory relations, computed once
   per trace and shared by happens-before, consistency and race checks. *)
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

let make t =
  let ww = Trace.rel_ww t and wr = Trace.rel_wr t in
  let rw = Trace.rel_rw t ~wr ~ww in
  let classes =
    Array.init (Trace.length t) (fun i ->
        let b = Trace.txn_of t i in
        if b >= 0 then b else i)
  in
  let lww = Rel.lift ~classes ww
  and lwr = Rel.lift ~classes wr
  and lrw = Rel.lift ~classes rw in
  let x = Rel.restrict ~src:(Trace.is_transactional t) ~dst:(Trace.is_transactional t)
  and c =
    Rel.restrict ~src:(Trace.is_committed_or_live_txn t)
      ~dst:(Trace.is_committed_or_live_txn t)
  in
  {
    trace = t;
    index_ = Trace.rel_index t;
    init_ = Trace.rel_init t;
    po = Trace.rel_po t;
    ww;
    wr;
    rw;
    lww;
    lwr;
    lrw;
    xww = x lww;
    xwr = x lwr;
    xrw = x lrw;
    cww = c lww;
    cwr = c lwr;
    crw = c lrw;
  }
