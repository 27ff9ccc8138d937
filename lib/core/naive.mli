(** A definition-faithful reference implementation of the model: the
    paper's relations, happens-before and consistency axioms transcribed
    by direct quantification over the trace, independent of the optimized
    {!Lift}/{!Hb}/{!Consistency} implementation.

    Deliberately slow; used as an oracle in the test suite. *)

val index : Trace.t -> int -> int -> bool
val init : Trace.t -> int -> int -> bool
val po : Trace.t -> int -> int -> bool
val ww : Trace.t -> int -> int -> bool
val wr : Trace.t -> int -> int -> bool
val rw : Trace.t -> int -> int -> bool
val lww : Trace.t -> int -> int -> bool
val lwr : Trace.t -> int -> int -> bool
val lrw : Trace.t -> int -> int -> bool
val xrw : Trace.t -> int -> int -> bool
val cww : Trace.t -> int -> int -> bool
val cwr : Trace.t -> int -> int -> bool
val crw : Trace.t -> int -> int -> bool

val hb : Model.t -> Trace.t -> int -> int -> bool
(** The least fixed point, computed naively. *)

val consistent_axioms : Model.t -> Trace.t -> bool
val consistent : Model.t -> Trace.t -> bool
