(** Exact rational numbers on native integers.

    Timestamps in the paper's trace semantics are rationals so that a new
    write can always be placed strictly between two existing writes in
    coherence order.  This module provides exactly the operations the
    formalism needs; it is not a general-purpose bignum library. *)

type t

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Invalid_argument if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t

val between : t -> t -> t
(** [between a b] is a rational strictly between [a] and [b] when
    [a < b] (the midpoint). *)

val succ : t -> t
val pred : t -> t

val pp : t Fmt.t
val to_string : t -> string
