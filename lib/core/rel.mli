(** Binary relations over trace positions, with the little relation
    calculus the consistency axioms need: union, intersection, relational
    composition, restriction, lifting by an equivalence, transitive
    closure, acyclicity and irreflexivity checks.

    Represented as bitset rows, [w] words per row (1 for litmus-scale
    traces), all kept in one flat array: row i is words [i·w .. i·w+w-1].
    So creating, copying, and every operation that returns a new
    relation allocate one block of n·w words, not one per row.  Union,
    intersection, restriction and copying are O(n·w); composition,
    iteration and lifting are O(n·w) plus a cost per set bit; closure is
    O(n²·w); [add_edge_closed] is O(n·w) and allocates nothing; only
    [of_pred] and [filter], which call their predicate per pair, are
    O(n²) in predicate calls. *)

type t

val create : int -> t
(** [create n] is the empty relation over [{0..n-1}]. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst] with [src] (same size) without
    allocating. *)

val size : t -> int
val mem : t -> int -> int -> bool

val add : t -> int -> int -> unit
(** In-place insertion. *)

val of_pred : int -> (int -> int -> bool) -> t
val union : t -> t -> t
val union_many : t list -> t
val inter : t -> t -> t

val union_into : into:t -> t -> bool
(** [union_into ~into b] adds [b] into [into] in place; returns [true] if
    anything changed. *)

val equal : t -> t -> bool
val is_empty : t -> bool
val transitive_closure : t -> t
val transitive_closure_in_place : t -> unit

val add_edge_closed : t -> int -> int -> bool
(** [add_edge_closed r u v] adds the edge [u -> v] to a relation that is
    already transitively closed, restoring closure incrementally
    (O(n·w) per edge instead of a fresh Warshall pass).  Returns [true]
    if the edge was new.  The result is unspecified if [r] was not
    closed. *)

val add_edge_closed_meets : t -> int -> int -> t -> bool
(** [add_edge_closed_meets r u v s] is [add_edge_closed r u v], but
    returns whether some row the edge touched (row [u] and every row
    reaching [u]) shares a pair with the same row of [s] afterwards;
    [false] when the edge was already in [r].  So when [r] and [s] were
    disjoint, it tells whether they still are, in O(n·w) and without
    allocating. *)

val union_into_closed : into:t -> t -> bool
(** [union_into_closed ~into delta] adds every edge of [delta] into the
    transitively closed [into], maintaining closure per added edge;
    returns [true] if anything changed.  This is the closure cache the
    happens-before fixpoint leans on: rule-derived edges extend the
    closed relation instead of triggering a from-scratch closure per
    round. *)

val compose : t -> t -> t
(** Relational composition [a ; b]. *)

val compose3 : t -> t -> t -> t

val irreflexive : t -> bool
val has_reflexive : t -> bool

val is_acyclic : t -> bool
(** [is_acyclic r] holds when the transitive closure of [r] is
    irreflexive. *)

val iter : t -> (int -> int -> unit) -> unit
val fold : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
val to_list : t -> (int * int) list
val cardinal : t -> int

val restrict : ?src:(int -> bool) -> ?dst:(int -> bool) -> t -> t
(** [restrict ~src ~dst r] keeps the pairs of [r] whose source satisfies
    [src] and whose target satisfies [dst]; an omitted side keeps every
    position.  Each predicate is called once per position. *)

val converse : t -> t

val lift : classes:int array -> t -> t
(** [lift ~classes r] lifts [r] by the equivalence that puts [i] in the
    class named [classes.(i)] (a position): [(i, j)] is in the result iff
    it is in [r], or [i] and [j] lie in different classes and [r]
    relates some member of [i]'s class to some member of [j]'s.
    Computed once per class, not once per pair. *)

val filter : t -> (int -> int -> bool) -> t
val subset : t -> t -> bool
val pp : t Fmt.t
