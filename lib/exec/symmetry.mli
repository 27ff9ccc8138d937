(** Symmetry reduction for the enumerator: detect thread permutations
    that map the unfolded program onto itself (up to a bijective
    renaming of locations), group the thread-path combinations into
    orbits under the generated group, and enumerate only one
    representative per orbit.

    A permutation π of threads is an automorphism when, for every thread
    i and path index a, the a-th path of thread i and the a-th path of
    thread π(i) have positionally identical proto lists modulo one
    global location bijection σ (values must match exactly — reads-from
    and coherence depend on them).  Such a π lifts to an isomorphism of
    candidate execution graphs preserving program order, reads-from,
    coherence and transaction structure, hence every consistency axiom:
    the candidates of the image combo are exactly the renamed candidates
    of the representative, with identical verdicts
    (docs/ENUMERATION.md).  The enumerator therefore replays the
    representative's consistent selections onto the image combo instead
    of re-searching its candidate space. *)

val find : Proto.path list list -> int array list
(** Non-identity automorphisms of the unfolded program (per-thread path
    lists).  The search enumerates shape-compatible permutations with
    backtracking; below 2 or beyond 8 threads it reports none (symmetry
    reduction degrades to plain reduction, soundly). *)

(** {1 Orbits of combo indices under the generated group}

    Combos are indexed in mixed radix over per-thread path choices,
    thread 0 most significant — the enumeration order of the product. *)

type t

val orbits : radices:int array -> int array list -> t option
(** Union-find over the edges s → π·s for each generator π, with each
    orbit's representative its smallest index (so representatives
    precede their images in enumeration order).  [None] when there are
    no generators or the combo space is too large for the orbit tables
    to pay for themselves. *)

val rep : t -> int -> int
(** The orbit representative (smallest combo index) of a combo. *)

val perm : t -> int -> int array
(** The thread permutation mapping a combo's representative onto it. *)

val event_map : from:Combo.t -> to_:Combo.t -> int array -> int array
(** [event_map ~from ~to_ pi]: the image combo's event for each event of
    the representative — event (thread i, offset o) maps to
    (thread π i, o). *)

val map_selection : to_:Combo.t -> int array -> Combo.selection -> Combo.selection
(** Rename a representative combo's selection into the image combo's
    event indices through an {!event_map}; location keys are re-read off
    the image's own events, so σ never needs materializing. *)
