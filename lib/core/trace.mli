(** Traces and the relations derived from them (§2 of the paper).

    A trace is a finite sequence of events; the paper's action id of an
    event is its position in the sequence.  This module derives the
    transaction structure (membership, resolution status, contiguity) and
    the base relations: index, init, program order, coherence ([ww]),
    reads-from ([wr]) and antidependency ([rw]). *)

type status = Committed | Aborted | Live

val pp_status : status Fmt.t

type t

val make : locs:string list -> Action.event list -> t
(** [make ~locs body] is the trace consisting of the WF1 initializing
    transaction (one write of [0] at timestamp [0] per location in [locs])
    followed by [body]. *)

val of_events : locs:string list -> Action.event list -> t
(** A raw trace with no implicit initializing transaction.  Used to build
    deliberately ill-formed traces in tests, and by the verdict cache to
    rebuild a stored trace (whose events include the initializing
    transaction). *)

val of_array : locs:string list -> Action.event array -> t
(** [of_events] over an array the caller has already filled, taken
    without a copy: the trace owns it, so the caller must not mutate it
    afterwards.  The enumerator builds every emitted trace this way,
    initializing transaction included.

    Cost: building a trace of [n] events is one scan that assigns each
    event its transaction and resolution status from its thread's
    previous event, three [n]-element arrays and O(n) time when threads
    interleave closely (O(n²) at worst); nothing is hashed.  Relations ([rel_*]) and
    whole-trace queries are computed on demand and not cached. *)

val init_events : string list -> Action.event list
(** The events of the WF1 initializing transaction. *)

val events : t -> Action.event array
val length : t -> int
val event : t -> int -> Action.event
val act : t -> int -> Action.t
val thread : t -> int -> Action.thread
val locs : t -> string list

(** {1 Transaction structure} *)

val txn_of : t -> int -> int
(** Position of the owning [Begin], or [-1] when the event is plain. *)

val is_transactional : t -> int -> bool
val is_plain : t -> int -> bool

val same_txn : t -> int -> int -> bool
(** The equivalence [tx~]: equal positions, or members of the same
    transaction. *)

val status : t -> int -> status option
val is_aborted : t -> int -> bool

val is_nonaborted : t -> int -> bool
(** Plain events count as nonaborted, as in the paper's definitions of
    conflict and antidependency. *)

val is_committed_or_live_txn : t -> int -> bool
(** Transactional and not aborted — the side condition of WF9/WF10 and of
    the [c]-lifted relations. *)

val is_init : t -> int -> bool
val resolution_of_txn : t -> int -> int option
val txn_touches : t -> int -> string -> bool
val txn_members : t -> int -> int list

val txns : t -> int list
(** Positions of all [Begin] events. *)

(** {1 Base relations (over positions)} *)

val rel_index : t -> Rel.t
val rel_init : t -> Rel.t
val rel_po : t -> Rel.t
val rel_ww : t -> Rel.t

val rel_wr : t -> Rel.t
(** [a wr b] iff the read [b] returns the value of the write [a], at
    [a]'s location and timestamp. *)

val rel_rw : t -> wr:Rel.t -> ww:Rel.t -> Rel.t
(** [rel_rw t ~wr ~ww], given [t]'s own [rel_wr] and [rel_ww]: [b rw c]
    iff [a wr b] and [a ww c] for some [a], and [c] is plain or
    nonaborted. *)

val wr_source : t -> int -> int option
(** [wr_source t b] is the write the read [b] takes its value from: the
    first [a] with [a wr b], if any (WF3 makes it unique). *)

(** {1 Whole-trace queries} *)

val writes_to : t -> string -> int list

val final_value : t -> string -> int option
(** The value of the nonaborted write with the greatest timestamp. *)

val final_memory : t -> string list -> (string * int) list
(** [final_memory t xs] pairs each location of [xs] with its
    [final_value], [0] where it has none: the final memory of an
    outcome, found in one scan of the trace. *)

val txn_contiguous : t -> int -> bool
val all_txns_contiguous : t -> bool
val all_txns_resolved : t -> bool

(** {1 Surgery} *)

val sub : t -> (int -> bool) -> t
(** Keep only the selected positions (re-analyzed as a fresh trace). *)

val drop_aborted : t -> t
(** Remove every event of every aborted transaction (Theorem 4.2). *)

val permute : t -> int array -> t
(** [permute t perm] reorders events; [perm.(new_position) = old_position]. *)

val is_order_preserving : t -> int array -> bool
(** Does the permutation preserve program order (§4)? *)

val pp : t Fmt.t
val pp_compact : t Fmt.t
