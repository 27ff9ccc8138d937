(** Actions and events of the trace semantics (§2 of the paper, extended
    with the §5 quiescence fence).

    An {e action} is a write, read, transaction begin, commit, abort, or
    quiescence fence.  Reads and writes carry the rational timestamp that
    encodes coherence ([ww]) and reads-from ([wr]) as in the paper.  An
    {e event} pairs an action with its thread; the unique action id of the
    paper is the event's position in the trace.

    Commit/abort actions carry no transaction name: by WF5 a resolution
    matches the latest unresolved begin of its thread, so the association
    is structural and survives the order-preserving permutations of §4. *)

type loc = string
type value = int
type thread = int

val init_thread : thread
(** The reserved thread of the initializing transaction ([-1]). *)

type t =
  | Write of { loc : loc; value : value; ts : Rat.t }
  | Read of { loc : loc; value : value; ts : Rat.t }
  | Begin
  | Commit
  | Abort
  | Qfence of loc

val is_write : t -> bool
val is_read : t -> bool
val is_memory : t -> bool
val is_begin : t -> bool
val is_qfence : t -> bool

val loc_of : t -> loc option
val value_of : t -> value option

val touches : loc -> t -> bool
(** [touches x a] holds when [a] is a read or write on location [x].
    Fences and transaction boundaries touch nothing. *)

val pp : t Fmt.t

type event = { thread : thread; act : t }

val pp_event : event Fmt.t
