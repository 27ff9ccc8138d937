(** L-races (§4) and mixed races (§5).

    Two actions are in L-conflict if they access the same location in L,
    at least one is plain, at least one is a write, and neither is
    aborted.  [(b, c)] is an L-race if they are in L-conflict, [b]
    precedes [c] in the trace, and not [b hb c].  Two transactional
    actions are never in a race. *)

val l_conflict : ?l:string list -> Trace.t -> int -> int -> bool
(** Omitting [l] means L = all locations. *)

val races : ?l:string list -> Trace.t -> Rel.t -> (int * int) list
(** All L-races of the trace under the given happens-before. *)

val has_race : ?l:string list -> Trace.t -> Rel.t -> bool

val mixed_races : Trace.t -> Rel.t -> (int * int) list
(** Races between a transactional write and a plain write (§5). *)

val has_mixed_race : Trace.t -> Rel.t -> bool
