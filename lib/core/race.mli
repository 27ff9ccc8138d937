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

val restrict : ?l:string list -> Trace.t -> (int * int) list -> (int * int) list
(** The pairs of a race list whose location is in [l]: on the races at
    L = every location, [restrict ?l t (races t hb) = races ?l t hb].
    Omitting [l] returns the list as is. *)

val is_mixed : Trace.t -> int * int -> bool
(** Is the race a mixed race (§5): a transactional write against a
    plain write? *)

val mixed_races : Trace.t -> Rel.t -> (int * int) list
(** Races between a transactional write and a plain write (§5):
    [List.filter (is_mixed t) (races t hb)]. *)

val has_mixed_race : Trace.t -> Rel.t -> bool
