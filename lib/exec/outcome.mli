(** Final-state observations of an execution: per-thread register values
    and the final memory (the nonaborted write with the greatest
    timestamp per location).

    Registers written only inside aborted transactions do not appear:
    aborts roll register state back, as in a real STM. *)

type t = { regs : (string * int) list array; mem : (string * int) list }
(** Outcomes are values.  The enumerator builds every outcome of one
    combination of thread paths on that combination's one [regs] array
    ({!of_registers}), so outcomes share it: never mutate [regs]. *)

val make : envs:(string * int) list list -> mem:(string * int) list -> t

val registers : (string * int) list list -> (string * int) list array
(** The [regs] of [make ~envs]: each thread's bindings without zeros,
    sorted. *)

val of_registers : (string * int) list array -> mem:(string * int) list -> t
(** [of_registers (registers envs) ~mem] is [make ~envs ~mem], with the
    array taken as it is, not copied: compute {!registers} once and every
    outcome built from it shares it. *)

val reg : t -> int -> string -> int
(** [reg o thread r] is the final value of register [r] on [thread]
    ([0] when unbound or the thread does not exist). *)

val mem : t -> string -> int
(** Final memory value ([0] when the location is unknown). *)

val compare_t : t -> t -> int
(** The order of [compare (a.regs, a.mem) (b.regs, b.mem)]. *)

val equal : t -> t -> bool

val dedup : t list -> t list
(** Sort and deduplicate. *)

val diff : t list -> t list -> t list
(** [diff xs ys] is the outcomes of [xs] not admitted by [ys] — the
    witnesses a differential oracle reports when one semantic engine
    escapes another. *)

val subset : t list -> t list -> bool
(** [diff xs ys = []]. *)

val pp : t Fmt.t
