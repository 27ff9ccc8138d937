(** Counterexample-guided minimal race repair, verified by the
    enumerator.

    [run] searches edit subsets over {!Tmx_opt.Patch}'s edit language —
    per-site fence insertion, promotion into fresh atomic blocks,
    absorption into adjacent ones — for a minimal (fewest edits, then
    fewest fences) repair that the reduced enumerator certifies
    race-free under the requested model and goal.  {!Lint} findings seed
    the candidates (lint soundness guarantees the pool contains a
    sufficient repair); {!Order}'s exclusions prune statically; the
    enumerator ({!Tmx_exec.Verdict.race_witness}) is consulted only on
    the frontier, memoized by structural digest, and every discarded
    candidate is justified by a concrete racy execution. *)

open Tmx_lang
open Tmx_opt

type goal =
  | Mixed  (** repair until no mixed race (§5) remains — the default *)
  | All  (** repair until no L-race at all remains *)

val goal_name : goal -> string
(** ["mixed"], ["all"]. *)

val goal_of_string : string -> goal option

type discard = {
  subset : Patch.edit list;
  witness : Tmx_exec.Verdict.race_witness;
      (** the concrete racy execution that killed the candidate *)
}

type t = {
  original : Ast.program;
  repaired : Ast.program;
  edits : Patch.edit list;  (** [] iff the program was already clean *)
  certificate : string;
      (** hex digest binding the repaired program's structural form, the
          model, the oracle's enumeration config and the goal *)
  candidates : int;  (** candidate subsets examined (incl. filtered) *)
  oracle_calls : int;  (** enumerator invocations after memoization *)
  discards : discard list;  (** most recent first *)
}

type cost = { n_edits : int; n_fences : int; n_promotes : int; n_absorbs : int }

val cost : t -> cost

val certificate_of :
  config:Tmx_exec.Enumerate.config ->
  model:Tmx_core.Model.t ->
  goal:goal ->
  Ast.program ->
  string

val run :
  ?config:Tmx_exec.Enumerate.config ->
  ?goal:goal ->
  ?max_edits:int ->
  ?promote:bool ->
  Tmx_core.Model.t ->
  Ast.program ->
  (t, string) result
(** Find a minimal repair.  [goal] defaults to [Mixed]; [max_edits]
    defaults to the candidate-pool size; [promote:false] restricts the
    search to fence insertions (the paper's privatization story).  The
    result's edit list is 1-minimal: removing any single edit
    reintroduces a race (the final greedy minimization loop re-verifies
    each removal with the oracle).  [Error] when the program is racy but
    no repair exists in the candidate space within [max_edits]. *)

val check :
  ?config:Tmx_exec.Enumerate.config ->
  ?goal:goal ->
  Tmx_core.Model.t ->
  t ->
  (unit, string) result
(** Independent re-verification of the repair-sound contract, with no
    state shared with the search: the certificate recomputes, the
    repaired program is race-free under the goal, and dropping any
    single edit reintroduces a race. *)

val pp : t Fmt.t
val to_json : model:Tmx_core.Model.t -> goal:goal -> t -> string

val error_to_json : program:Tmx_lang.Ast.program -> string -> string
(** The JSON entry [{"program", "error"}] for a failed synthesis. *)
