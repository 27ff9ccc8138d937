(** Litmus test harness: a named program plus machine-checkable
    expectations — outcome verdicts, execution-trace claims, race claims.

    The paper's examples live in {!Catalog}; the systematic shape
    families in {!Shapes}. *)

open Tmx_core
open Tmx_exec

type expect = Allowed | Forbidden

val pp_expect : expect Fmt.t

type check =
  | Outcome_check of {
      model : Model.t;
      descr : string;
      cond : Outcome.t -> bool;
      expect : expect;
    }  (** does some consistent execution reach a matching outcome? *)
  | Exec_check of {
      model : Model.t;
      descr : string;
      pred : Trace.t -> bool;
      expect : expect;
    }
      (** does some consistent execution's trace satisfy the predicate?
          Used for claims about aborted transactions, whose register
          observations roll back and never reach an outcome. *)
  | Race_check of {
      model : Model.t;
      descr : string;
      cond : (Outcome.t -> bool) option;
      l : string list option;
      expect : [ `All_race_free | `Some_racy ];
    }  (** raciness of the executions matching [cond] *)
  | Mixed_race_check of { model : Model.t; descr : string; expect : bool }

val txn_reads : Trace.t -> int -> (string * int) list
(** The location/value pairs read by the transaction beginning at the
    given position. *)

val aborted_txn_with_reads : (string * int) list -> Trace.t -> bool
val plain_read_of : string -> int -> Trace.t -> bool

type t = {
  name : string;
  section : string;  (** paper locus, e.g. "§2 Example 2.1" *)
  description : string;
  program : Tmx_lang.Ast.program;
  checks : check list;
}

val model_of_check : check -> Model.t
val descr_of_check : check -> string

type check_result = { check : check; ok : bool; detail : string }

type report = {
  litmus : t;
  results : check_result list;
  truncated : bool;
  capped : bool;
  lint : Tmx_analysis.Lint.report;
      (** the static analyzer's verdict, recorded next to the exhaustive
          one (computed without enumeration) *)
}

val passed : report -> bool

val run :
  ?config:Enumerate.config ->
  ?enumerate:(config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> Enumerate.result) ->
  t ->
  report
(** Run every check, enumerating once per distinct model.

    [enumerate] (default [Enumerate.run], with [~races:true] under a
    model that has race or mixed-race checks) is how each per-model
    enumeration is obtained; [Tmx_service.Cache.memo_run] plugs in here
    to serve enumerations from the verdict cache (`tmx litmus --cache`)
    without this library depending on the service layer.  Any
    replacement must be extensionally equal to [Enumerate.run] — the
    report is trusted downstream — except that it may fill in
    [Enumerate.result.races]: race and mixed-race checks then read each
    execution's races from there instead of deriving its hb. *)

val pp_report : report Fmt.t
