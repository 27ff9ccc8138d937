(** Program-level analyses: allowed/forbidden outcome verdicts, race
    detection, and the empirical checks of the paper's theorems. *)

open Tmx_core

type cond = Outcome.t -> bool

val allowed :
  ?config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> cond -> bool

val forbidden :
  ?config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> cond -> bool

val execution_races :
  ?l:string list -> Model.t -> Trace.t -> (int * int) list
(** The L-races of one trace under the model's happens-before, derived
    from the trace alone ([Lift.make], [Hb.compute], [Race.races]): the
    independent reference that [Enumerate.run ~races:true] is held to.
    {!racy}, {!mixed_racy} and {!race_witness} read the enumerator's
    races instead. *)

val racy :
  ?config:Enumerate.config ->
  ?l:string list ->
  Model.t ->
  Tmx_lang.Ast.program ->
  bool
(** Does some consistent execution contain an L-race? *)

val mixed_racy :
  ?config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> bool

type race_witness = {
  outcome : Outcome.t;  (** the racy execution's outcome *)
  loc : string option;  (** the raced location, when the action names one *)
  threads : int * int;  (** the two racing threads *)
  mixed : bool;  (** is the reported pair a mixed race (§5)? *)
}

val pp_race_witness : race_witness Fmt.t

val race_witness :
  ?config:Enumerate.config ->
  ?l:string list ->
  ?mixed_only:bool ->
  Model.t ->
  Tmx_lang.Ast.program ->
  race_witness option
(** The first racy execution, as a concrete counterexample — [None] iff
    the program is race-free (mixed-race-free with [mixed_only]) under
    the model.  The repair search's oracle: a [Some] justifies
    discarding a candidate and names the threads whose accesses the next
    candidate must address. *)

(** {1 SC-LTRF (Theorem 4.1, global corollary)} *)

type sc_ltrf_report = {
  sc_racy : bool;
      (** some transactionally sequential execution has a race *)
  weak_exists : bool;
      (** some model execution contains a nonaborted Loc-weak action *)
  model_outcomes : Outcome.t list;
  sc_outcomes : Outcome.t list;
  outcomes_contained : bool;  (** model outcomes ⊆ sequential outcomes *)
  theorem_holds : bool;
}

val check_sc_ltrf :
  ?config:Enumerate.config ->
  ?sc_config:Sc.config ->
  Model.t ->
  Tmx_lang.Ast.program ->
  sc_ltrf_report
(** If no transactionally sequential execution races, then the model
    admits no nonaborted weak action and its outcome set is sequential.
    Weak actions in aborted transactions are exempt: aborted actions
    never conflict, so the theorem's conclusion cannot cover them (and
    their observations roll back). *)

(** {1 Theorem 4.2 and Lemma 5.1} *)

val check_theorem_4_2 :
  ?config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> bool
(** Dropping aborted transactions preserves consistency, over every
    consistent execution of the program. *)

type lemma_5_1_report = {
  executions_checked : int;
  mixed_race_free : int;
  pm_consistent : int;
  holds : bool;
}

val check_lemma_5_1 :
  ?config:Enumerate.config -> Tmx_lang.Ast.program -> lemma_5_1_report
(** Every implementation-model execution without mixed races remains
    consistent in the programmer model once quiescence fences are
    dropped. *)
