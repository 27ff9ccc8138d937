(* Program-level analyses: allowed/forbidden outcome verdicts, race
   detection, and the empirical checks of the paper's theorems
   (SC-LTRF, Theorem 4.2, Lemma 5.1). *)

open Tmx_core

type cond = Outcome.t -> bool

(* -- verdicts -------------------------------------------------------------- *)

let allowed ?config model program cond =
  Enumerate.allowed (Enumerate.run ?config model program) cond

let forbidden ?config model program cond = not (allowed ?config model program cond)

(* -- races ------------------------------------------------------------------ *)

let execution_races ?l model (trace : Trace.t) =
  let ctx = Lift.make trace in
  let hb = Hb.compute model ctx in
  Race.races ?l trace hb

(* Each execution with its races at L = Loc, read off the enumerator's
   own hb ([Enumerate.run ~races:true]). *)
let with_races ?config model program =
  let result = Enumerate.run ?config ~races:true model program in
  List.combine result.executions (Array.to_list (Option.get result.races))

let racy ?config ?l model program =
  List.exists
    (fun ((e : Enumerate.execution), races) -> Race.restrict ?l e.trace races <> [])
    (with_races ?config model program)

let mixed_racy ?config model program =
  List.exists
    (fun ((e : Enumerate.execution), races) -> List.exists (Race.is_mixed e.trace) races)
    (with_races ?config model program)

(* -- concrete race witnesses -------------------------------------------------- *)

type race_witness = {
  outcome : Outcome.t;
  loc : string option;
  threads : int * int;
  mixed : bool;
}

let pp_race_witness ppf w =
  let t1, t2 = w.threads in
  Fmt.pf ppf "%s race on %s between t%d and t%d under outcome %a"
    (if w.mixed then "mixed" else "L-")
    (Option.value w.loc ~default:"?")
    t1 t2 Outcome.pp w.outcome

(* The first racy execution, as a concrete counterexample: the repair
   search uses this to justify discarding a candidate and to steer which
   edits the next candidate must contain.  With [mixed_only] the search
   is restricted to mixed races (§5); otherwise any L-race counts, and
   [mixed] records which kind the reported pair is. *)
let race_witness ?config ?l ?(mixed_only = false) model program =
  List.find_map
    (fun ((e : Enumerate.execution), races) ->
      let pairs =
        if mixed_only then List.filter (Race.is_mixed e.trace) races
        else Race.restrict ?l e.trace races
      in
      match pairs with
      | [] -> None
      | (b, c) :: _ ->
          Some
            {
              outcome = e.outcome;
              loc = Action.loc_of (Trace.act e.trace b);
              threads = (Trace.thread e.trace b, Trace.thread e.trace c);
              mixed = Race.is_mixed e.trace (b, c);
            })
    (with_races ?config model program)

(* -- SC-LTRF ----------------------------------------------------------------- *)

type sc_ltrf_report = {
  sc_racy : bool; (* some transactionally sequential execution has a race *)
  weak_exists : bool; (* some model execution contains a Loc-weak action *)
  model_outcomes : Outcome.t list;
  sc_outcomes : Outcome.t list;
  outcomes_contained : bool; (* model outcomes ⊆ sequential outcomes *)
  theorem_holds : bool;
}

(* The empirical content of Theorem 4.1 at L = Loc and σ = the initial
   prefix: if no transactionally sequential execution has a race, then
   (a) the model admits no execution with an L-weak action, and (b) the
   model's outcome set coincides with the sequential one. *)
let check_sc_ltrf ?config ?sc_config model program =
  let result = Enumerate.run ?config model program in
  let sc = Sc.run ?config:sc_config program in
  let sc_racy =
    List.exists
      (fun (e : Sc.execution) -> execution_races model e.trace <> [])
      sc.executions
  in
  (* Weak actions inside aborted transactions are excluded: aborted
     actions never participate in races (they never conflict), their
     register observations roll back, and Theorem 4.2 lets them be erased
     — so the theorem's conclusion cannot and need not cover them. *)
  let weak_exists =
    List.exists
      (fun (e : Enumerate.execution) ->
        List.exists
          (fun i -> not (Trace.is_aborted e.trace i))
          (Sequentiality.weak_positions e.trace))
      result.executions
  in
  let model_outcomes = Enumerate.outcomes result in
  let sc_outcomes = Sc.outcomes sc in
  let outcomes_contained =
    List.for_all
      (fun o -> List.exists (Outcome.equal o) sc_outcomes)
      model_outcomes
  in
  {
    sc_racy;
    weak_exists;
    model_outcomes;
    sc_outcomes;
    outcomes_contained;
    theorem_holds = sc_racy || ((not weak_exists) && outcomes_contained);
  }

(* -- Theorem 4.2 -------------------------------------------------------------- *)

(* Removing aborted transactions preserves consistency. *)
let check_theorem_4_2 ?config model program =
  let result = Enumerate.run ?config model program in
  List.for_all
    (fun (e : Enumerate.execution) ->
      Consistency.consistent model (Trace.drop_aborted e.trace))
    result.executions

(* -- Lemma 5.1 ----------------------------------------------------------------- *)

type lemma_5_1_report = {
  executions_checked : int;
  mixed_race_free : int;
  pm_consistent : int;
  holds : bool;
}

(* Every implementation-model execution without mixed races remains
   consistent in the programmer model once quiescence fences are
   dropped.  Each execution's mixed races are read off the races the
   enumerator took from its own hb. *)
let check_lemma_5_1 ?config program =
  let checked = ref 0 and free = ref 0 and consistent = ref 0 in
  List.iter
    (fun ((e : Enumerate.execution), races) ->
      incr checked;
      if not (List.exists (Race.is_mixed e.trace) races) then begin
        incr free;
        let defenced =
          Trace.sub e.trace (fun i ->
              not (Action.is_qfence (Trace.act e.trace i)))
        in
        if Consistency.consistent Model.programmer defenced then incr consistent
      end)
    (with_races ?config Model.implementation program);
  {
    executions_checked = !checked;
    mixed_race_free = !free;
    pm_consistent = !consistent;
    holds = !free = !consistent;
  }
