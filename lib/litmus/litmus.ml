(* Litmus test harness: a named program plus a list of machine-checkable
   expectations — outcome verdicts (allowed/forbidden under a model),
   per-execution race-freedom claims, and mixed-race claims.

   Race and mixed-race checks are filters of one execution's races at
   L = Loc: an L-race is a race on a location in L (Race.restrict), a
   mixed race one between a transactional and a plain write
   (Race.is_mixed).  When the enumeration comes from the verdict cache
   it carries those races ([Enumerate.result.races]) and the checks read
   them; otherwise each execution's hb is derived here.

   The catalog of the paper's examples lives in [Catalog]. *)

open Tmx_core
open Tmx_exec

type expect = Allowed | Forbidden

let pp_expect ppf = function
  | Allowed -> Fmt.string ppf "allowed"
  | Forbidden -> Fmt.string ppf "forbidden"

type check =
  | Outcome_check of {
      model : Model.t;
      descr : string;
      cond : Outcome.t -> bool;
      expect : expect;
    }
  | Exec_check of {
      model : Model.t;
      descr : string;
      pred : Trace.t -> bool;
      expect : expect;
    }
    (* does some consistent execution's trace satisfy [pred]?  Used for
       claims about aborted transactions, whose register observations
       roll back and so never reach an outcome. *)
  | Race_check of {
      model : Model.t;
      descr : string;
      cond : (Outcome.t -> bool) option; (* restrict to matching executions *)
      l : string list option;
      expect : [ `All_race_free | `Some_racy ];
    }
  | Mixed_race_check of { model : Model.t; descr : string; expect : bool }

(* The location/value pairs read by transaction [b]. *)
let txn_reads trace b =
  List.filter_map
    (fun i ->
      match Trace.act trace i with
      | Action.Read { loc; value; _ } -> Some (loc, value)
      | _ -> None)
    (Trace.txn_members trace b)

(* Does the trace contain an aborted transaction whose reads include all
   the given location/value pairs? *)
let aborted_txn_with_reads pairs trace =
  List.exists
    (fun b ->
      Trace.status trace b = Some Trace.Aborted
      &&
      let reads = txn_reads trace b in
      List.for_all (fun p -> List.mem p reads) pairs)
    (Trace.txns trace)

(* Does the trace contain a plain read of the given location/value? *)
let plain_read_of x v trace =
  let n = Trace.length trace in
  let rec go i =
    i < n
    && ((Trace.is_plain trace i
        &&
        match Trace.act trace i with
        | Action.Read { loc; value; _ } -> String.equal loc x && value = v
        | _ -> false)
       || go (i + 1))
  in
  go 0

type t = {
  name : string;
  section : string; (* paper locus, e.g. "§2 Example 2.1" *)
  description : string;
  program : Tmx_lang.Ast.program;
  checks : check list;
}

let model_of_check = function
  | Outcome_check { model; _ }
  | Exec_check { model; _ }
  | Race_check { model; _ }
  | Mixed_race_check { model; _ } ->
      model

let descr_of_check = function
  | Outcome_check { descr; _ }
  | Exec_check { descr; _ }
  | Race_check { descr; _ }
  | Mixed_race_check { descr; _ } ->
      descr

type check_result = {
  check : check;
  ok : bool;
  detail : string;
}

type report = {
  litmus : t;
  results : check_result list;
  truncated : bool;
  capped : bool;
  lint : Tmx_analysis.Lint.report;
      (* the static verdict, recorded next to the exhaustive one; no
         enumeration happens on this path *)
}

let passed report = List.for_all (fun r -> r.ok) report.results

(* The races at L = Loc of execution [i] of [result] under [model]: the
   pairs the verdict cache stored with the enumeration, when it came
   from the cache; else derived from the trace's hb. *)
let races_of model (result : Enumerate.result) i (e : Enumerate.execution) =
  match result.races with
  | Some races -> races.(i)
  | None -> Verdict.execution_races model e.trace

let run ?(config = Enumerate.default_config)
    ?(enumerate = fun ~config m p -> Enumerate.run ~config m p) litmus =
  (* enumerate once per distinct model *)
  let cache : (string, Enumerate.result) Hashtbl.t = Hashtbl.create 4 in
  let result_for model =
    match Hashtbl.find_opt cache model.Model.name with
    | Some r -> r
    | None ->
        let r = enumerate ~config model litmus.program in
        Hashtbl.add cache model.Model.name r;
        r
  in
  let run_check check =
    let model = model_of_check check in
    let result = result_for model in
    match check with
    | Outcome_check { cond; expect; _ } ->
        let is_allowed = Enumerate.allowed result cond in
        let ok =
          match expect with Allowed -> is_allowed | Forbidden -> not is_allowed
        in
        {
          check;
          ok;
          detail =
            Fmt.str "expected %a, observed %s" pp_expect expect
              (if is_allowed then "allowed" else "forbidden");
        }
    | Exec_check { pred; expect; _ } ->
        let exists =
          List.exists
            (fun (e : Enumerate.execution) -> pred e.trace)
            result.executions
        in
        let ok = match expect with Allowed -> exists | Forbidden -> not exists in
        {
          check;
          ok;
          detail =
            Fmt.str "expected execution %a, observed %s" pp_expect expect
              (if exists then "present" else "absent");
        }
    | Race_check { cond; l; expect; _ } ->
        let matches (e : Enumerate.execution) =
          match cond with None -> true | Some c -> c e.outcome
        in
        let matching = ref 0 and racy_count = ref 0 in
        List.iteri
          (fun i e ->
            if matches e then begin
              incr matching;
              if Race.restrict ?l e.trace (races_of model result i e) <> [] then
                incr racy_count
            end)
          result.executions;
        let ok =
          match expect with
          | `All_race_free -> !racy_count = 0 && !matching > 0
          | `Some_racy -> !racy_count > 0
        in
        {
          check;
          ok;
          detail = Fmt.str "%d/%d matching executions racy" !racy_count !matching;
        }
    | Mixed_race_check { expect; _ } ->
        let rec mixed i = function
          | [] -> false
          | (e : Enumerate.execution) :: rest ->
              List.exists (Race.is_mixed e.trace) (races_of model result i e)
              || mixed (i + 1) rest
        in
        let has = mixed 0 result.executions in
        { check; ok = has = expect; detail = Fmt.str "mixed race: %b" has }
  in
  let results = List.map run_check litmus.checks in
  let truncated =
    Hashtbl.fold (fun _ (r : Enumerate.result) acc -> acc || r.truncated) cache false
  in
  let capped =
    Hashtbl.fold (fun _ (r : Enumerate.result) acc -> acc || r.capped) cache false
  in
  {
    litmus;
    results;
    truncated;
    capped;
    lint = Tmx_analysis.Lint.lint litmus.program;
  }

let pp_report ppf report =
  let status = if passed report then "PASS" else "FAIL" in
  Fmt.pf ppf "@[<v>[%s] %s (%s)%s%s@,%a@,  static: %a@]" status
    report.litmus.name report.litmus.section
    (if report.truncated then " [truncated]" else "")
    (if report.capped then " [capped]" else "")
    Fmt.(
      list ~sep:cut (fun ppf r ->
          Fmt.pf ppf "  %s [%s] %s: %s"
            (if r.ok then "ok  " else "FAIL")
            (model_of_check r.check).Model.name (descr_of_check r.check)
            r.detail))
    report.results Tmx_analysis.Lint.pp_verdict report.lint
