open Tmx_core
open Tmx_lang
open Tmx_exec

type verdict = Pass | Fail of string

type ctx = {
  jobs : int;
  seed : int;
  run : Enumerate.config -> Model.t -> Ast.program -> Enumerate.result;
}

type t = { name : string; descr : string; check : ctx -> Ast.program -> verdict }

let make_ctx ?(run = fun config m p -> Enumerate.run ~config m p) ~jobs ~seed ()
    =
  { jobs; seed; run }

let models =
  [ Model.programmer; Model.implementation; Model.bare; Model.strongest ]

let seq_config = { Enumerate.default_config with jobs = 1 }

(* a random order-preserving merge of the trace's per-thread sequences,
   keeping the initializing thread first (the same construction the
   permutation-invariance test uses) *)
let random_merge st (trace : Trace.t) =
  let n = Trace.length trace in
  let by_thread = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let th = Trace.thread trace i in
    Hashtbl.replace by_thread th
      (i :: Option.value (Hashtbl.find_opt by_thread th) ~default:[])
  done;
  let queues =
    Hashtbl.fold (fun th evs acc -> (th, ref (List.rev evs)) :: acc) by_thread []
  in
  let perm = ref [] in
  (match List.assoc_opt Action.init_thread queues with
  | Some q ->
      perm := List.rev !q;
      q := []
  | None -> ());
  let rec go () =
    let nonempty = List.filter (fun (_, q) -> !q <> []) queues in
    if nonempty <> [] then begin
      let _, q = List.nth nonempty (Random.State.int st (List.length nonempty)) in
      (match !q with
      | i :: rest ->
          perm := i :: !perm;
          q := rest
      | [] -> ());
      go ()
    end
  in
  go ();
  Array.of_list (List.rev !perm)

(* -- enum-naive --------------------------------------------------------------- *)

(* The naive reference is deliberately O(n^4)-per-trace, and a fuzzed
   program can enumerate thousands of executions; checking every one
   would dominate the whole campaign.  Stride-sample a deterministic
   spread instead, and skip traces past [naive_trace_limit] events — the
   reference's path-enumerating acyclicity check is exponential in trace
   length, and the cross-check earns its keep on small traces (failures
   shrink small anyway).  Different seeds still cover different
   programs, so the campaign as a whole keeps its coverage. *)
let naive_sample_budget = 6

let naive_trace_limit = 14

let stride_sample k xs =
  let n = List.length xs in
  if n <= k then xs
  else
    let stride = n / k in
    List.filteri (fun i _ -> i mod stride = 0) xs |> List.filteri (fun i _ -> i < k)

let check_enum_naive ctx (p : Ast.program) =
  let st = Random.State.make [| 0x6e61; ctx.seed |] in
  let fail = ref None in
  let record msg = if !fail = None then fail := Some msg in
  List.iter
    (fun (model : Model.t) ->
      if !fail = None then begin
        let r = ctx.run seq_config model p in
        List.iteri
          (fun idx (e : Enumerate.execution) ->
            if !fail = None && Trace.length e.trace <= naive_trace_limit
            then begin
              if not (Naive.consistent_axioms model e.trace) then
                record
                  (Fmt.str
                     "%s: enumerated execution %d (outcome %a) violates the \
                      naive axioms"
                     model.Model.name idx Outcome.pp e.outcome);
              (* re-merge the trace and compare the full optimized verdict
                 with the naive one, both directions *)
              if idx < 2 then begin
                let perm = random_merge st e.trace in
                if Trace.is_order_preserving e.trace perm then begin
                  let t' = Trace.permute e.trace perm in
                  let fast = Consistency.consistent model t' in
                  let naive = Naive.consistent model t' in
                  if fast <> naive then
                    record
                      (Fmt.str
                         "%s: optimized/naive verdicts split on a re-merge \
                          of execution %d (fast %b, naive %b)"
                         model.Model.name idx fast naive)
                end
              end
            end)
          (stride_sample naive_sample_budget r.executions)
      end)
    models;
  match !fail with None -> Pass | Some m -> Fail m

(* -- machine-enum ------------------------------------------------------------- *)

let check_machine_enum ctx (p : Ast.program) =
  let m = Tmx_machine.Machine.run p in
  let r = ctx.run seq_config Model.implementation p in
  let a = Enumerate.outcomes r in
  match Outcome.diff m.outcomes a with
  | o :: _ ->
      Fail
        (Fmt.str "machine outcome %a not admitted by the axiomatic im"
           Outcome.pp o)
  | [] ->
      if m.truncated || m.capped || r.truncated || r.capped then Pass
      else begin
        match Outcome.diff a m.outcomes with
        | o :: _ ->
            Fail
              (Fmt.str "axiomatic im outcome %a unreachable by the machine"
                 Outcome.pp o)
        | [] -> Pass
      end

(* -- stmsim-enum -------------------------------------------------------------- *)

(* every commit strategy must stay within the axiomatic im; partial runs
   with a small checkpoint budget so both the checkpoint-restore and the
   budget-exceeded full-abort paths get exercised *)
let stmsim_modes =
  let open Tmx_stmsim.Stmsim in
  [
    ("lazy", { default_config with strategy = Lazy });
    ("lazy+atomic-commit", { default_config with strategy = Lazy; atomic_commit = true });
    ("partial", { default_config with strategy = Partial; checkpoints = 2 });
    ("norec", { default_config with strategy = Norec });
  ]

(* name which budget clipped the state space — a fuel-exhausted run and a
   retry-starved run need different knobs to reproduce at full depth *)
let budget_note (s : Tmx_stmsim.Stmsim.result) =
  match (s.fuel_exhausted, s.retries_exhausted) with
  | true, true -> " [fuel and retry budgets hit]"
  | true, false -> " [fuel budget hit]"
  | false, true -> " [retry budget hit]"
  | false, false -> ""

let check_stmsim_enum ctx (p : Ast.program) =
  let a = Enumerate.outcomes (ctx.run seq_config Model.implementation p) in
  let rec go = function
    | [] -> Pass
    | (mode, config) :: rest -> (
        let s = Tmx_stmsim.Stmsim.run ~config p in
        match Outcome.diff s.outcomes a with
        | o :: _ ->
            Fail
              (Fmt.str "stm %s outcome %a not admitted by the axiomatic im%s"
                 mode Outcome.pp o (budget_note s))
        | [] -> go rest)
  in
  go stmsim_modes

(* -- lint-sound --------------------------------------------------------------- *)

let check_lint_sound ctx (p : Ast.program) =
  let r = Tmx_analysis.Lint.lint p in
  let has_mixed_finding = Tmx_analysis.Lint.mixed_count r > 0 in
  let fail = ref None in
  let record msg = if !fail = None then fail := Some msg in
  List.iter
    (fun (model : Model.t) ->
      if !fail = None then
        let result = ctx.run seq_config model p in
        List.iter
          (fun (e : Enumerate.execution) ->
            if !fail = None then begin
              List.iter
                (fun (i, _) ->
                  let loc =
                    match Trace.act e.trace i with
                    | Action.Read { loc; _ } | Action.Write { loc; _ } -> loc
                    | _ -> "?"
                  in
                  if not (Tmx_analysis.Lint.covers r loc) then
                    record
                      (Fmt.str "unflagged L-race on %s under %s" loc
                         model.Model.name))
                (Verdict.execution_races model e.trace);
              let ctx' = Lift.make e.trace in
              let hb = Hb.compute model ctx' in
              if Race.has_mixed_race e.trace hb && not has_mixed_finding then
                record
                  (Fmt.str "mixed race without a mixed finding under %s"
                     model.Model.name)
            end)
          result.executions)
    models;
  match !fail with None -> Pass | Some m -> Fail m

(* -- jobs-det ----------------------------------------------------------------- *)

(* The models the two enumerator oracles judge under: pm, and the
   strongest variant, whose hb rules and anti axioms exercise every
   branch of the reduced enumerator's leaf check. *)
let det_models = [ Model.programmer; Model.strongest ]

(* An execution as the enumerator oracles compare it: its whole trace
   and its outcome. *)
let exec_key (e : Enumerate.execution) =
  Fmt.str "%a|%a" Trace.pp e.trace Outcome.pp e.outcome

(* The first failing model's verdict, else [Pass]. *)
let under_models check =
  let rec go = function
    | [] -> Pass
    | (model : Model.t) :: rest -> (
        match check model with
        | Pass -> go rest
        | Fail m -> Fail (Fmt.str "%s (under %s)" m model.name))
  in
  go det_models

(* NB: calls [Enumerate.run] directly, not [ctx.run] — this oracle's
   claim is about the enumerator itself, so serving either side from a
   cache would make it vacuous. *)
let check_jobs_det ctx (p : Ast.program) =
  let jobs = max 2 ctx.jobs in
  under_models (fun model ->
      let r1 = Enumerate.run ~config:seq_config model p in
      let rn =
        Enumerate.run ~config:{ Enumerate.default_config with jobs } model p
      in
      if r1.graphs <> rn.graphs then
        Fail
          (Fmt.str "graphs: %d with jobs=1, %d with jobs=%d" r1.graphs rn.graphs
             jobs)
      else if r1.explored <> rn.explored then
        Fail
          (Fmt.str "explored: %d with jobs=1, %d with jobs=%d" r1.explored
             rn.explored jobs)
      else if r1.capped <> rn.capped || r1.truncated <> rn.truncated then
        Fail "cap/truncation flags differ between jobs=1 and jobs=N"
      else if List.length r1.executions <> List.length rn.executions then
        Fail
          (Fmt.str "%d executions with jobs=1, %d with jobs=%d"
             (List.length r1.executions)
             (List.length rn.executions)
             jobs)
      else if
        List.map exec_key r1.executions <> List.map exec_key rn.executions
      then Fail "executions (trace or order) differ between jobs=1 and jobs=N"
      else Pass)

(* -- reduction-det ------------------------------------------------------------ *)

(* Like jobs-det, calls [Enumerate.run] directly: the claim is about the
   enumerator's reduction strategies, so a cache would make it vacuous.
   [Dpor] promises bit-identical results to the unreduced reference —
   executions in the same order.  [Dpor_sym] promises the same verdicts
   and candidate accounting with the execution multiset preserved (the
   order within a symmetry orbit is the representative's).  Each
   strategy also takes every execution's races from its own hb (the
   trace's, the leaf's, a representative's leaf renamed through π): they
   must agree across strategies, execution by execution, and with the
   races derived again from the trace. *)
(* The capped leg, when the reference has at least 2 graphs: each
   strategy again, capped at half of them.  Every strategy counts
   candidates by the same global ordinals, so none checks a leaf past
   the cap (explored ≤ graphs), explored still shrinks none ≥ dpor ≥
   dpor+sym, the accounting agrees, and dpor keeps the reference's
   executions in order. *)
let check_capped model p cap =
  let run reduction =
    Enumerate.run ~config:{ seq_config with reduction; max_graphs = cap } model p
  in
  let rn = run Enumerate.No_reduction in
  let rd = run Enumerate.Dpor in
  let rs = run Enumerate.Dpor_sym in
  let explored = Fmt.str "%d none, %d dpor, %d dpor+sym" rn.explored rd.explored rs.explored in
  if List.exists (fun (r : Enumerate.result) -> r.explored > r.graphs) [ rn; rd; rs ] then
    Fail (Fmt.str "capped at %d: explored past graphs %d: %s" cap rn.graphs explored)
  else if rd.explored > rn.explored || rs.explored > rd.explored then
    Fail (Fmt.str "capped at %d: explored grew under reduction: %s" cap explored)
  else if
    rn.graphs <> rd.graphs || rn.graphs <> rs.graphs || rn.capped <> rd.capped
    || rn.capped <> rs.capped
  then Fail (Fmt.str "capped at %d: graphs or cap flags differ across reductions" cap)
  else if List.map exec_key rn.executions <> List.map exec_key rd.executions then
    Fail (Fmt.str "capped at %d: dpor diverged from the unreduced reference" cap)
  else Pass

let check_reduction_det _ctx (p : Ast.program) =
  under_models (fun model ->
      let run reduction =
        Enumerate.run ~config:{ seq_config with reduction } ~races:true model p
      in
      let rn = run Enumerate.No_reduction in
      let rd = run Enumerate.Dpor in
      let rs = run Enumerate.Dpor_sym in
      let kn = List.map exec_key rn.executions in
      (* each execution's key with its races *)
      let keyed (r : Enumerate.result) =
        List.combine (List.map exec_key r.executions)
          (Array.to_list (Option.get r.races))
      in
      let trace_races (r : Enumerate.result) =
        List.for_all2
          (fun (e : Enumerate.execution) races ->
            races = Verdict.execution_races model e.trace)
          r.executions
          (Array.to_list (Option.get r.races))
      in
      if rn.graphs <> rd.graphs || rn.graphs <> rs.graphs then
        Fail
          (Fmt.str "graphs: %d none, %d dpor, %d dpor+sym" rn.graphs rd.graphs
             rs.graphs)
      else if
        rn.capped <> rd.capped || rn.capped <> rs.capped
        || rn.truncated <> rd.truncated || rn.truncated <> rs.truncated
      then Fail "cap/truncation flags differ across reductions"
      else if kn <> List.map exec_key rd.executions then
        Fail "dpor diverged from the unreduced reference (order-sensitive)"
      else if
        List.sort compare kn <> List.sort compare (List.map exec_key rs.executions)
      then Fail "dpor+sym execution multiset differs from the reference"
      else if rd.explored > rn.explored || rs.explored > rd.explored then
        Fail
          (Fmt.str
             "explored states grew under reduction: %d none, %d dpor, %d \
              dpor+sym"
             rn.explored rd.explored rs.explored)
      else if not (trace_races rn) then
        Fail "races of the unreduced reference differ from the trace-derived ones"
      else if keyed rn <> keyed rd then Fail "dpor's leaf races differ from the reference's"
      else if List.sort compare (keyed rn) <> List.sort compare (keyed rs) then
        Fail "dpor+sym's races differ from the reference's"
      else if rn.graphs >= 2 then check_capped model p (rn.graphs / 2)
      else Pass)

(* -- repair-sound ------------------------------------------------------------- *)

(* The repair synthesizer's contract, end-to-end on fuzzed programs:
   under the implementation model, every program either is already
   mixed-race-free (and [Repair.run] returns the empty edit list), or
   gets a repair whose independent re-verification ([Repair.check], no
   state shared with the search) confirms the repaired program is
   mixed-race-free and dropping any single edit reintroduces a race.  A
   racy program for which no repair exists in the candidate space is a
   soundness bug too: the pool always contains the promote-everything
   repair, so [Error] from a racy program means the lint seeding or the
   search lost it. *)
let check_repair_sound _ctx (p : Ast.program) =
  let model = Model.implementation in
  match Tmx_analysis.Repair.run ~config:seq_config model p with
  | Error e -> Fail (Fmt.str "no repair found: %s" e)
  | Ok r -> (
      let racy = Verdict.race_witness ~config:seq_config ~mixed_only:true model p <> None in
      if (not racy) && r.Tmx_analysis.Repair.edits <> [] then
        Fail "clean program got a nonempty repair"
      else if racy && r.edits = [] then
        Fail "racy program got an empty repair"
      else
        match Tmx_analysis.Repair.check ~config:seq_config model r with
        | Ok () -> Pass
        | Error e -> Fail e)

(* -- arch-diff ---------------------------------------------------------------- *)

(* The §6 differential claim on fuzzed programs: x86-TSO and the C++-TM
   mapping validate even the strongest LTRF variant with no inserted
   fences; every ARMv8 escape is closed by a minimal DMB LD set that
   Diff.check re-verifies by re-running the backend; and the structural
   lattice (tso ⊆ armv8, rc11 ⊆ armv8) holds on the outcome sets.  The
   arch backends judge the unreduced selection product, so the graph cap
   is kept small and capped/truncated programs are skipped rather than
   judged on a clipped state space. *)
let arch_config = { seq_config with Enumerate.max_graphs = 10_000 }

let check_arch_diff _ctx (p : Ast.program) =
  let config = arch_config in
  let verdicts =
    List.map
      (fun a -> Tmx_arch.Diff.check ~config a Model.strongest p)
      Tmx_arch.Arch.all
  in
  if List.exists (fun (v : Tmx_arch.Diff.verdict) -> v.imprecise) verdicts then
    Pass
  else
    let bad =
      List.find_map
        (fun (v : Tmx_arch.Diff.verdict) ->
          match (v.arch, v.validated, v.fences) with
          | (Tmx_arch.Arch.X86tso | Tmx_arch.Arch.Rc11), false, _ ->
              Some
                (Fmt.str "%s escapes the strongest variant: %a"
                   (Tmx_arch.Arch.name v.arch)
                   Fmt.(list ~sep:(any " | ") Outcome.pp)
                   v.witnesses)
          | Tmx_arch.Arch.Armv8, false, None ->
              Some "armv8 escape not closed by any DMB LD fence set"
          | _ -> None)
        verdicts
    in
    match bad with
    | Some msg -> Fail msg
    | None -> (
        match
          List.find_opt
            (fun (c : Tmx_arch.Diff.containment) -> not c.ok)
            (Tmx_arch.Diff.containments ~config p)
        with
        | Some c ->
            Fail
              (Fmt.str "outcomes(%s) escape outcomes(%s): %a"
                 (Tmx_arch.Arch.name c.sub) (Tmx_arch.Arch.name c.sup)
                 Fmt.(list ~sep:(any " | ") Outcome.pp)
                 c.witnesses)
        | None -> Pass)

(* -- the deliberately-broken demo oracle -------------------------------------- *)

let check_broken _ctx (p : Ast.program) =
  let mixed =
    List.find_opt
      (fun (s : Tmx_analysis.Access.summary) -> s.class_ = Tmx_analysis.Access.Mixed)
      (Tmx_analysis.Access.summaries p)
  in
  match mixed with
  | Some s ->
      Fail
        (Fmt.str
           "location %s is accessed both transactionally and plainly \
            (deliberately-broken demo oracle)"
           s.loc)
  | None -> Pass

(* -- registry ----------------------------------------------------------------- *)

let stock =
  [
    {
      name = "enum-naive";
      descr = "enumerated executions agree with the naive reference axioms";
      check = check_enum_naive;
    };
    {
      name = "machine-enum";
      descr = "operational-machine outcomes within (= without caps) the axiomatic im";
      check = check_machine_enum;
    };
    {
      name = "stmsim-enum";
      descr =
        "STM-simulator outcomes within the axiomatic im (lazy, \
         lazy+atomic-commit, partial, norec)";
      check = check_stmsim_enum;
    };
    {
      name = "lint-sound";
      descr = "unflagged locations never race; mixed races imply mixed findings";
      check = check_lint_sound;
    };
    {
      name = "jobs-det";
      descr = "parallel enumeration is bit-identical to sequential (pm, strong)";
      check = check_jobs_det;
    };
    {
      name = "reduction-det";
      descr =
        "dpor/dpor+sym enumeration preserves the unreduced verdicts (pm, strong)";
      check = check_reduction_det;
    };
    {
      name = "repair-sound";
      descr =
        "synthesized repairs verify mixed-race-free; dropping any single \
         edit reintroduces a race";
      check = check_repair_sound;
    };
    {
      name = "arch-diff";
      descr =
        "x86tso/rc11 validate the strongest variant; armv8 escapes close \
         under a re-verified DMB LD set; arch outcome lattice holds";
      check = check_arch_diff;
    };
  ]

let broken =
  {
    name = "broken";
    descr = "demo oracle that rejects mixed locations (TMX_FUZZ_BROKEN only)";
    check = check_broken;
  }

let broken_enabled () = Sys.getenv_opt "TMX_FUZZ_BROKEN" <> None

let by_name n =
  if n = "broken" && broken_enabled () then Some broken
  else List.find_opt (fun o -> o.name = n) stock

let names () =
  List.map (fun o -> o.name) stock @ (if broken_enabled () then [ "broken" ] else [])
