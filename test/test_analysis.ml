(* The static analyzer behind `tmx lint`: unit tests for access
   extraction, location classes and the sound ordering rules, plus — the
   crux — the enumeration-backed soundness oracle.  Soundness is the
   per-location claim: any location the lint does NOT flag has no L-race
   in any consistent execution, under any model; and a report with no
   mixed findings implies no execution has a mixed race.  Checked over
   the full litmus catalog and 500 random programs ([oracle_suite],
   skipped under TMX_QUICK).  Precision is measured, not promised: the
   false-positive rate against the `tmx races` ground truth is printed
   as a report and recorded in EXPERIMENTS.md. *)

open Tmx_core
open Tmx_lang
open Tmx_exec
module Access = Tmx_analysis.Access
module Order = Tmx_analysis.Order
module Lint = Tmx_analysis.Lint
module Footprint = Tmx_opt.Footprint

let pm = Model.programmer
let im = Model.implementation

let catalog_programs =
  List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program) Tmx_litmus.Catalog.all

let find name = (Option.get (Tmx_litmus.Catalog.find name)).program

(* -- access extraction ------------------------------------------------------ *)

let test_summaries () =
  let s = Access.summaries (find "privatization") in
  let class_of loc =
    (List.find (fun (s : Access.summary) -> String.equal s.loc loc) s).class_
  in
  Alcotest.(check bool) "x is mixed" true (class_of "x" = Access.Mixed);
  Alcotest.(check bool) "y is tx-only" true (class_of "y" = Access.Tx_only)

let test_counts () =
  let s = Access.summaries (find "sb") in
  List.iter
    (fun (s : Access.summary) ->
      Alcotest.(check bool)
        (s.loc ^ " plain-only") true
        (s.class_ = Access.Plain_only);
      Alcotest.(check int) (s.loc ^ " plain reads") 1 s.counts.plain_reads;
      Alcotest.(check int) (s.loc ^ " plain writes") 1 s.counts.plain_writes)
    s

let test_paths () =
  let p =
    Ast.(
      program ~locs:[ "x" ]
        [ [ atomic [ store (loc "x") (int 1) ]; load "r" (loc "x") ] ])
  in
  let paths =
    List.map (fun (a : Access.t) -> a.path) (Access.of_program p)
  in
  Alcotest.(check (list string))
    "source paths" [ "t0.0.atomic.0"; "t0.1" ] paths

let test_must_abort () =
  let open Ast in
  Alcotest.(check bool) "plain abort" true (Access.body_must_abort [ abort ]);
  Alcotest.(check bool) "after a store" true
    (Access.body_must_abort [ store (loc "x") (int 1); abort ]);
  Alcotest.(check bool) "both branches abort" true
    (Access.body_must_abort [ if_ (reg "r") [ abort ] [ abort ] ]);
  Alcotest.(check bool) "one branch aborts" false
    (Access.body_must_abort [ if_ (reg "r") [ abort ] [] ]);
  Alcotest.(check bool) "loops stop the scan" false
    (Access.body_must_abort [ while_ (reg "r") [ abort ] ]);
  (* conservative: a stuck loop leaves the transaction pending, and
     pending actions are not aborted, so the scan cannot skip past it *)
  Alcotest.(check bool) "nor scan past a loop" false
    (Access.body_must_abort [ while_ (reg "r") [ skip ]; abort ]);
  (* per-access: a write in an always-aborting branch qualifies even
     though the transaction as a whole can commit *)
  let p =
    Ast.(
      program ~locs:[ "x"; "z" ]
        [
          [
            atomic
              [
                load "r" (loc "x");
                when_ (reg "r") [ store (loc "z") (int 1); abort ];
                store (loc "x") (int 2);
              ];
          ];
        ])
  in
  let by_loc loc =
    List.find (fun (a : Access.t) -> String.equal a.loc loc) (Access.of_program p)
  in
  Alcotest.(check bool) "speculative write must-aborts" true
    (by_loc "z").must_abort;
  Alcotest.(check bool) "committing write does not" false
    (by_loc "x").must_abort

let test_fence_facts () =
  let p =
    Ast.(
      program ~locs:[ "x" ]
        [ [ atomic [ store (loc "x") (int 1) ]; fence "x"; load "r" (loc "x") ] ])
  in
  match Access.of_program p with
  | [ tx_write; plain_read ] ->
      Alcotest.(check bool) "tx write before the fence" true
        (tx_write.fences_after = [ "x" ] && tx_write.fences_before = []);
      Alcotest.(check bool) "plain read after the fence" true
        (plain_read.fences_before = [ "x" ] && plain_read.fences_after = []);
      Alcotest.(check bool) "plain read follows an atomic" true
        plain_read.after_atomic;
      Alcotest.(check (list string))
        "prior atomic writes" [ "x" ] plain_read.prior_atomic_writes
  | accs -> Alcotest.failf "expected 2 accesses, got %d" (List.length accs)

let test_branch_fence_not_dominating () =
  (* a fence inside one branch does not dominate an access after the If *)
  let p =
    Ast.(
      program ~locs:[ "x" ]
        [ [ if_ (reg "r") [ fence "x" ] []; load "q" (loc "x") ] ])
  in
  match Access.of_program p with
  | [ read ] ->
      Alcotest.(check (list string)) "no dominating fence" [] read.fences_before
  | accs -> Alcotest.failf "expected 1 access, got %d" (List.length accs)

let test_wildcard_cells () =
  let p =
    Ast.(
      program ~locs:[ "z[0]"; "z[1]" ]
        [ [ store (cell "z" (reg "r")) (int 1) ]; [ load "q" (loc "z[0]") ] ])
  in
  let locs = List.map (fun (a : Access.t) -> a.loc) (Access.of_program p) in
  Alcotest.(check (list string)) "wildcard footprint name" [ "z[*]"; "z[0]" ]
    locs;
  Alcotest.(check bool) "wildcard clashes with the cell" true
    (Footprint.name_clash "z[*]" "z[0]");
  Alcotest.(check bool) "distinct cells do not clash" false
    (Footprint.name_clash "z[0]" "z[1]")

(* -- the static ordering rules --------------------------------------------- *)

let test_order_rules () =
  let accs = Access.of_program (find "privatization") in
  let tx_write =
    List.find
      (fun (a : Access.t) ->
        a.mode = Access.Transactional && a.kind = Access.Write
        && String.equal a.loc "x")
      accs
  in
  let plain_write =
    List.find
      (fun (a : Access.t) -> a.mode = Access.Plain && String.equal a.loc "x")
      accs
  in
  (match Order.pair tx_write plain_write with
  | Order.Unordered ps ->
      Alcotest.(check bool) "privatization guard detected" true
        (List.exists
           (function Order.Guarded_publication _ -> true | _ -> false)
           ps)
  | Ordered _ -> Alcotest.fail "tx write vs plain write cannot be ordered");
  Alcotest.(check bool) "same thread ordered" true
    (match Order.pair tx_write { plain_write with thread = tx_write.thread }
     with
    | Ordered Same_thread -> true
    | _ -> false);
  Alcotest.(check bool) "both transactional ordered" true
    (match
       Order.pair tx_write
         { plain_write with mode = Access.Transactional }
     with
    | Ordered Both_transactional -> true
    | _ -> false);
  Alcotest.(check bool) "must-abort ordered" true
    (match Order.pair { tx_write with must_abort = true } plain_write with
    | Ordered Must_abort -> true
    | _ -> false)

let test_fence_protections () =
  let p =
    Ast.(
      program ~locs:[ "x" ]
        [
          [ atomic [ store (loc "x") (int 1) ] ];
          [ fence "x"; store (loc "x") (int 2) ];
        ])
  in
  let r = Lint.lint p in
  match r.findings with
  | [ f ] ->
      Alcotest.(check bool) "mixed" true (f.kind = Lint.Mixed_race);
      Alcotest.(check bool) "fence downgrades to medium" true
        (f.severity = Lint.Medium);
      Alcotest.(check bool) "commit-side protection" true
        (List.exists
           (function Order.Fence_commit_side "x" -> true | _ -> false)
           f.protections)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

(* -- lint verdicts on known programs ---------------------------------------- *)

let test_lint_privatization () =
  let r = Lint.lint (find "privatization") in
  match r.findings with
  | [ f ] ->
      Alcotest.(check bool) "mixed race" true (f.kind = Lint.Mixed_race);
      Alcotest.(check bool) "guarded publication is low severity" true
        (f.severity = Lint.Low);
      Alcotest.(check bool) "privatization-shaped fix is a fence" true
        (match f.fix with Lint.Insert_fence _ -> true | _ -> false);
      Alcotest.(check int) "mixed count" 1 (Lint.mixed_count r)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_lint_sb () =
  let r = Lint.lint (find "sb") in
  Alcotest.(check int) "two plain L-races" 2 (List.length r.findings);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "L-race" true (f.kind = Lint.L_race);
      Alcotest.(check bool) "no protection: high" true (f.severity = Lint.High);
      Alcotest.(check bool) "fix wraps in atomic" true
        (match f.fix with Lint.Wrap_atomic _ -> true | _ -> false))
    r.findings

let test_lint_race_free () =
  (* d2 needs the per-access must-abort refinement: its transactional
     write sits in an always-aborting speculation branch *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " statically race-free") true
        (Lint.race_free (Lint.lint (find name))))
    [
      "opacity_iriw"; "opacity_iriw_plain"; "d1_opaque_writes";
      "d2_race_free_speculation"; "publication"; "d4_no_overlapped_writes";
    ]

let test_guard_dominance () =
  (* the two historical false positives: publication's transactional
     reader only touches x under a guard loaded from y inside its own
     atomic, and every write of y is transactional, in the plain
     writer's thread, after the plain access (GD-pub); d4's plain
     reader is guarded by a register consumed from x in a prior atomic,
     and every write of x sits in the transactional side's atomic
     (GD-con).  Both are now excluded outright — the guard's observed
     value orders the pair through cwr + po in every model's HB base *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " statically race-free") true
        (Lint.race_free (Lint.lint (find name))))
    [ "publication"; "d4_no_overlapped_writes" ];
  (* the Order verdict itself names the flag *)
  let dominated name want_flag =
    let p = find name in
    let ctx = Access.context p in
    let pairs = ref [] in
    let accs = Array.of_list ctx.Access.ctx_accesses in
    Array.iteri
      (fun i (a : Access.t) ->
        Array.iteri
          (fun j (b : Access.t) ->
            if
              i < j
              && Footprint.name_clash a.Access.loc b.Access.loc
              && (a.Access.kind = Access.Write || b.Access.kind = Access.Write)
            then
              match Order.pair ~ctx a b with
              | Order.Ordered (Order.Guard_dominated f) -> pairs := f :: !pairs
              | _ -> ())
          accs)
      accs;
    Alcotest.(check bool)
      (Fmt.str "%s guard-dominated via %s" name want_flag)
      true
      (List.mem want_flag !pairs)
  in
  dominated "publication" "y";
  dominated "d4_no_overlapped_writes" "x";
  (* the rule stays off for privatization: its guard demands the flag be
     ZERO, which the initial state already satisfies — nothing
     serializes the guarded write behind the privatizer *)
  Alcotest.(check bool) "privatization still flagged" false
    (Lint.race_free (Lint.lint (find "privatization")));
  (* and a loop kills the walk-order premise: the same publication shape
     inside a while must keep its finding *)
  let looped =
    Ast.(
      program ~locs:[ "x"; "y" ]
        [
          [ store (loc "x") (int 1); atomic [ store (loc "y") (int 1) ] ];
          [
            while_ (reg "k")
              [
                atomic
                  [
                    load "ry" (loc "y");
                    when_ (reg "ry") [ load "rx" (loc "x") ];
                  ];
              ];
          ];
        ])
  in
  Alcotest.(check bool) "loops disable guard dominance" false
    (Lint.race_free (Lint.lint looped))

let test_json () =
  let j = Tb.parse_json "Lint.to_json" (Lint.to_json (Lint.lint (find "privatization"))) in
  Alcotest.check Tb.json "race_free" (Tmx_json.Bool false) (Tb.field "race_free" j);
  let x =
    List.find (fun l -> Tb.field "name" l = Tmx_json.Str "x") (Tb.items (Tb.field "locations" j))
  in
  Alcotest.check Tb.json "x's class" (Tmx_json.Str "mixed") (Tb.field "class" x);
  match Tb.items (Tb.field "findings" j) with
  | [ f ] -> Alcotest.check Tb.json "severity" (Tmx_json.Str "low") (Tb.field "severity" f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* one SARIF result per finding, across every report of the catalog *)
let test_sarif () =
  let reports = List.map Lint.lint catalog_programs in
  let log = Tb.parse_json "Lint.sarif_of_reports" (Lint.sarif_of_reports reports) in
  Alcotest.check Tb.json "version" (Tmx_json.Str "2.1.0") (Tb.field "version" log);
  let results =
    match Tb.items (Tb.field "runs" log) with
    | [ run ] -> Tb.items (Tb.field "results" run)
    | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)
  in
  let findings = List.concat_map (fun (r : Lint.report) -> r.findings) reports in
  Alcotest.(check int) "one result per finding" (List.length findings) (List.length results);
  List.iter2
    (fun (f : Lint.finding) res ->
      Alcotest.check Tb.json "ruleId"
        (Tmx_json.Str (match f.kind with Lint.Mixed_race -> "mixed-race" | L_race -> "l-race"))
        (Tb.field "ruleId" res);
      Alcotest.(check int) "two logical locations" 2
        (List.length (Tb.items (Tb.field "locations" res))))
    findings results

(* the tentpole's performance contract: no enumeration on the lint path,
   so linting the entire catalog is far under a second *)
let test_lint_is_fast () =
  let t0 = Unix.gettimeofday () in
  List.iter (fun p -> ignore (Lint.lint p)) catalog_programs;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Fmt.str "linted %d programs in %.3fs" (List.length catalog_programs) dt)
    true (dt < 1.0)

(* -- the soundness oracle ---------------------------------------------------- *)

(* Is [loc] covered by some finding of the report?  Wildcard findings
   ("z[*]") cover every cell of the array. *)
let flagged (r : Lint.report) loc =
  List.exists (fun (f : Lint.finding) -> Footprint.name_clash f.loc loc)
    r.findings

(* Every L-race the enumerator finds on any model must be on a flagged
   location, and mixed races require a mixed finding.  Returns the
   violations (empty = sound) together with whether any execution raced
   at all (for the precision report). *)
let soundness_violations models p =
  let r = Lint.lint p in
  let has_mixed_finding =
    List.exists (fun (f : Lint.finding) -> f.kind = Lint.Mixed_race) r.findings
  in
  let violations = ref [] in
  let dyn_racy = ref false in
  let dyn_mixed = ref false in
  List.iter
    (fun model ->
      let result = Enumerate.run model p in
      List.iter
        (fun (e : Enumerate.execution) ->
          let races = Verdict.execution_races model e.trace in
          if races <> [] then dyn_racy := true;
          List.iter
            (fun (i, _) ->
              let loc =
                match Trace.act e.trace i with
                | Action.Read { loc; _ } | Action.Write { loc; _ } -> loc
                | _ -> "?"
              in
              if not (flagged r loc) then
                violations :=
                  Fmt.str "%s: unflagged L-race on %s under %s" p.Ast.name loc
                    model.Model.name
                  :: !violations)
            races;
          let ctx = Lift.make e.trace in
          let hb = Hb.compute model ctx in
          if Race.has_mixed_race e.trace hb then begin
            dyn_mixed := true;
            if not has_mixed_finding then
              violations :=
                Fmt.str "%s: mixed race without a mixed finding under %s"
                  p.Ast.name model.Model.name
                :: !violations
          end)
        result.executions)
    models;
  (r, !violations, !dyn_racy, !dyn_mixed)

let oracle_models = [ pm; im; Model.bare; Model.strongest ]

(* accumulated by the catalog and random oracles, printed by the
   precision report below *)
type stats = {
  mutable programs : int;
  mutable flagged_racy : int; (* true positives *)
  mutable flagged_quiet : int; (* false positives *)
  mutable clean_quiet : int; (* true negatives *)
  mutable mixed_flagged : int;
  mutable mixed_confirmed : int;
}

let catalog_stats =
  {
    programs = 0;
    flagged_racy = 0;
    flagged_quiet = 0;
    clean_quiet = 0;
    mixed_flagged = 0;
    mixed_confirmed = 0;
  }

let random_stats =
  {
    programs = 0;
    flagged_racy = 0;
    flagged_quiet = 0;
    clean_quiet = 0;
    mixed_flagged = 0;
    mixed_confirmed = 0;
  }

let record stats (r : Lint.report) dyn_racy dyn_mixed =
  stats.programs <- stats.programs + 1;
  (if Lint.race_free r then stats.clean_quiet <- stats.clean_quiet + 1
   else if dyn_racy then stats.flagged_racy <- stats.flagged_racy + 1
   else stats.flagged_quiet <- stats.flagged_quiet + 1);
  if Lint.mixed_count r > 0 then begin
    stats.mixed_flagged <- stats.mixed_flagged + 1;
    if dyn_mixed then stats.mixed_confirmed <- stats.mixed_confirmed + 1
  end

let test_soundness_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      let r, violations, dyn_racy, dyn_mixed =
        soundness_violations oracle_models p
      in
      record catalog_stats r dyn_racy dyn_mixed;
      Alcotest.(check (list string))
        (Fmt.str "soundness on %s" p.name)
        [] violations)
    catalog_programs

(* -- random programs --------------------------------------------------------- *)

(* Richer than the theorems generator — fences, aborts inside atomic,
   and branches, to exercise must-abort detection and fence dominance;
   it is the [analysis] preset of the fuzzer's shared generator. *)
let gen_program : Ast.program QCheck.Gen.t =
  Tmx_fuzz.Gen.program Tmx_fuzz.Gen.analysis

let arb_program = QCheck.make ~print:(Fmt.str "%a" Ast.pp_program) gen_program

let prop_soundness_random =
  QCheck.Test.make ~name:"lint soundness on 500 random programs" ~count:500
    arb_program (fun p ->
      let r, violations, dyn_racy, dyn_mixed =
        soundness_violations [ pm; im; Model.bare ] p
      in
      record random_stats r dyn_racy dyn_mixed;
      if violations <> [] then
        QCheck.Test.fail_reportf "soundness violations:@ %a"
          Fmt.(list ~sep:cut string)
          violations
      else true)

(* -- precision report -------------------------------------------------------- *)

let pp_stats ppf (label, s) =
  let flagged = s.flagged_racy + s.flagged_quiet in
  Fmt.pf ppf
    "%s: %d programs, %d flagged (%d confirmed racy, %d false positives), %d \
     race-free verdicts; precision %.0f%%; mixed findings %d/%d confirmed"
    label s.programs flagged s.flagged_racy s.flagged_quiet s.clean_quiet
    (if flagged = 0 then 100.0
     else 100.0 *. float_of_int s.flagged_racy /. float_of_int flagged)
    s.mixed_confirmed s.mixed_flagged

(* runs after the two oracles above (alcotest executes a suite in order);
   soundness means a race-free verdict is never contradicted, so false
   negatives are structurally zero — precision is the measured number *)
let test_precision_report () =
  Fmt.pr "@.precision vs the `tmx races' ground truth:@.";
  Fmt.pr "  %a@." pp_stats ("catalog", catalog_stats);
  Fmt.pr "  %a@." pp_stats ("random ", random_stats);
  Alcotest.(check bool) "catalog oracle ran" true (catalog_stats.programs > 0);
  Alcotest.(check bool) "random oracle ran" true (random_stats.programs >= 500);
  (* pin the catalog floor so precision regressions are loud: 27/33
     flagged, all 27 confirmed racy under some model, 0 false positives
     (the former two, publication and d4, are excluded by the
     guard-dominance rule), all 6 race-free verdicts sound *)
  Alcotest.(check int) "catalog size" 33 catalog_stats.programs;
  Alcotest.(check int) "catalog false positives" 0 catalog_stats.flagged_quiet;
  Alcotest.(check int) "catalog race-free verdicts" 6 catalog_stats.clean_quiet;
  Alcotest.(check bool) "catalog precision = 100%" true
    (catalog_stats.flagged_racy * 100
     >= 100 * (catalog_stats.flagged_racy + catalog_stats.flagged_quiet))

let suite =
  [
    Alcotest.test_case "location summaries" `Quick test_summaries;
    Alcotest.test_case "access counts" `Quick test_counts;
    Alcotest.test_case "source paths" `Quick test_paths;
    Alcotest.test_case "must-abort detection" `Quick test_must_abort;
    Alcotest.test_case "fence dominance facts" `Quick test_fence_facts;
    Alcotest.test_case "branch fences do not dominate" `Quick
      test_branch_fence_not_dominating;
    Alcotest.test_case "computed cells use wildcards" `Quick test_wildcard_cells;
    Alcotest.test_case "static ordering rules" `Quick test_order_rules;
    Alcotest.test_case "fence protections downgrade" `Quick
      test_fence_protections;
    Alcotest.test_case "lint privatization" `Quick test_lint_privatization;
    Alcotest.test_case "lint sb" `Quick test_lint_sb;
    Alcotest.test_case "lint race-free programs" `Quick test_lint_race_free;
    Alcotest.test_case "guard dominance excludes" `Quick test_guard_dominance;
    Alcotest.test_case "json output" `Quick test_json;
    Alcotest.test_case "sarif output" `Quick test_sarif;
    Alcotest.test_case "lint has no enumeration cost" `Quick test_lint_is_fast;
  ]

let oracle_suite =
  [
    Alcotest.test_case "soundness over the catalog" `Slow test_soundness_catalog;
    Tb.qcheck prop_soundness_random;
    Alcotest.test_case "precision report" `Quick test_precision_report;
  ]
