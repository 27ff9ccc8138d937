(* Empirical validation of the paper's theorems over both the litmus
   catalog and randomly generated programs. *)

open Tmx_core
open Tmx_lang
open Tmx_exec

let pm = Model.programmer

let catalog_programs =
  List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program) Tmx_litmus.Catalog.all

(* -- random program generation ------------------------------------------- *)

(* The historical distribution of this file is the [theorems] preset of
   the fuzzer's shared generator ([QCheck.Gen.t] is [Random.State.t ->
   'a], so the plain generator composes directly); [arb_program] is also
   consumed by the fenceify/machine/opacity/stability suites. *)
let gen_program : Ast.program QCheck.Gen.t =
  Tmx_fuzz.Gen.program Tmx_fuzz.Gen.theorems

let arb_program =
  QCheck.make ~print:(Fmt.str "%a" Ast.pp_program) gen_program

(* -- SC-LTRF (Theorem 4.1, global corollary) ------------------------------ *)

let sc_ltrf_holds p =
  let report = Verdict.check_sc_ltrf pm p in
  report.theorem_holds

let test_sc_ltrf_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      Alcotest.(check bool) (Fmt.str "SC-LTRF on %s" p.name) true (sc_ltrf_holds p))
    catalog_programs

let prop_sc_ltrf_random =
  QCheck.Test.make ~name:"SC-LTRF on random programs" ~count:120 arb_program
    sc_ltrf_holds

(* race-free programs behave sequentially, spelled out on the two
   headline idioms *)
let test_race_free_sequential () =
  List.iter
    (fun name ->
      let p = (Option.get (Tmx_litmus.Catalog.find name)).program in
      let report = Verdict.check_sc_ltrf pm p in
      Alcotest.(check bool) (name ^ " sequential races") false report.sc_racy;
      Alcotest.(check bool) (name ^ " no weak actions") false report.weak_exists;
      Alcotest.(check bool) (name ^ " outcomes sequential") true
        report.outcomes_contained)
    [ "privatization"; "publication" ]

(* -- Theorem 4.2 ----------------------------------------------------------- *)

let test_theorem_4_2_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      Alcotest.(check bool)
        (Fmt.str "Thm 4.2 on %s" p.name)
        true
        (Verdict.check_theorem_4_2 pm p))
    catalog_programs

let prop_theorem_4_2_random =
  QCheck.Test.make ~name:"Thm 4.2 on random programs" ~count:80 arb_program
    (fun p -> Verdict.check_theorem_4_2 pm p)

(* -- Lemma 5.1 -------------------------------------------------------------- *)

let test_lemma_5_1_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      let r = Verdict.check_lemma_5_1 p in
      Alcotest.(check bool) (Fmt.str "Lemma 5.1 on %s" p.name) true r.holds)
    catalog_programs

(* Each catalog program's Lemma 5.1 counts (executions checked, mixed-race
   free, pm-consistent once defenced), pinned.  The mixed races are read
   off the enumerator's own hb ([Enumerate.run ~races:true]); these are
   the counts that [Race.has_mixed_race] over a second [Hb.compute] gave. *)
let lemma_5_1_counts =
  [
      ("privatization", 3, 1, 1);
      ("privatization_chain", 9, 1, 1);
      ("publication", 2, 2, 2);
      ("iriw_z", 30, 30, 30);
      ("temporal", 12, 12, 12);
      ("ex2_2", 3, 1, 1);
      ("lb", 3, 3, 3);
      ("sb", 4, 4, 4);
      ("aborted_pub", 4, 4, 4);
      ("opacity_iriw", 14, 14, 14);
      ("opacity_iriw_plain", 16, 16, 16);
      ("coh_java", 7, 7, 7);
      ("coh_cse", 27, 27, 27);
      ("ex2_3_ww", 4, 0, 0);
      ("ex2_3_rw", 3, 3, 3);
      ("ex2_3_wr", 4, 4, 4);
      ("ex2_3_ww_prime", 4, 0, 0);
      ("ex2_3_rw_prime", 3, 3, 3);
      ("ex2_3_wr_prime", 4, 4, 4);
      ("ex3_1", 4, 4, 4);
      ("ex3_2", 4, 4, 4);
      ("ex3_3", 3, 3, 3);
      ("ex3_4", 16, 6, 6);
      ("ex3_5", 9, 1, 1);
      ("ldrf_example", 8, 8, 8);
      ("doomed", 2, 2, 2);
      ("impl_reorder", 6, 2, 2);
      ("impl_reorder_swapped", 6, 2, 2);
      ("privatization_fence", 2, 2, 2);
      ("d1_opaque_writes", 1, 1, 1);
      ("d2_race_free_speculation", 2, 2, 2);
      ("d3_dirty_reads", 2, 2, 2);
      ("d4_no_overlapped_writes", 2, 2, 2);
  ]

let test_lemma_5_1_counts () =
  List.iter
    (fun (name, checked, free, consistent) ->
      let p =
        match Tmx_litmus.Catalog.find name with
        | Some l -> l.program
        | None -> Alcotest.failf "no catalog entry %s" name
      in
      let r = Verdict.check_lemma_5_1 p in
      Alcotest.(check (triple int int int))
        (Fmt.str "Lemma 5.1 counts on %s" name)
        (checked, free, consistent)
        (r.executions_checked, r.mixed_race_free, r.pm_consistent))
    lemma_5_1_counts;
  Alcotest.(check int) "every catalog program" (List.length Tmx_litmus.Catalog.all)
    (List.length lemma_5_1_counts)

let prop_lemma_5_1_random =
  QCheck.Test.make ~name:"Lemma 5.1 on random programs" ~count:60 arb_program
    (fun p -> (Verdict.check_lemma_5_1 p).holds)

(* -- §6: the strongest (x86) variant refines the programmer model ---------- *)

let test_strongest_refines_pm () =
  List.iter
    (fun (p : Ast.program) ->
      let strong = Enumerate.outcomes (Enumerate.run Model.strongest p) in
      let weak = Enumerate.outcomes (Enumerate.run pm p) in
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (Fmt.str "%s: strongest outcome admitted by pm" p.name)
            true
            (List.exists (Outcome.equal o) weak))
        strong)
    catalog_programs

(* -- model-lattice monotonicity --------------------------------------------- *)

(* Adding happens-before rules and antidependency axioms can only remove
   behaviours: outcomes(stronger) ⊆ outcomes(weaker).  And on fence-free
   programs the implementation model coincides with the bare model. *)
let refines stronger weaker p =
  let s = Enumerate.outcomes (Enumerate.run stronger p) in
  let w = Enumerate.outcomes (Enumerate.run weaker p) in
  List.for_all (fun o -> List.exists (Outcome.equal o) w) s

let strength_pairs =
  [
    (Model.programmer, Model.bare);
    (Model.variant_rw, Model.bare);
    (Model.variant_ww', Model.bare);
    (Model.strongest, Model.programmer);
    (Model.strongest, Model.variant_rw);
    (Model.strongest, Model.variant_wr');
  ]

let test_monotonicity_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      List.iter
        (fun (stronger, weaker) ->
          Alcotest.(check bool)
            (Fmt.str "%s: %s refines %s" p.name stronger.Model.name
               weaker.Model.name)
            true (refines stronger weaker p))
        strength_pairs)
    catalog_programs

let prop_monotonicity_random =
  QCheck.Test.make ~name:"model lattice monotone on random programs" ~count:60
    arb_program (fun p ->
      List.for_all (fun (s, w) -> refines s w p) strength_pairs)

let strip_fences (p : Ast.program) =
  let rec strip (s : Ast.stmt) =
    match s with
    | Fence _ -> Ast.Skip
    | Atomic b -> Atomic (List.map strip b)
    | If (c, t, e) -> If (c, List.map strip t, List.map strip e)
    | While (c, b) -> While (c, List.map strip b)
    | s -> s
  in
  { p with Ast.threads = List.map (List.map strip) p.threads }

let prop_im_equals_bare_fence_free =
  QCheck.Test.make ~name:"im = bare on fence-free programs" ~count:60
    arb_program (fun p ->
      let p = strip_fences p in
      refines Model.implementation Model.bare p
      && refines Model.bare Model.implementation p)

(* -- prefix closure ---------------------------------------------------------- *)

(* the §4 machinery (stability, causal closure) quantifies over prefixes;
   consistency is indeed closed under well-formed prefixes *)
let prefix_closed model trace =
  let n = Trace.length trace in
  let ok = ref true in
  for p = 1 to n - 1 do
    let prefix = Trace.sub trace (fun i -> i < p) in
    if Wellformed.is_well_formed prefix && not (Consistency.consistent model prefix)
    then ok := false
  done;
  !ok

let test_prefix_closure_catalog () =
  List.iter
    (fun (p : Ast.program) ->
      List.iter
        (fun (e : Enumerate.execution) ->
          Alcotest.(check bool)
            (Fmt.str "%s: prefixes consistent" p.name)
            true
            (prefix_closed pm e.trace))
        (Enumerate.run pm p).executions)
    catalog_programs

let prop_prefix_closure_random =
  QCheck.Test.make ~name:"prefix closure on random programs" ~count:40
    arb_program (fun p ->
      List.for_all
        (fun (e : Enumerate.execution) -> prefix_closed pm e.trace)
        (Enumerate.run pm p).executions)

(* -- consistency invariant under order-preserving permutation -------------- *)

(* the same order-preserving re-merge the fuzzer's enum-naive oracle uses *)
let random_merge = Tmx_fuzz.Oracle.random_merge

let test_permutation_invariance () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun name ->
      let p = (Option.get (Tmx_litmus.Catalog.find name)).program in
      let result = Enumerate.run pm p in
      List.iter
        (fun (e : Enumerate.execution) ->
          let perm = random_merge st e.trace in
          Alcotest.(check bool) "order preserving" true
            (Trace.is_order_preserving e.trace perm);
          let permuted = Trace.permute e.trace perm in
          if Wellformed.is_well_formed permuted then begin
            let verdict t =
              let ctx = Lift.make t in
              Consistency.consistent_axioms pm ctx (Hb.compute pm ctx)
            in
            Alcotest.(check bool) "axioms invariant" (verdict e.trace) (verdict permuted)
          end)
        result.executions)
    [ "privatization"; "publication"; "sb"; "aborted_pub" ]

let suite =
  [
    Alcotest.test_case "SC-LTRF on the catalog" `Slow test_sc_ltrf_catalog;
    Tb.qcheck prop_sc_ltrf_random;
    Alcotest.test_case "race-free programs behave sequentially" `Quick
      test_race_free_sequential;
    Alcotest.test_case "Thm 4.2 on the catalog" `Slow test_theorem_4_2_catalog;
    Tb.qcheck prop_theorem_4_2_random;
    Alcotest.test_case "Lemma 5.1 on the catalog" `Slow test_lemma_5_1_catalog;
    Tb.qcheck prop_lemma_5_1_random;
    Alcotest.test_case "strongest variant refines pm" `Slow test_strongest_refines_pm;
    Alcotest.test_case "model lattice monotone on the catalog" `Slow
      test_monotonicity_catalog;
    Tb.qcheck prop_monotonicity_random;
    Tb.qcheck prop_im_equals_bare_fence_free;
    Alcotest.test_case "prefix closure on the catalog" `Slow
      test_prefix_closure_catalog;
    Tb.qcheck prop_prefix_closure_random;
    Alcotest.test_case "permutation invariance" `Quick test_permutation_invariance;
  ]

(* Quick: under a tenth of a second. *)
let quick_suite =
  [ Alcotest.test_case "Lemma 5.1 counts on the catalog" `Quick test_lemma_5_1_counts ]
