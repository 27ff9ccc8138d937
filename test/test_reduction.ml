(* The verdict-preservation contract of the reduced enumerator
   (docs/ENUMERATION.md):

   - [Dpor] is bit-identical to the unreduced reference — the same
     executions in the same order, the same candidate accounting, the
     same cap/truncation flags — while exploring no more states;
   - [Dpor_sym] preserves the execution multiset (hence every verdict
     and outcome set) and the candidate accounting, exploring no more
     states than [Dpor];
   - both hold for every [jobs], and compose with the graph cap.

   Checked exhaustively over the litmus catalog × every model × a
   jobs × reduction matrix, then pinned on random mixed-access programs
   with the enumerated executions cross-checked against the
   definition-faithful [Naive] axioms. *)

open Tmx_core
open Tmx_exec

let run ?(jobs = 1) ?(max_graphs = Enumerate.default_config.max_graphs)
    reduction model p =
  Enumerate.run
    ~config:{ Enumerate.default_config with jobs; max_graphs; reduction }
    model p

let strategies = [ Enumerate.No_reduction; Enumerate.Dpor; Enumerate.Dpor_sym ]

(* order-sensitive equality: executions, traces, accounting *)
let check_identical name (a : Enumerate.result) (b : Enumerate.result) =
  Alcotest.(check int) (name ^ ": graphs") a.graphs b.graphs;
  Alcotest.(check bool) (name ^ ": capped") a.capped b.capped;
  Alcotest.(check bool) (name ^ ": truncated") a.truncated b.truncated;
  Alcotest.(check int)
    (name ^ ": execution count")
    (List.length a.executions)
    (List.length b.executions);
  List.iter2
    (fun (x : Enumerate.execution) (y : Enumerate.execution) ->
      if not (Outcome.equal x.outcome y.outcome) then
        Alcotest.failf "%s: outcomes diverge" name;
      if Trace.events x.trace <> Trace.events y.trace then
        Alcotest.failf "%s: traces diverge" name)
    a.executions b.executions

(* order-insensitive equality: the execution multiset and accounting —
   what [Dpor_sym] promises *)
let exec_key (e : Enumerate.execution) =
  (Trace.events e.trace, Fmt.str "%a" Outcome.pp e.outcome)

let check_same_multiset name (a : Enumerate.result) (b : Enumerate.result) =
  Alcotest.(check int) (name ^ ": graphs") a.graphs b.graphs;
  Alcotest.(check bool) (name ^ ": capped") a.capped b.capped;
  Alcotest.(check bool) (name ^ ": truncated") a.truncated b.truncated;
  let keys r = List.sort compare (List.map exec_key r.Enumerate.executions) in
  if keys a <> keys b then Alcotest.failf "%s: execution multisets differ" name

(* Every catalog program × every model × jobs ∈ {1, 4}: dpor must be
   bit-identical to none, dpor+sym multiset-identical, and explored
   states must shrink monotonically none ≥ dpor ≥ dpor+sym. *)
let test_catalog_matrix () =
  let explored_none = ref 0 and explored_dpor = ref 0 and explored_sym = ref 0 in
  List.iter
    (fun (lit : Tmx_litmus.Litmus.t) ->
      List.iter
        (fun (model : Model.t) ->
          let name = Fmt.str "%s/%s" lit.name model.name in
          let rn = run Enumerate.No_reduction model lit.program in
          let rd = run Enumerate.Dpor model lit.program in
          let rs = run Enumerate.Dpor_sym model lit.program in
          check_identical (name ^ " dpor=none") rn rd;
          check_same_multiset (name ^ " dpor+sym~none") rn rs;
          if rd.explored > rn.explored || rs.explored > rd.explored then
            Alcotest.failf "%s: explored grew under reduction (%d/%d/%d)" name
              rn.explored rd.explored rs.explored;
          explored_none := !explored_none + rn.explored;
          explored_dpor := !explored_dpor + rd.explored;
          explored_sym := !explored_sym + rs.explored;
          (* the jobs matrix within each reduction *)
          List.iter
            (fun reduction ->
              check_identical
                (Fmt.str "%s %s jobs" name (Enumerate.reduction_name reduction))
                (run ~jobs:1 reduction model lit.program)
                (run ~jobs:4 reduction model lit.program))
            [ Enumerate.No_reduction; Enumerate.Dpor; Enumerate.Dpor_sym ])
        Model.all)
    Tmx_litmus.Catalog.all;
  (* the reduction must actually bite somewhere on the catalog *)
  if not (!explored_dpor < !explored_none) then
    Alcotest.failf "dpor never pruned anything (%d vs %d explored)"
      !explored_dpor !explored_none;
  if not (!explored_sym < !explored_dpor) then
    Alcotest.failf "symmetry never collapsed an orbit (%d vs %d explored)"
      !explored_sym !explored_dpor

(* A graph cap landing mid-enumeration: dpor's bulk claims must
   reproduce the reference's cap point and kept prefix exactly. *)
let test_capped () =
  let stress =
    let open Tmx_lang.Ast in
    let x = loc "x" in
    program ~name:"stress" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ atomic [ store x (int 3) ] ];
        [ store x (int 4) ];
        [ load "r1" x; load "r2" x ];
      ]
  in
  let rn = run ~max_graphs:100 Enumerate.No_reduction Model.implementation stress in
  let rd = run ~max_graphs:100 Enumerate.Dpor Model.implementation stress in
  Alcotest.(check bool) "cap exercised" true rn.capped;
  check_identical "capped stress dpor=none" rn rd;
  (* under a cap the symmetric quotient may keep a different subset, but
     the accounting must still match *)
  let rs = run ~max_graphs:100 Enumerate.Dpor_sym Model.implementation stress in
  Alcotest.(check int) "capped graphs sym" rn.graphs rs.graphs;
  Alcotest.(check bool) "capped flag sym" rn.capped rs.capped

(* A graph cap that lands inside an image combo, at every jobs value.
   Images are transported in the representative's pool task and the cap
   is applied at the merge, so the kept prefix — the image's executions
   below the cut, none above — must come out bit-identical whatever
   [jobs] was, with the reference's accounting. *)
let test_capped_images () =
  let p =
    let open Tmx_lang.Ast in
    let x = loc "x" in
    program ~name:"capsym" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ store x (int 1) ];
        [ load "r1" x; load "r2" x ];
        [ load "r1" x; load "r2" x ];
      ]
  in
  let _, thread_paths, _ = Enumerate.unfold_combos Enumerate.default_config p in
  let radices = Array.of_list (List.map List.length thread_paths) in
  let sym =
    match Symmetry.orbits ~radices (Symmetry.find thread_paths) with
    | Some s -> s
    | None -> Alcotest.fail "capsym has no symmetry"
  in
  (* candidates per combo, in combo order *)
  let counts = ref [] in
  Combo.product thread_paths (fun paths ->
      counts := Combo.graph_count (Combo.prepare paths) :: !counts);
  let counts = Array.of_list (List.rev !counts) in
  (* the image combo with the most candidates, cut in its middle *)
  let best = ref (-1) in
  Array.iteri
    (fun idx c ->
      if Symmetry.rep sym idx <> idx && (!best < 0 || c > counts.(!best)) then best := idx)
    counts;
  let start = Array.fold_left ( + ) 0 (Array.sub counts 0 !best) in
  let cap = start + (counts.(!best) / 2) in
  let at ?(jobs = 1) max_graphs =
    run ~jobs ~max_graphs Enumerate.Dpor_sym Model.programmer p
  in
  let r1 = at cap in
  Alcotest.(check bool) "capped" true r1.capped;
  Alcotest.(check int) "graphs at the cap" cap r1.graphs;
  let count (r : Enumerate.result) = List.length r.executions in
  (* the cut falls among the image's executions *)
  if not (count (at start) < count r1 && count r1 < count (at (start + counts.(!best))))
  then Alcotest.failf "cap %d does not cut an image's executions" cap;
  let rn = run ~max_graphs:cap Enumerate.No_reduction Model.programmer p in
  Alcotest.(check int) "graphs = reference" rn.graphs r1.graphs;
  Alcotest.(check bool) "capped = reference" rn.capped r1.capped;
  List.iter
    (fun jobs ->
      let name = Fmt.str "capsym jobs %d" jobs in
      check_identical name r1 (Test_parallel.in_pool name (fun () -> at ~jobs cap)))
    [ 2; 4 ]

(* Every catalog program × every model at jobs 1: dpor bit-identical to
   none.  The quick sibling of the matrix above, and a test that sees a
   wrong leaf verdict: random mixed programs almost never reach a leaf
   that the invariants do not decide, the catalog does. *)
let test_catalog_leaves () =
  List.iter
    (fun (lit : Tmx_litmus.Litmus.t) ->
      List.iter
        (fun (model : Model.t) ->
          check_identical
            (Fmt.str "%s/%s dpor=none" lit.name model.name)
            (run Enumerate.No_reduction model lit.program)
            (run Enumerate.Dpor model lit.program))
        Model.all)
    Tmx_litmus.Catalog.all

(* Golden digests.  Every comparison above holds one strategy to
   another, so none of them sees a change that every strategy shares —
   a new linearization order, a reordered trace, another outcome.  These
   MD5 literals pin each execution's compact trace and outcome, in
   order, with the graphs, explored and capped counts of every run; a
   change that alters any of them changes what users see, and must say
   so where it updates them. *)
let digest_of runs =
  let b = Buffer.create 65536 in
  List.iter
    (fun (r : Enumerate.result) ->
      List.iter
        (fun (e : Enumerate.execution) ->
          Buffer.add_string b
            (Fmt.str "%a\n%a\n" Trace.pp_compact e.trace Outcome.pp e.outcome))
        r.executions;
      Buffer.add_string b
        (Fmt.str "graphs=%d explored=%d capped=%b\n" r.graphs r.explored r.capped))
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the frontier program of perfbench's corpus where symmetry prunes:
   three writers, three interchangeable two-read observers *)
let w3o3 =
  let open Tmx_lang.Ast in
  let x = loc "x" in
  program ~name:"w3o3" ~locs:[ "x" ]
    [
      [ store x (int 1) ];
      [ store x (int 2) ];
      [ atomic [ store x (int 3) ] ];
      [ load "r1" x; load "r2" x ];
      [ load "r1" x; load "r2" x ];
      [ load "r1" x; load "r2" x ];
    ]

(* The capped w3o3 digests of dpor and dpor+sym changed in explored
   only (24576 → 5000 and 4896 → 2244) when the reduced tasks came to
   claim global ordinals and stopped checking leaves past the cap: the
   same digest without explored is equal before and after. *)
let golden =
  [
    ( Enumerate.No_reduction,
      "84efc3360a0e5803b11b659c56cc3f9d",
      "0d675f67f64c34f94fdb06c3e2535227" );
    (Enumerate.Dpor, "56949030c61abf17fdae4d63afdbeafb", "0d675f67f64c34f94fdb06c3e2535227");
    ( Enumerate.Dpor_sym,
      "e05cfbd880cd2968199544289151eeb5",
      "9a249cdcc28a03d512f5480f8cca9363" );
  ]

let test_golden () =
  List.iter
    (fun (reduction, catalog, frontier) ->
      let name = Enumerate.reduction_name reduction in
      let catalog_runs =
        List.concat_map
          (fun (lit : Tmx_litmus.Litmus.t) ->
            List.map
              (fun model -> run reduction model lit.program)
              [ Model.programmer; Model.implementation; Model.strongest ])
          Tmx_litmus.Catalog.all
      in
      Alcotest.(check string) (name ^ ": catalog x {pm, im, strong}") catalog
        (digest_of catalog_runs);
      Alcotest.(check string) (name ^ ": w3o3 capped at 5000") frontier
        (digest_of [ run ~max_graphs:5000 reduction Model.programmer w3o3 ]))
    golden

(* The cap rule.  Every strategy counts candidates by the same global
   ordinals, so a capped run checks no leaf past the cap: explored ≤
   graphs, explored shrinks none ≥ dpor ≥ dpor+sym, graphs and capped
   agree across the strategies, and dpor keeps the reference's
   executions in order.  Every value is the same at jobs 1 and at jobs
   2, where the reduced runs reach the pool. *)
let test_cap_rule () =
  List.iter
    (fun ((p : Tmx_lang.Ast.program), cap) ->
      let name = Fmt.str "%s capped at %d" p.name cap in
      let at jobs =
        let rs = List.map (fun r -> run ~jobs ~max_graphs:cap r Model.programmer p) strategies in
        let rn, rd, rs = match rs with [ a; b; c ] -> (a, b, c) | _ -> assert false in
        let name = Fmt.str "%s jobs %d" name jobs in
        Alcotest.(check bool) (name ^ ": capped") true rn.capped;
        List.iter
          (fun (r : Enumerate.result) ->
            if r.explored > r.graphs then
              Alcotest.failf "%s: explored %d > graphs %d" name r.explored r.graphs)
          [ rn; rd; rs ];
        if rd.explored > rn.explored || rs.explored > rd.explored then
          Alcotest.failf "%s: explored grew under reduction (%d/%d/%d)" name rn.explored
            rd.explored rs.explored;
        check_identical (name ^ " dpor=none") rn rd;
        Alcotest.(check int) (name ^ ": graphs sym") rn.graphs rs.graphs;
        Alcotest.(check bool) (name ^ ": capped sym") rn.capped rs.capped;
        [ rn; rd; rs ]
      in
      let r1 = at 1 in
      let r2 = at 2 in
      List.iter2
        (fun reduction (a, b) ->
          Test_parallel.check_same_result
            (Fmt.str "%s %s jobs 1 = jobs 2" name (Enumerate.reduction_name reduction))
            a b)
        strategies (List.combine r1 r2))
    [ (w3o3, 500); (w3o3, 5000); (Test_parallel.w6r1, 1000) ]

(* Races at the leaf.  [Enumerate.run ~races:true] reads each
   execution's races off the hb its strategy already holds (the trace's
   hb without reduction, the leaf's under dpor, the representative's
   leaf renamed through π for a symmetry image); the independent
   reference derives them again from the trace. *)
let run_races ?(jobs = 1) ?(max_graphs = Enumerate.default_config.max_graphs)
    reduction model p =
  Enumerate.run ~races:true
    ~config:{ Enumerate.default_config with jobs; max_graphs; reduction }
    model p

let races_match model (r : Enumerate.result) =
  match r.races with
  | None -> Error "no races returned"
  | Some races when Array.length races <> List.length r.executions ->
      Error "one race list per execution"
  | Some races ->
      let bad = ref None in
      List.iteri
        (fun i (e : Enumerate.execution) ->
          if !bad = None && races.(i) <> Verdict.execution_races model e.trace then
            bad := Some (Fmt.str "execution %d: %a" i Trace.pp_compact e.trace))
        r.executions;
      Option.fold ~none:(Ok ()) ~some:Result.error !bad

let check_races name model r =
  match races_match model r with Ok () -> () | Error m -> Alcotest.failf "%s: %s" name m

(* At jobs 1 only: no catalog program reaches the pool's threshold, so
   jobs 2 would run the same sequential path; the pool is
   [test_leaf_races_pool]'s. *)
let test_leaf_races_catalog () =
  List.iter
    (fun (lit : Tmx_litmus.Litmus.t) ->
      List.iter
        (fun (model : Model.t) ->
          List.iter
            (fun reduction ->
              check_races
                (Fmt.str "%s/%s %s" lit.name model.name (Enumerate.reduction_name reduction))
                model
                (run_races reduction model lit.program))
            strategies)
        Model.all)
    Tmx_litmus.Catalog.all

(* Two interchangeable readers whose races depend on what they read: a
   reader that sees y = 1 has T0's plain x write hb-before its own plain
   read of x (po ; cwr ; po), one that sees y = 0 races with it.  So an
   image combo (the readers' paths swapped) races at other trace
   positions than its representative, which neither the catalog nor
   w3o3 shows: images there race exactly where their representatives
   do. *)
let mp2 =
  let open Tmx_lang.Ast in
  let x = loc "x" and y = loc "y" in
  program ~name:"mp2" ~locs:[ "x"; "y" ]
    [
      [ store x (int 1); atomic [ store y (int 1) ] ];
      [ atomic [ load "a" y ]; load "b" x ];
      [ atomic [ load "a" y ]; load "b" x ];
    ]

let test_leaf_races_images () =
  List.iter
    (fun (model : Model.t) ->
      check_races ("mp2/" ^ model.name) model
        (run_races Enumerate.Dpor_sym model mp2))
    Model.all

(* w3o3 is big enough for the pool at jobs 2: dpor's pinned tasks read
   their own leaves, and under dpor+sym the images are transported
   inside the workers.  The reference runs on one domain whatever
   [jobs] says, and reads its trace's hb. *)
let test_leaf_races_pool () =
  List.iter
    (fun reduction ->
      let name = "w3o3 " ^ Enumerate.reduction_name reduction in
      let run () = run_races ~jobs:2 ~max_graphs:5000 reduction Model.programmer w3o3 in
      check_races name Model.programmer
        (if reduction = Enumerate.No_reduction then run ()
         else Test_parallel.in_pool name run))
    strategies

(* A thread-symmetric program must collapse orbits: interchangeable
   readers over one location. *)
let test_symmetry_bites () =
  let p =
    let open Tmx_lang.Ast in
    let x = loc "x" in
    program ~name:"sym3" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ load "r" x ];
        [ load "r" x ];
        [ load "r" x ];
      ]
  in
  let rd = run Enumerate.Dpor Model.programmer p in
  let rs = run Enumerate.Dpor_sym Model.programmer p in
  check_same_multiset "sym3" rd rs;
  if not (rs.explored < rd.explored) then
    Alcotest.failf "interchangeable readers not collapsed (%d vs %d explored)"
      rs.explored rd.explored

(* Random mixed-access programs (the fuzzer's preset): the reduction
   contract plus the [Naive] cross-check — every execution the reduced
   enumerator emits satisfies the definition-faithful axioms. *)
let arb_mixed =
  QCheck.map
    (fun seed -> Tmx_fuzz.Gen.program Tmx_fuzz.Gen.mixed (Random.State.make [| 0x52ed; seed |]))
    QCheck.small_int

let naive_trace_limit = 14

let prop_reduction_sound =
  QCheck.Test.make ~name:"dpor/dpor+sym preserve verdicts on random mixed programs"
    ~count:60 arb_mixed (fun p ->
      List.for_all
        (fun (model : Model.t) ->
          let rn = run Enumerate.No_reduction model p in
          let rd = run Enumerate.Dpor model p in
          let rs = run Enumerate.Dpor_sym model p in
          let keys r =
            List.map exec_key r.Enumerate.executions
          in
          keys rn = keys rd
          && rn.graphs = rd.graphs && rn.graphs = rs.graphs
          && rn.capped = rd.capped && rn.capped = rs.capped
          && List.sort compare (keys rn) = List.sort compare (keys rs)
          && rd.explored <= rn.explored && rs.explored <= rd.explored
          && List.for_all
               (fun (e : Enumerate.execution) ->
                 Trace.length e.trace > naive_trace_limit
                 || Naive.consistent_axioms model e.trace)
               rs.executions)
        [ Model.programmer; Model.implementation; Model.bare ])

let prop_leaf_races =
  QCheck.Test.make ~name:"leaf races = trace-derived races on random mixed programs"
    ~count:60 arb_mixed (fun p ->
      List.for_all
        (fun (model : Model.t) ->
          List.for_all
            (fun reduction ->
              match races_match model (run_races reduction model p) with
              | Ok () -> true
              | Error m ->
                  QCheck.Test.fail_reportf "%s %s: %s" model.name
                    (Enumerate.reduction_name reduction) m)
            strategies)
        [ Model.programmer; Model.implementation ])

let suite =
  [
    Alcotest.test_case "catalog jobs x reduction matrix" `Slow test_catalog_matrix;
    Alcotest.test_case "graph cap under reduction" `Quick test_capped;
    Alcotest.test_case "symmetry collapses interchangeable threads" `Quick
      test_symmetry_bites;
    Tb.qcheck prop_reduction_sound;
  ]

(* About four seconds on 2 vCPUs, most of it the leaf-race tests'
   trace-derived reference, so not among the exhaustive suites
   (test/main.ml). *)
let quick_suite =
  [
    Alcotest.test_case "catalog x every model, dpor = none" `Quick
      test_catalog_leaves;
    Alcotest.test_case "graph cap inside an image combo at every jobs" `Quick
      test_capped_images;
    Alcotest.test_case "golden trace digests: catalog, w3o3 capped" `Quick test_golden;
    Alcotest.test_case "capped runs check no leaf past the cap, at jobs 1 and 2" `Quick
      test_cap_rule;
    Alcotest.test_case "leaf races = trace races: catalog x every model x strategy" `Quick
      test_leaf_races_catalog;
    Alcotest.test_case "leaf races = trace races: images that race elsewhere" `Quick
      test_leaf_races_images;
    Alcotest.test_case "leaf races = trace races: w3o3 capped, in the pool" `Quick
      test_leaf_races_pool;
    Tb.qcheck prop_leaf_races;
  ]
