(* The determinism contract of the domain-parallel enumerator: for any
   [jobs], Enumerate.run returns bit-identical results to the sequential
   path — same executions in the same order, same graphs count, same
   cap/truncation flags.  Plus oracle tests pinning the incremental
   transitive-closure maintenance (Rel.add_edge_closed /
   union_into_closed) and the incremental happens-before fixpoint to
   their reference implementations. *)

open Tmx_core
open Tmx_exec

let models = [ Model.programmer; Model.implementation ]

let check_same_result name (a : Enumerate.result) (b : Enumerate.result) =
  Alcotest.(check int) (name ^ ": graphs") a.graphs b.graphs;
  Alcotest.(check int) (name ^ ": explored") a.explored b.explored;
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

(* Every catalog program, every model: jobs=4 must reproduce jobs=1
   exactly.  Every catalog program sits below the parallel threshold
   (the largest reduced estimate is temporal's 100), so this pins the
   sequential fallback; the stress program below, and reduction_quick's
   capped image combo, are the runs that reach the pool. *)
let test_catalog_jobs () =
  List.iter
    (fun (lit : Tmx_litmus.Litmus.t) ->
      let p = lit.program in
      List.iter
        (fun model ->
          let run jobs =
            Enumerate.run
              ~config:{ Enumerate.default_config with jobs }
              model p
          in
          check_same_result
            (Fmt.str "%s/%s" lit.name model.Model.name)
            (run 1) (run 4))
        models)
    Tmx_litmus.Catalog.all

(* An enumeration-heavy program (well above the sequential-fallback
   threshold), also run with a graph cap that lands mid-enumeration:
   the cap bookkeeping must merge deterministically too. *)
let stress_program =
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

(* [f ()] reaches the pool: it spawned a domain, wherever the machine
   has a core to spare (on one core the pool never spawns) *)
let in_pool name f =
  let before = Pool.spawned () in
  let r = f () in
  if Pool.available_cores () > 1 && Pool.spawned () = before then
    Alcotest.failf "%s: the run did not reach the domain pool" name;
  r

let test_stress_jobs () =
  let run ?(max_graphs = Enumerate.default_config.max_graphs) jobs =
    Enumerate.run
      ~config:{ Enumerate.default_config with jobs; max_graphs }
      Model.implementation stress_program
  in
  check_same_result "stress" (run 1) (in_pool "stress jobs=4" (fun () -> run 4));
  check_same_result "stress jobs=3" (run 1) (in_pool "stress jobs=3" (fun () -> run 3));
  let capped = run ~max_graphs:100 1 in
  Alcotest.(check bool) "cap exercised" true capped.capped;
  check_same_result "stress capped" capped
    (in_pool "stress capped jobs=4" (fun () -> run ~max_graphs:100 4))

(* Six interchangeable writers and a reader: 5040 candidates. *)
let w6r1 =
  let open Tmx_lang.Ast in
  let x = loc "x" in
  program ~name:"w6r1" ~locs:[ "x" ]
    (List.init 6 (fun _ -> [ store x (int 1) ]) @ [ [ load "r" x ] ])

(* w6r1 capped below its candidates: the reduced walk reaches the pool
   at jobs = 2 with one task per first-read choice, and a task must stop
   where the cap stops the jobs = 1 walk, or [explored] (which a cached
   entry keeps) depends on who computed it. *)
let test_capped_explored () =
  let run jobs =
    Enumerate.run
      ~config:{ Enumerate.default_config with jobs; max_graphs = 1000 }
      Model.programmer w6r1
  in
  let seq = run 1 in
  Alcotest.(check bool) "cap exercised" true seq.capped;
  check_same_result "w6r1 capped" seq (in_pool "w6r1 capped jobs=2" (fun () -> run 2))

(* --- the pool itself: argument normalization and error parity --- *)

exception Task_failed of int

let test_pool_exception_parity () =
  let run jobs =
    match
      Pool.run_tasks ~jobs ~tasks:8 (fun i ->
          if i = 3 then raise (Task_failed i) else i)
    with
    | _ -> None
    | exception Task_failed i -> Some i
  in
  (* the sequential fallback and the parallel pool must surface the same
     exception through the same capture-and-reraise path *)
  Alcotest.(check (option int)) "jobs=1 raises the task's exception" (Some 3)
    (run 1);
  Alcotest.(check (option int)) "jobs=4 raises the task's exception" (Some 3)
    (run 4);
  Alcotest.(check (option int)) "jobs=8 raises the task's exception" (Some 3)
    (run 8)

let test_pool_jobs_clamped () =
  let expected = Array.init 5 (fun i -> i * i) in
  let run jobs = Pool.run_tasks ~jobs ~tasks:5 (fun i -> i * i) in
  Alcotest.(check bool) "jobs=0 clamps to sequential" true (run 0 = expected);
  Alcotest.(check bool) "jobs=-3 clamps to sequential" true (run (-3) = expected);
  Alcotest.(check bool) "tasks=0 yields empty" true
    (Pool.run_tasks ~jobs:4 ~tasks:0 (fun i -> i) = [||]);
  Alcotest.check_raises "negative tasks rejected"
    (Invalid_argument "Pool.run_tasks: negative tasks") (fun () ->
      ignore (Pool.run_tasks ~jobs:2 ~tasks:(-1) (fun i -> i)))

(* --- incremental closure vs Warshall --- *)

let arb_rel n density =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let r = Rel.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Random.State.float st 1.0 < density then Rel.add r i j
        done
      done;
      r)
    QCheck.small_int

let prop_add_edge_closed =
  QCheck.Test.make ~name:"add_edge_closed edge-by-edge = Warshall" ~count:100
    (arb_rel 23 0.08) (fun r ->
      let inc = Rel.create (Rel.size r) in
      Rel.iter r (fun i j -> ignore (Rel.add_edge_closed inc i j));
      Rel.equal inc (Rel.transitive_closure r))

let prop_union_into_closed =
  QCheck.Test.make ~name:"union_into_closed = Warshall on the union"
    ~count:100
    (QCheck.pair (arb_rel 23 0.06) (arb_rel 23 0.06))
    (fun (a, b) ->
      let into = Rel.transitive_closure a in
      let changed = Rel.union_into_closed ~into b in
      let reference = Rel.transitive_closure (Rel.union a b) in
      Rel.equal into reference
      && changed = not (Rel.equal into (Rel.transitive_closure a)))

(* --- incremental hb vs the per-round-Warshall reference and Naive --- *)

let hb_models =
  [ Model.programmer; Model.implementation; Model.strongest; Model.bare ]

let prop_hb_incremental =
  QCheck.Test.make ~name:"incremental hb = reference hb = naive hb" ~count:120
    Test_naive.arb_trace (fun t ->
      List.for_all
        (fun model ->
          let ctx = Lift.make t in
          let inc = Hb.compute model ctx in
          let ref_ = Hb.compute_reference model ctx in
          let naive = Naive.hb model t in
          Rel.equal inc ref_
          &&
          let ok = ref true in
          for i = 0 to Trace.length t - 1 do
            for j = 0 to Trace.length t - 1 do
              if Rel.mem inc i j <> naive i j then ok := false
            done
          done;
          !ok)
        hb_models)

let suite =
  [
    Alcotest.test_case "jobs=4 = jobs=1 on the whole catalog" `Slow
      test_catalog_jobs;
    Alcotest.test_case "jobs split and cap merge deterministically" `Quick
      test_stress_jobs;
    Alcotest.test_case "capped explored is jobs-independent" `Quick
      test_capped_explored;
    Alcotest.test_case "pool raises identically whatever jobs" `Quick
      test_pool_exception_parity;
    Alcotest.test_case "pool clamps pathological arguments" `Quick
      test_pool_jobs_clamped;
    Tb.qcheck prop_add_edge_closed;
    Tb.qcheck prop_union_into_closed;
    Tb.qcheck prop_hb_incremental;
  ]
