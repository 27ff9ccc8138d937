(* The benchmark harness.

   The paper is a theory paper: its "tables and figures" are the verdict
   annotations on its example executions, the theorem statements, and the
   §6 compilation/fencing discussion.  This harness regenerates each of
   them (EXPERIMENTS.md maps experiment ids to the sections below):

   part 1 — the verdict matrix across the model design space (§1–§3, §5,
            App D), i.e. every figure's allowed/forbidden annotation;
   part 2 — the theorem checks (§4, §5): SC-LTRF, Thm 4.2, Lemma 5.1;
   part 3 — the STM-design table (§3): which anomalies each operational
            STM strategy exhibits, and what repairs them;
   part 4 — timing: the model checker itself, and the §6-style fencing
            cost measurements on the real multicore STM runtime
            (transaction cost lazy vs eager, read-only commits, plain vs
            transactional access, quiescence-fence cost). *)

open Bechamel
open Toolkit
open Tmx_core
open Tmx_exec

let catalog name = (Option.get (Tmx_litmus.Catalog.find name)).Tmx_litmus.Litmus.program

(* ------------------------------------------------------------------ *)
(* part 1: verdict matrix                                              *)
(* ------------------------------------------------------------------ *)

(* The part-1 probe list, shared with the part-4 parallel-speedup run. *)
let matrix_probes : (string * string * (Outcome.t -> bool)) list =
  [
      ("privatization", "x=1", fun o -> Outcome.mem o "x" = 1);
      ("publication", "z=0", fun o -> Outcome.mem o "z" = 0);
      ("ex2_2", "x=2", fun o -> Outcome.mem o "x" = 2);
      ("lb", "r=q=1", fun o -> Outcome.reg o 0 "r" = 1 && Outcome.reg o 1 "q" = 1);
      ("sb", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_1", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_2", "r=q=0", fun o -> Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0);
      ("ex3_3", "q=0", fun o -> Outcome.mem o "q" = 0);
      ("ex3_4", "q=0", fun o -> Outcome.reg o 1 "q" = 0);
      ("ex3_5", "r1<>r2", fun o -> Outcome.reg o 0 "r1" <> Outcome.reg o 0 "r2");
      ("impl_reorder", "ry=0,r=0", fun o -> Outcome.reg o 0 "ry" = 0 && Outcome.reg o 1 "r" = 0);
      ("privatization_fence", "x=1", fun o -> Outcome.mem o "x" = 1);
      ("d1_opaque_writes", "r=1", fun o -> Outcome.reg o 1 "r" = 1);
      ("d2_race_free_speculation", "r<>2", fun o -> Outcome.reg o 2 "r" <> 2);
      ("d3_dirty_reads", "x=0,w=1", fun o -> Outcome.mem o "x" = 0 && Outcome.mem o "w" = 1);
      ("d4_no_overlapped_writes", "r=0", fun o -> Outcome.mem o "r" = 0);
    ]

let verdict_matrix () =
  Fmt.pr "@.=== part 1: verdict matrix (paper figures, all models) ===@.@.";
  Fmt.pr "%-26s %-9s" "program" "outcome";
  List.iter (fun (m : Model.t) -> Fmt.pr " %-6s" m.name) Model.all;
  Fmt.pr "@.";
  List.iter
    (fun (name, what, cond) ->
      Fmt.pr "%-26s %-9s" name what;
      List.iter
        (fun model ->
          let allowed = Enumerate.allowed (Enumerate.run model (catalog name)) cond in
          Fmt.pr " %-6s" (if allowed then "yes" else "no"))
        Model.all;
      Fmt.pr "@.")
    matrix_probes

let shapes_summary () =
  Fmt.pr "@.=== shape families (plain/transactional site matrix) ===@.@.";
  let results = Tmx_litmus.Shapes.run_all () in
  let families =
    List.sort_uniq compare
      (List.map (fun (r : Tmx_litmus.Shapes.result) -> r.case.family) results)
  in
  List.iter
    (fun family ->
      let mine =
        List.filter (fun (r : Tmx_litmus.Shapes.result) -> r.case.family = family) results
      in
      let ok = List.length (List.filter (fun (r : Tmx_litmus.Shapes.result) -> r.ok) mine) in
      Fmt.pr "%-8s %d/%d combinations match the model-derived oracle" family ok
        (List.length mine);
      let forbidden =
        List.filter_map
          (fun (r : Tmx_litmus.Shapes.result) ->
            if r.observed_forbidden then Some r.case.name else None)
          mine
      in
      Fmt.pr "  (forbidden: %a)@." Fmt.(list ~sep:sp string) forbidden)
    families

let litmus_summary () =
  Fmt.pr "@.=== litmus expectations (every paper verdict) ===@.@.";
  let pass = ref 0 and total = ref 0 in
  List.iter
    (fun l ->
      incr total;
      let report = Tmx_litmus.Litmus.run l in
      if Tmx_litmus.Litmus.passed report then incr pass
      else Fmt.pr "%a@." Tmx_litmus.Litmus.pp_report report)
    Tmx_litmus.Catalog.all;
  Fmt.pr "%d/%d litmus tests match the paper@." !pass !total

(* ------------------------------------------------------------------ *)
(* part 2: theorems                                                    *)
(* ------------------------------------------------------------------ *)

let theorem_table () =
  Fmt.pr "@.=== part 2: theorem checks (§4, §5) ===@.@.";
  Fmt.pr "%-26s %-28s %-8s %-14s@." "program" "SC-LTRF (racy/weak/seq)" "Thm 4.2"
    "Lemma 5.1";
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      let sc = Verdict.check_sc_ltrf Model.programmer l.program in
      let t42 = Verdict.check_theorem_4_2 Model.programmer l.program in
      let l51 = Verdict.check_lemma_5_1 l.program in
      Fmt.pr "%-26s %-4s (%b/%b/%b)%14s %-8s %s (%d/%d)@." l.name
        (if sc.theorem_holds then "ok" else "FAIL")
        sc.sc_racy sc.weak_exists sc.outcomes_contained ""
        (if t42 then "ok" else "FAIL")
        (if l51.holds then "ok" else "FAIL")
        l51.pm_consistent l51.mixed_race_free)
    Tmx_litmus.Catalog.all

(* ------------------------------------------------------------------ *)
(* part 3: STM design table (§3)                                       *)
(* ------------------------------------------------------------------ *)

let stm_design_table () =
  Fmt.pr "@.=== part 3: operational STM anomalies (§3, exhaustive schedules) ===@.@.";
  let open Tmx_stmsim in
  let configs =
    [
      ("lazy", Stmsim.default_config);
      ("lazy+atomic-commit", { Stmsim.default_config with atomic_commit = true });
      ("eager", { Stmsim.default_config with strategy = Stmsim.Eager });
    ]
  in
  let programs =
    [ "privatization"; "privatization_fence"; "publication"; "ex3_4"; "d3_dirty_reads" ]
  in
  Fmt.pr "%-22s" "program";
  List.iter (fun (n, _) -> Fmt.pr " %-20s" n) configs;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      Fmt.pr "%-22s" name;
      List.iter
        (fun (_, config) ->
          let anomalies = Stmsim.anomalies ~config (catalog name) in
          Fmt.pr " %-20s"
            (if anomalies = [] then "serializable"
             else Fmt.str "%d anomalies" (List.length anomalies)))
        configs;
      Fmt.pr "@.")
    programs

let fence_table () =
  Fmt.pr "@.=== part 3b: §6 fence insertion (realizing pm on an im STM) ===@.@.";
  Fmt.pr "%-18s %-22s %-22s@." "program" "targeted policy" "conservative policy";
  List.iter
    (fun name ->
      let p = catalog name in
      let show policy =
        let r = Tmx_opt.Fenceify.realizes ~policy p in
        Fmt.str "%d fences, %s" r.fences (if r.realizes then "realizes" else "FAILS")
      in
      Fmt.pr "%-18s %-22s %-22s@." name
        (show `After_transactions)
        (show `Every_mixed_access))
    [ "privatization"; "publication"; "ex2_2"; "impl_reorder"; "ldrf_example" ]

(* ------------------------------------------------------------------ *)
(* part 4: timing                                                      *)
(* ------------------------------------------------------------------ *)

let checker_tests =
  let trace =
    let r = Enumerate.run Model.programmer (catalog "privatization") in
    (List.hd r.executions).trace
  in
  Test.make_grouped ~name:"checker"
    (List.map
       (fun (model : Model.t) ->
         Test.make ~name:model.name
           (Staged.stage (fun () -> ignore (Consistency.check model trace))))
       [ Model.programmer; Model.implementation; Model.strongest ])

let enumerate_tests =
  Test.make_grouped ~name:"enumerate"
    (List.map
       (fun name ->
         let p = catalog name in
         Test.make ~name
           (Staged.stage (fun () -> ignore (Enumerate.run Model.programmer p))))
       [ "privatization"; "publication"; "iriw_z"; "ex3_4"; "ex3_5" ])

let sim_tests =
  let open Tmx_stmsim in
  Test.make_grouped ~name:"sim"
    [
      Test.make ~name:"privatization-lazy"
        (Staged.stage (fun () -> ignore (Stmsim.run (catalog "privatization"))));
      Test.make ~name:"privatization-eager"
        (Staged.stage (fun () ->
             ignore
               (Stmsim.run
                  ~config:{ Stmsim.default_config with strategy = Stmsim.Eager }
                  (catalog "privatization"))));
      Test.make ~name:"privatization-fenced"
        (Staged.stage (fun () ->
             ignore (Stmsim.run (catalog "privatization_fence"))));
    ]

(* §6 analogue: the costs a compiler/programmer pays to realize the
   programmer model on an STM that implements the implementation model *)
let runtime_tests =
  let open Tmx_runtime in
  let v = Tvar.make 0 in
  let vars = Array.init 16 (fun _ -> Tvar.make 0) in
  let txn_rw mode n () =
    ignore
      (Stm.atomically ~mode (fun tx ->
           for i = 0 to n - 1 do
             Stm.write tx vars.(i) (Stm.read tx vars.(i) + 1)
           done))
  in
  Test.make_grouped ~name:"stm"
    [
      Test.make ~name:"plain-read" (Staged.stage (fun () -> ignore (Tvar.unsafe_read v)));
      Test.make ~name:"plain-write" (Staged.stage (fun () -> Tvar.unsafe_write v 1));
      Test.make ~name:"txn-read-only"
        (Staged.stage (fun () -> ignore (Stm.atomically (fun tx -> Stm.read tx v))));
      Test.make ~name:"txn-update-lazy-1" (Staged.stage (txn_rw Stm.Lazy 1));
      Test.make ~name:"txn-update-eager-1" (Staged.stage (txn_rw Stm.Eager 1));
      Test.make ~name:"txn-update-lazy-4" (Staged.stage (txn_rw Stm.Lazy 4));
      Test.make ~name:"txn-update-eager-4" (Staged.stage (txn_rw Stm.Eager 4));
      Test.make ~name:"txn-update-lazy-16" (Staged.stage (txn_rw Stm.Lazy 16));
      Test.make ~name:"txn-update-eager-16" (Staged.stage (txn_rw Stm.Eager 16));
      Test.make ~name:"quiesce-global" (Staged.stage (fun () -> Stm.quiesce ()));
      Test.make ~name:"quiesce-selective"
        (Staged.stage (fun () -> Stm.quiesce ~var:v ()));
    ]

let structure_tests =
  let open Tmx_runtime in
  let q = Tqueue.create ~capacity:64 in
  let m = Tmap.create ~capacity:256 in
  ignore (Stm.atomically (fun tx -> Tmap.add tx m 17 1));
  let k = ref 0 in
  Test.make_grouped ~name:"structures"
    [
      Test.make ~name:"tqueue-push-pop"
        (Staged.stage (fun () ->
             ignore
               (Stm.atomically (fun tx ->
                    ignore (Tqueue.push tx q 1);
                    Tqueue.pop tx q))));
      Test.make ~name:"tmap-find"
        (Staged.stage (fun () -> ignore (Stm.atomically (fun tx -> Tmap.find tx m 17))));
      Test.make ~name:"tmap-add-remove"
        (Staged.stage (fun () ->
             incr k;
             let key = 1 + (!k mod 100) in
             ignore
               (Stm.atomically (fun tx ->
                    ignore (Tmap.add tx m key key);
                    Tmap.remove tx m key))));
    ]

let machine_tests =
  Test.make_grouped ~name:"machine"
    (List.map
       (fun name ->
         let p = catalog name in
         Test.make ~name (Staged.stage (fun () -> ignore (Tmx_machine.Machine.run p))))
       [ "privatization"; "iriw_z"; "temporal" ])

let analysis_tests =
  Test.make_grouped ~name:"analysis"
    [
      Test.make ~name:"temporal-stability"
        (Staged.stage (fun () ->
             ignore
               (Tmx_exec.Stability.temporal_holds Model.programmer (catalog "temporal"))));
      Test.make ~name:"sc-ltrf-check"
        (Staged.stage (fun () ->
             ignore
               (Tmx_exec.Verdict.check_sc_ltrf Model.programmer (catalog "privatization"))));
    ]

let opt_tests =
  let p = catalog "privatization" in
  let roach = List.find (fun (t : Tmx_opt.Transform.named) -> t.name = "roach-motel") Tmx_opt.Transform.all in
  Test.make_grouped ~name:"opt"
    [
      Test.make ~name:"roach-motel-soundness"
        (Staged.stage (fun () ->
             ignore
               (Tmx_opt.Soundness.check_transformation Model.implementation roach p)));
    ]

let all_tests =
  Test.make_grouped ~name:"tmx"
    [
      checker_tests; enumerate_tests; machine_tests; sim_tests;
      runtime_tests; structure_tests; analysis_tests; opt_tests;
    ]

let run_benchmarks () =
  Fmt.pr "@.=== part 4: timing (bechamel, monotonic clock) ===@.@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:true
      ~compaction:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      clock []
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Fmt.pr "%-34s (no estimate)@." name
      else if ns > 1_000_000.0 then Fmt.pr "%-34s %10.3f ms/run@." name (ns /. 1e6)
      else if ns > 1_000.0 then Fmt.pr "%-34s %10.3f us/run@." name (ns /. 1e3)
      else Fmt.pr "%-34s %10.1f ns/run@." name ns)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* part 4d: sequential vs parallel enumeration                         *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* one discarded warmup run, then the best wall-clock of [n] — the
   container's first iteration pays page faults and allocator growth that
   a trajectory-tracking witness should not record *)
let best_of n f =
  ignore (f ());
  let r0, t0 = wall f in
  let best = ref t0 in
  for _ = 2 to n do
    let _, t = wall f in
    if t < !best then best := t
  done;
  (r0, !best)

let write_json file j =
  let oc = open_out file in
  output_string oc (Tmx_json.to_string j);
  output_char oc '\n';
  close_out oc

(* A synthetic enumeration-heavy program (one location, four competing
   writers, a three-read observer): thousands of candidate graphs, so
   the intra-run task split has something to chew on. *)
let stress_program =
  let open Tmx_lang.Ast in
  let x = loc "x" in
  program ~name:"stress" ~locs:[ "x" ]
    [
      [ store x (int 1) ];
      [ store x (int 2) ];
      [ atomic [ store x (int 3) ] ];
      [ store x (int 4) ];
      [ load "r1" x; load "r2" x; load "r3" x ];
    ]

(* The --jobs 4 vs --jobs 1 wall-clock comparison, with outcome sets
   verified identical, recorded in BENCH_parallel.json so the perf
   trajectory is tracked across PRs.

   Two measurements: the full part-1 verdict matrix, with its 144
   (program, model) enumerations dispatched as tasks on one shared
   domain pool (each cell is too small to amortize a pool of its own —
   Enumerate's estimator would fall back to sequential — so the matrix
   scales with cores at the cell level, the way a catalog sweep is
   actually served); and one enumeration-heavy program run through
   Enumerate's intra-run linearization-prefix split.  [jobs] defaults
   to 4 (the acceptance target) and follows the machine above that. *)
let parallel_speedup () =
  Fmt.pr "@.=== part 4d: domain-parallel enumeration speedup ===@.@.";
  let cores = Tmx_exec.Pool.available_cores () in
  let jobs = max 4 cores in
  (* the verdict matrix, cells as pool tasks *)
  let cells =
    List.concat_map
      (fun (name, _, _) -> List.map (fun m -> (catalog name, m)) Model.all)
      matrix_probes
    |> Array.of_list
  in
  let run_matrix jobs =
    Tmx_exec.Pool.run_tasks ~jobs ~tasks:(Array.length cells) (fun i ->
        let program, model = cells.(i) in
        Enumerate.outcomes (Enumerate.run model program))
  in
  let seq, t_seq = best_of 3 (fun () -> run_matrix 1) in
  let par, t_par = best_of 3 (fun () -> run_matrix jobs) in
  let identical =
    Array.for_all2 (fun a b -> List.for_all2 Outcome.equal a b) seq par
  in
  (* one heavy program, intra-run split *)
  let run_stress jobs =
    let config = { Enumerate.default_config with jobs } in
    Enumerate.run ~config Model.programmer stress_program
  in
  let sseq, st_seq = best_of 3 (fun () -> run_stress 1) in
  let spar, st_par = best_of 3 (fun () -> run_stress jobs) in
  let s_identical =
    sseq.Enumerate.graphs = spar.Enumerate.graphs
    && List.for_all2 Outcome.equal (Enumerate.outcomes sseq)
         (Enumerate.outcomes spar)
  in
  let speedup = t_seq /. t_par and s_speedup = st_seq /. st_par in
  Fmt.pr
    "verdict matrix (%d cells): jobs=1 %.3fs   jobs=%d %.3fs   speedup %.2fx \
     \  outcome sets identical: %b@."
    (Array.length cells) t_seq jobs t_par speedup identical;
  Fmt.pr
    "stress program (%d graphs): jobs=1 %.3fs   jobs=%d %.3fs   speedup \
     %.2fx   outcome sets identical: %b   (%d cores available)@."
    sseq.Enumerate.graphs st_seq jobs st_par s_speedup s_identical cores;
  let leg count_key count t_seq t_par speedup identical =
    Tmx_json.(
      Obj
        [
          (count_key, int count);
          ("seconds_sequential", Num t_seq);
          ("seconds_parallel", Num t_par);
          ("speedup", Num speedup);
          ("outcomes_identical", Bool identical);
        ])
  in
  write_json "BENCH_parallel.json"
    Tmx_json.(
      Obj
        [
          ("experiment", Str "parallel_enumeration_speedup");
          ("jobs", int jobs);
          ("cores_available", int cores);
          ("verdict_matrix", leg "cells" (Array.length cells) t_seq t_par speedup identical);
          ( "stress_intra_run",
            leg "candidate_graphs" sseq.Enumerate.graphs st_seq st_par s_speedup s_identical );
        ]);
  if not (identical && s_identical) then
    failwith "parallel enumeration diverged from sequential"

(* ------------------------------------------------------------------ *)
(* part 4d': reduced vs unreduced enumeration                          *)
(* ------------------------------------------------------------------ *)

(* The --reduction acceptance measurement (docs/ENUMERATION.md).  Two
   legs, recorded in BENCH_reduction.json:

   - the full litmus catalog x every model, enumerated under each
     strategy, with dpor checked bit-identical to the unreduced
     reference and dpor+sym multiset-identical (the bench FAILS on
     divergence — the reduction is an accelerator, never an oracle);
   - frontier programs one thread past the catalog's largest, where the
     unreduced enumerator is already impractical, timed under every
     strategy the same way. *)

let exec_key (e : Enumerate.execution) =
  (Trace.events e.trace, Fmt.str "%a" Outcome.pp e.outcome)

let frontier_programs =
  let open Tmx_lang.Ast in
  let x = loc "x" in
  [
    (* stress_program plus a fifth competing writer: six threads, one
       past anything the unreduced test suite enumerates *)
    program ~name:"w5r3" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ atomic [ store x (int 3) ] ];
        [ store x (int 4) ];
        [ store x (int 5) ];
        [ load "r1" x; load "r2" x; load "r3" x ];
      ];
    (* three interchangeable two-read observers: the symmetry
       quotient's home turf *)
    program ~name:"w3o3" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ atomic [ store x (int 3) ] ];
        [ load "r1" x; load "r2" x ];
        [ load "r1" x; load "r2" x ];
        [ load "r1" x; load "r2" x ];
      ];
  ]

let reduction_speedup () =
  Fmt.pr "@.=== part 4d': reduced vs unreduced enumeration ===@.@.";
  let reductions =
    [ Enumerate.No_reduction; Enumerate.Dpor; Enumerate.Dpor_sym ]
  in
  let rname = Enumerate.reduction_name in
  (* leg 1: the catalog matrix *)
  let run_catalog reduction =
    let config = { Enumerate.default_config with jobs = 1; reduction } in
    List.concat_map
      (fun (l : Tmx_litmus.Litmus.t) ->
        List.map (fun m -> Enumerate.run ~config m l.program) Model.all)
      Tmx_litmus.Catalog.all
  in
  let runs =
    List.map (fun r -> (r, best_of 3 (fun () -> run_catalog r))) reductions
  in
  let results r = fst (List.assoc r runs) in
  let seconds r = snd (List.assoc r runs) in
  let totals rs =
    List.fold_left
      (fun (g, e) (r : Enumerate.result) -> (g + r.graphs, e + r.explored))
      (0, 0) rs
  in
  let graphs, _ = totals (results Enumerate.No_reduction) in
  let identical =
    List.for_all2
      (fun (rn : Enumerate.result) ((rd : Enumerate.result), (rs : Enumerate.result)) ->
        rn.graphs = rd.graphs && rn.graphs = rs.graphs
        && rn.capped = rd.capped && rn.capped = rs.capped
        && List.map exec_key rn.executions = List.map exec_key rd.executions
        && List.sort compare (List.map exec_key rn.executions)
           = List.sort compare (List.map exec_key rs.executions))
      (results Enumerate.No_reduction)
      (List.combine (results Enumerate.Dpor) (results Enumerate.Dpor_sym))
  in
  let pairs = List.length (results Enumerate.No_reduction) in
  let t_none = seconds Enumerate.No_reduction in
  Fmt.pr "catalog matrix (%d pairs, %d candidate graphs):@." pairs graphs;
  List.iter
    (fun r ->
      let _, explored = totals (results r) in
      Fmt.pr "  %-9s %.3fs   %6d states explored   speedup %.2fx@." (rname r)
        (seconds r) explored
        (t_none /. seconds r))
    reductions;
  Fmt.pr "  verdicts identical across strategies: %b@." identical;
  (* leg 2: the frontier programs *)
  let frontier =
    List.map
      (fun (p : Tmx_lang.Ast.program) ->
        let run reduction =
          Enumerate.run
            ~config:{ Enumerate.default_config with jobs = 1; reduction }
            Model.programmer p
        in
        let rn, tn = wall (fun () -> run Enumerate.No_reduction) in
        let rd, td = wall (fun () -> run Enumerate.Dpor) in
        let rs, ts = wall (fun () -> run Enumerate.Dpor_sym) in
        let ok =
          rn.Enumerate.graphs = rd.Enumerate.graphs
          && rn.Enumerate.graphs = rs.Enumerate.graphs
          && List.map exec_key rn.executions = List.map exec_key rd.executions
          && List.sort compare (List.map exec_key rn.executions)
             = List.sort compare (List.map exec_key rs.executions)
        in
        Fmt.pr
          "%-8s (%d threads, %d graphs): none %.3fs   dpor %.3fs (%d \
           explored)   dpor+sym %.3fs (%d explored)   speedup %.2fx   \
           verdicts identical: %b@."
          p.name
          (List.length p.threads)
          rn.Enumerate.graphs tn td rd.Enumerate.explored ts
          rs.Enumerate.explored (tn /. ts) ok;
        (p.name, List.length p.threads, rn, tn, rd, td, rs, ts, ok))
      frontier_programs
  in
  let all_identical =
    identical && List.for_all (fun (_, _, _, _, _, _, _, _, ok) -> ok) frontier
  in
  (* the fields a catalog-matrix and a frontier entry share *)
  let entry graphs (tn, td, ts) (en, ed, es) ok =
    let per_strategy none dpor sym =
      Tmx_json.Obj [ ("none", none); ("dpor", dpor); ("dpor+sym", sym) ]
    in
    Tmx_json.
      [
        ("candidate_graphs", int graphs);
        ("seconds", per_strategy (Num tn) (Num td) (Num ts));
        ("explored", per_strategy (int en) (int ed) (int es));
        ("speedup", Obj [ ("dpor", Num (tn /. td)); ("dpor+sym", Num (tn /. ts)) ]);
        ("verdicts_identical", Bool ok);
      ]
  in
  let explored r = snd (totals (results r)) in
  write_json "BENCH_reduction.json"
    Tmx_json.(
      Obj
        [
          ("experiment", Str "reduction_speedup");
          ( "catalog_matrix",
            Obj
              (("pairs", int pairs)
              :: entry graphs
                   (t_none, seconds Enumerate.Dpor, seconds Enumerate.Dpor_sym)
                   (explored Enumerate.No_reduction, explored Enumerate.Dpor,
                    explored Enumerate.Dpor_sym)
                   identical) );
          ( "frontier",
            Arr
              (List.map
                 (fun (name, threads, (rn : Enumerate.result), tn,
                       (rd : Enumerate.result), td, (rs : Enumerate.result), ts, ok) ->
                   Obj
                     (("name", Str name)
                     :: ("threads", int threads)
                     :: entry rn.graphs (tn, td, ts) (rn.explored, rd.explored, rs.explored) ok))
                 frontier) );
        ]);
  if not all_identical then
    failwith "reduced enumeration diverged from the unreduced reference"

(* ------------------------------------------------------------------ *)
(* part 5: the verdict cache, cold vs warm                             *)
(* ------------------------------------------------------------------ *)

(* The tmx-serve acceptance measurement: the full litmus catalog run
   three ways — uncached baseline, cold cache (every enumeration a miss
   that populates the store), and warm (a fresh [Cache.t] over the same
   directory, so every hit is an actual disk load, not an LRU lookup).
   The three rendered report sets must be byte-identical: the cache is
   an accelerator, never an oracle.  Recorded in BENCH_serve.json. *)
let serve_cache_speedup () =
  Fmt.pr "@.=== part 5: verdict cache, cold vs warm (full catalog) ===@.@.";
  let open Tmx_service in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tmx-bench-cache-%d" (Unix.getpid ()))
  in
  ignore (Cache.clear ~dir);
  let run_catalog enumerate =
    List.map
      (fun l -> Fmt.str "%a" Tmx_litmus.Litmus.pp_report (Tmx_litmus.Litmus.run ~enumerate l))
      Tmx_litmus.Catalog.all
  in
  let baseline, base_s =
    wall (fun () -> run_catalog (fun ~config m p -> Enumerate.run ~config m p))
  in
  let cold_cache = Cache.create ~dir () in
  let cold, cold_s =
    wall (fun () -> run_catalog (fun ~config m p -> Cache.memo_run cold_cache ~config m p))
  in
  (* a fresh front over the same directory: the warm pass measures the
     disk hits, the deployment shape of a second `tmx litmus --cache` *)
  let warm_cache = Cache.create ~dir () in
  let warm, warm_s =
    wall (fun () -> run_catalog (fun ~config m p -> Cache.memo_run warm_cache ~config m p))
  in
  let identical = baseline = cold && cold = warm in
  let cs = Cache.stats cold_cache and ws = Cache.stats warm_cache in
  let entries = (Cache.disk_stats ~dir ()).Cache.entries in
  let speedup = cold_s /. warm_s in
  let hit_rate_warm =
    if ws.hits + ws.misses = 0 then 0.
    else float_of_int ws.hits /. float_of_int (ws.hits + ws.misses)
  in
  let programs = List.length Tmx_litmus.Catalog.all in
  Fmt.pr "catalog (%d programs, %d cache entries):@." programs entries;
  Fmt.pr "  uncached %.4fs   cold %.4fs (%d misses)   warm %.4fs (%d hits, \
          %d misses)@."
    base_s cold_s cs.misses warm_s ws.hits ws.misses;
  Fmt.pr "  warm speedup over cold: %.1fx   warm hit rate: %.3f   reports \
          byte-identical: %b@."
    speedup hit_rate_warm identical;
  let hits_misses (c : Cache.stats) =
    Tmx_json.(Obj [ ("hits", int c.hits); ("misses", int c.misses) ])
  in
  write_json "BENCH_serve.json"
    Tmx_json.(
      Obj
        [
          ("experiment", Str "serve_cache");
          ("programs", int programs);
          ("entries", int entries);
          ("baseline_s", Num base_s);
          ("cold_s", Num cold_s);
          ("warm_s", Num warm_s);
          ("speedup", Num speedup);
          ("cold", hits_misses cs);
          ("warm", hits_misses ws);
          ("hit_rate_warm", Num hit_rate_warm);
          ("verdicts_identical", Bool identical);
        ]);
  ignore (Cache.clear ~dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if not identical then failwith "cached litmus reports diverged from uncached"

(* ------------------------------------------------------------------ *)
(* part 6: the sharded service under load                              *)
(* ------------------------------------------------------------------ *)

(* The loadgen acceptance measurement: an in-process server per shard
   count (TCP on a kernel-chosen port, fresh cache dir each), the
   deterministic Loadgen stream replayed at fixed concurrency, and the
   1-vs-N-shard byte-identity oracle over two more fresh servers.
   Recorded in BENCH_loadgen.json; the oracle verdict rides along so a
   sharding divergence regresses the witness (bench-compare sees a 0). *)
let serve_loadgen () =
  Fmt.pr "@.=== part 6: sharded service under load ===@.@.";
  let open Tmx_service in
  let duration_s =
    match Sys.getenv_opt "TMX_LOADGEN_DURATION" with
    | Some s -> (try float_of_string s with _ -> 3.0)
    | None -> 3.0
  in
  let lg_config =
    { Loadgen.default_config with concurrency = 4; duration_s; seed = 42 }
  in
  let shard_counts = [ 1; 4 ] in
  let fresh_dir tag =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "tmx-bench-loadgen-%s-%d" tag (Unix.getpid ()))
    in
    ignore (Cache.clear ~dir);
    dir
  in
  let with_server ~tag ~shards f =
    let dir = fresh_dir tag in
    let cfg =
      {
        (Server.default_config ~socket:"unused") with
        Server.socket = None;
        tcp = Some ("127.0.0.1", 0);
        cache_dir = dir;
        cache_capacity = 512;
        cache_shards = shards;
        workers = 4;
      }
    in
    let t = Server.start cfg in
    let addr =
      match Server.server_addresses t with
      | a :: _ -> Result.get_ok (Client.addr_of_string a)
      | [] -> assert false
    in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        ignore (Cache.clear ~dir);
        (try
           Array.iter
             (fun d ->
               let p = Filename.concat dir d in
               if Sys.is_directory p then Unix.rmdir p)
             (Sys.readdir dir)
         with _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f addr)
  in
  let reports =
    List.map
      (fun shards ->
        let tag = Printf.sprintf "s%d" shards in
        let r = with_server ~tag ~shards (fun addr -> Loadgen.run ~config:lg_config addr) in
        Fmt.pr
          "shards %d: %d requests (%.0f rps), p50 %.2fms p95 %.2fms p99 \
           %.2fms, hit rate %.3f, shed rate %.3f, %d errors@."
          shards r.Loadgen.requests_sent r.throughput_rps r.p50_ms r.p95_ms
          r.p99_ms r.hit_rate r.shed_rate r.errors;
        (shards, r))
      shard_counts
  in
  let oracle_requests = 64 in
  let oracle =
    with_server ~tag:"oa" ~shards:1 (fun addr_a ->
        with_server ~tag:"ob" ~shards:4 (fun addr_b ->
            Loadgen.oracle ~config:lg_config ~requests:oracle_requests addr_a
              addr_b))
  in
  let identical =
    match oracle with
    | Ok None -> true
    | Ok (Some m) ->
        Fmt.epr "oracle mismatch at request %d:@.  1 shard : %s@.  4 shards: %s@."
          m.Loadgen.index m.line_a m.line_b;
        false
    | Error e ->
        Fmt.epr "oracle transport failure: %s@." e;
        false
  in
  Fmt.pr "1-vs-4-shard byte-identity oracle (%d requests): %s@." oracle_requests
    (if identical then "identical" else "MISMATCH");
  let shard_json (shards, (r : Loadgen.report)) =
    Tmx_json.Obj
      (("shards", Tmx_json.int shards)
      ::
      (match Loadgen.report_to_json r with Tmx_json.Obj fs -> fs | _ -> []))
  in
  write_json "BENCH_loadgen.json"
    Tmx_json.(
      Obj
        [
          ("experiment", Str "serve_loadgen");
          ("seed", int lg_config.seed);
          ("skew", Num lg_config.skew);
          ("concurrency", int lg_config.concurrency);
          ("duration_s", Num duration_s);
          ("shards", Arr (List.map shard_json reports));
          ("oracle", Obj [ ("requests", int oracle_requests); ("identical", Bool identical) ]);
        ]);
  if not identical then
    failwith "sharded responses diverged from the single-shard reference"

let () =
  (match Sys.getenv_opt "TMX_BENCH_ONLY" with
  | Some "parallel" -> parallel_speedup ()
  | Some "reduction" -> reduction_speedup ()
  | Some "serve" -> serve_cache_speedup ()
  | Some "loadgen" -> serve_loadgen ()
  | _ ->
      verdict_matrix ();
      shapes_summary ();
      litmus_summary ();
      theorem_table ();
      stm_design_table ();
      fence_table ();
      run_benchmarks ();
      parallel_speedup ();
      reduction_speedup ();
      serve_cache_speedup ();
      serve_loadgen ());
  Fmt.pr "@.done.@."
