open Tmx_runtime

let read_all tvars =
  Array.map (fun v -> Option.get (Stm.atomically (fun tx -> Stm.read tx v))) tvars

let test_read_write mode () =
  let v = Tvar.make 0 in
  let result =
    Stm.atomically ~mode (fun tx ->
        Stm.write tx v 41;
        Stm.read tx v + 1)
  in
  Alcotest.(check (option int)) "read own write" (Some 42) result;
  Alcotest.(check int) "committed" 41 (Tvar.unsafe_read v)

let test_abort_rollback mode () =
  let v = Tvar.make 7 in
  let result =
    Stm.atomically ~mode (fun tx ->
        Stm.write tx v 99;
        if Stm.read tx v = 99 then Stm.abort tx else 0)
  in
  Alcotest.(check (option int)) "user abort" None result;
  Alcotest.(check int) "value rolled back" 7 (Tvar.unsafe_read v)

let test_counter mode () =
  let v = Tvar.make 0 in
  let domains = 4 and iters = 500 in
  let worker () =
    for _ = 1 to iters do
      ignore (Stm.atomically ~mode (fun tx -> Stm.write tx v (Stm.read tx v + 1)))
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (domains * iters) (Tvar.unsafe_read v)

let test_transfer_conservation mode () =
  let n = 6 and per = 100 in
  let accounts = Array.init n (fun _ -> Tvar.make per) in
  let worker seed () =
    let st = ref seed in
    let rand m =
      st := (!st * 48271 + 13) land 0x3fffffff;
      !st mod m
    in
    for _ = 1 to 800 do
      let a = rand n and b = rand n and amt = rand 20 in
      ignore
        (Stm.atomically ~mode (fun tx ->
             let va = Stm.read tx accounts.(a) in
             let vb = Stm.read tx accounts.(b) in
             if a <> b && va >= amt then begin
               Stm.write tx accounts.(a) (va - amt);
               Stm.write tx accounts.(b) (vb + amt)
             end))
    done
  in
  let ds = [ Domain.spawn (worker 1); Domain.spawn (worker 2); Domain.spawn (worker 3) ] in
  List.iter Domain.join ds;
  let total = Array.fold_left (fun acc v -> acc + v) 0 (read_all accounts) in
  Alcotest.(check int) "total conserved" (n * per) total

let test_opacity mode () =
  (* maintain x = y in writer transactions; readers must never observe a
     broken invariant *)
  let x = Tvar.make 0 and y = Tvar.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    for i = 1 to 1500 do
      ignore
        (Stm.atomically ~mode (fun tx ->
             Stm.write tx x i;
             Stm.write tx y i))
    done;
    Atomic.set stop true
  in
  let reader () =
    while not (Atomic.get stop) do
      match Stm.atomically ~mode (fun tx -> (Stm.read tx x, Stm.read tx y)) with
      | Some (a, b) when a <> b -> Atomic.incr violations
      | _ -> ()
    done
  in
  let w = Domain.spawn writer and r = Domain.spawn reader in
  Domain.join w;
  Domain.join r;
  Alcotest.(check int) "invariant never broken" 0 (Atomic.get violations)

let test_quiesce_privatization () =
  (* the privatization idiom: after the flag transaction and a quiescence
     fence, plain access is safe *)
  let x = Tvar.make 0 and flag = Tvar.make 0 in
  let iterations = 200 in
  let failures = ref 0 in
  for _ = 1 to iterations do
    Tvar.unsafe_write x 0;
    ignore (Stm.atomically (fun tx -> Stm.write tx flag 0));
    let d =
      Domain.spawn (fun () ->
          ignore
            (Stm.atomically (fun tx ->
                 if Stm.read tx flag = 0 then Stm.write tx x 1)))
    in
    ignore (Stm.atomically (fun tx -> Stm.write tx flag 1));
    Stm.quiesce ();
    (* x is now private: a plain write must not be overwritten *)
    Tvar.unsafe_write x 2;
    Domain.join d;
    if Tvar.unsafe_read x <> 2 then incr failures
  done;
  Alcotest.(check int) "privatized writes never lost" 0 !failures

let test_or_else mode () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  (* first branch writes then aborts; its effects must vanish *)
  let r =
    Stm.atomically ~mode (fun tx ->
        Stm.or_else tx
          (fun tx ->
            Stm.write tx a 1;
            Stm.write tx a 2;
            Stm.abort tx)
          (fun tx ->
            Stm.write tx b 10;
            Stm.read tx a))
  in
  Alcotest.(check (option int)) "second branch sees rollback" (Some 0) r;
  Alcotest.(check int) "a untouched" 0 (Tvar.unsafe_read a);
  Alcotest.(check int) "b committed" 10 (Tvar.unsafe_read b);
  (* pre-branch writes survive a branch abort *)
  let r2 =
    Stm.atomically ~mode (fun tx ->
        Stm.write tx a 5;
        Stm.or_else tx (fun tx -> Stm.abort tx) (fun tx -> Stm.read tx a))
  in
  Alcotest.(check (option int)) "pre-branch write visible" (Some 5) r2;
  Alcotest.(check int) "pre-branch write committed" 5 (Tvar.unsafe_read a);
  (* an abort in the second branch aborts the transaction *)
  let r3 =
    Stm.atomically ~mode (fun tx ->
        Stm.write tx b 99;
        Stm.or_else tx (fun tx -> Stm.abort tx) (fun tx -> Stm.abort tx))
  in
  Alcotest.(check (option int)) "both branches abort" None r3;
  Alcotest.(check int) "b rolled back" 10 (Tvar.unsafe_read b)

let test_footprint_enforced () =
  let v = Tvar.make 0 and w = Tvar.make 0 in
  Alcotest.check_raises "stray access raises"
    (Invalid_argument
       (Fmt.str "Stm: access to tvar#%d outside the declared footprint" (Tvar.id w)))
    (fun () ->
      ignore (Stm.atomically ~footprint:[ v ] (fun tx -> Stm.read tx w)))

let test_selective_quiesce_skips_disjoint () =
  (* a per-location fence on x must not wait for a transaction whose
     declared footprint is {w} *)
  let x = Tvar.make 0 and w = Tvar.make 0 in
  let entered = Atomic.make false and release = Atomic.make false in
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore
          (Stm.atomically ~footprint:[ w ] (fun tx ->
               let v = Stm.read tx w in
               Atomic.set entered true;
               (* bounded spin so a regression cannot hang the suite *)
               let spins = ref 0 in
               while (not (Atomic.get release)) && !spins < 200_000_000 do
                 incr spins;
                 Domain.cpu_relax ()
               done;
               v));
        Atomic.set finished true)
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  Stm.quiesce ~var:x ();
  let returned_early = not (Atomic.get finished) in
  Atomic.set release true;
  Domain.join d;
  Alcotest.(check bool) "fence skipped the disjoint transaction" true returned_early

let test_selective_quiesce_waits_for_overlapping () =
  let w = Tvar.make 0 in
  let entered = Atomic.make false and finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore
          (Stm.atomically ~footprint:[ w ] (fun tx ->
               Atomic.set entered true;
               let v = Stm.read tx w in
               Stm.write tx w (v + 1)));
        Atomic.set finished true)
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  Stm.quiesce ~var:w ();
  (* the transaction itself has resolved once the fence returns (the
     [finished] flag is set just after, so give it the commit itself) *)
  Alcotest.(check bool) "fence returned" true true;
  Domain.join d;
  Alcotest.(check bool) "transaction completed" true (Atomic.get finished);
  Alcotest.(check int) "its write landed" 1 (Tvar.unsafe_read w)

let test_stats_move () =
  let before, _, _ = Stm.stats_snapshot () in
  let v = Tvar.make 0 in
  ignore (Stm.atomically (fun tx -> Stm.write tx v 1));
  let after, _, _ = Stm.stats_snapshot () in
  Alcotest.(check bool) "commit counted" true (after > before)

(* --- registry regressions ------------------------------------------- *)

let test_registry_growth () =
  let before = Registry.registered_domains () in
  let ds =
    List.init 5 (fun _ ->
        Domain.spawn (fun () -> ignore (Stm.atomically (fun _tx -> 0))))
  in
  List.iter Domain.join ds;
  Alcotest.(check bool)
    "each domain got its own slot" true
    (Registry.registered_domains () >= before + 5)

(* Regression for the fixed-table aliasing bug: with 128 shared slots
   indexed by [domain mod 128], the 129th domain after A reused A's
   slot, so its [exit] cleared A's in-flight state and a fence returned
   while A's transaction was still running.  Per-domain slots make the
   fence wait however many domains came and went in between. *)
let test_registry_no_slot_aliasing () =
  let release = Atomic.make false and entered = Atomic.make false in
  let a =
    Domain.spawn (fun () ->
        Registry.enter ();
        Atomic.set entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Registry.exit ())
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (* burn through a full table's worth of short-lived domains; under the
     old registry the 128th reuses A's slot and clears it *)
  for _ = 1 to 128 do
    Domain.join
      (Domain.spawn (fun () ->
           Registry.enter ();
           Registry.exit ()))
  done;
  let fence_done = Atomic.make false in
  let w =
    Domain.spawn (fun () ->
        Registry.quiesce ();
        Atomic.set fence_done true)
  in
  Unix.sleepf 0.05;
  let early = Atomic.get fence_done in
  Atomic.set release true;
  Domain.join a;
  Domain.join w;
  Alcotest.(check bool) "fence did not return while A was in flight" false early;
  Alcotest.(check bool) "fence returned once A resolved" true
    (Atomic.get fence_done)

(* Stress for the snapshot-consistency fix: a worker churns footprints
   (decoy / target alternation, the exact traffic that made the old
   three-field slot pair one transaction's liveness with another's
   footprint), while the checker pins the fence contract — once a
   target-footprint generation is observed fully entered, a fence on
   the target must not return until that generation has resolved.  The
   single-word state makes this hold by construction; the test runs the
   enter/fence race thousands of times to keep it that way. *)
let test_registry_snapshot_consistency () =
  let target = Tvar.make 0 and decoy = Tvar.make 0 in
  let tid = Tvar.id target and did = Tvar.id decoy in
  let stop = Atomic.make false in
  let phase = Atomic.make 0 in
  (* odd: a target-footprint generation is in flight *)
  let worker =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Registry.enter ~footprint:[ did ] ();
          Registry.exit ();
          Registry.enter ~footprint:[ tid ] ();
          Atomic.incr phase;
          for _ = 1 to 20 do
            Domain.cpu_relax ()
          done;
          Atomic.incr phase;
          Registry.exit ()
        done)
  in
  let violations = ref 0 in
  for _ = 1 to 300 do
    let p1 = Atomic.get phase in
    Registry.quiesce ~var:tid ();
    if p1 land 1 = 1 && Atomic.get phase = p1 then incr violations;
    for _ = 1 to 30 do
      Domain.cpu_relax ()
    done
  done;
  Atomic.set stop true;
  Domain.join worker;
  Alcotest.(check int) "fence never skipped an entered target transaction" 0
    !violations

(* --- contention policies -------------------------------------------- *)

let test_policy_correctness (name, policy, mode) () =
  let v = Tvar.make 0 in
  let domains = 3 and iters = 300 in
  let worker () =
    for _ = 1 to iters do
      ignore
        (Stm.atomically ~mode ~policy (fun tx -> Stm.write tx v (Stm.read tx v + 1)))
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int)
    (name ^ ": no lost increments")
    (domains * iters) (Tvar.unsafe_read v)

(* Budget escalation: lock a variable from outside so the transaction's
   first attempts conflict, exceed the budget, and take the serialized
   slow path; it must still commit once the lock is released. *)
let test_budget_escalation () =
  let v = Tvar.make 0 in
  let before = (Stm.stats ()).escalations in
  let prev =
    match Tvar.try_lock v with Some p -> p | None -> Alcotest.fail "lock"
  in
  let d =
    Domain.spawn (fun () ->
        ignore
          (Stm.atomically ~mode:Stm.Eager
             ~policy:(Stm.Contention.Budget 1)
             (fun tx -> Stm.write tx v 7)))
  in
  Unix.sleepf 0.02;
  Tvar.unlock v ~version:prev;
  Domain.join d;
  Alcotest.(check bool) "took the slow path" true
    ((Stm.stats ()).escalations > before);
  Alcotest.(check int) "still committed" 7 (Tvar.unsafe_read v)

(* --- partial aborts --------------------------------------------------- *)

(* A deterministic checkpoint rollback: the partial transaction reads
   [a] then [b], lets a writer commit b := 21, and only then reads [c].
   Commit-time validation finds the oldest invalid read at position 1,
   so the transaction rolls back to the checkpoint after [a] — replaying
   a from the value log, re-reading b fresh — instead of a full abort.
   The committed result and the [partial_aborts] counter both pin it. *)
let test_partial_abort_replay () =
  Stm.reset_stats ();
  let a = Tvar.make 10 and b = Tvar.make 20 and c = Tvar.make 30 in
  let ready = Atomic.make false and bumped = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get ready) do
          Domain.cpu_relax ()
        done;
        ignore (Stm.atomically (fun tx -> Stm.write tx b 21));
        Atomic.set bumped true)
  in
  let r =
    Stm.atomically ~mode:Stm.Partial (fun tx ->
        let va = Stm.read tx a in
        let vb = Stm.read tx b in
        ignore vb;
        if not (Atomic.get ready) then begin
          Atomic.set ready true;
          while not (Atomic.get bumped) do
            Domain.cpu_relax ()
          done
        end;
        let vc = Stm.read tx c in
        (* on the replayed attempt vb is the fresh post-writer value *)
        va + Stm.read tx b + vc)
  in
  Domain.join d;
  Alcotest.(check (option int)) "commits with the fresh value" (Some 61) r;
  Alcotest.(check bool) "checkpoint rollback recorded" true
    ((Stm.stats ()).partial_aborts >= 1);
  Alcotest.(check int) "exactly one commit, no full abort" 1
    (Stm.stats ()).partial_stats.commits

(* --- extended statistics -------------------------------------------- *)

let test_stats_extended () =
  Stm.reset_stats ();
  let v = Tvar.make 0 in
  ignore (Stm.atomically (fun tx -> Stm.write tx v 1));
  ignore (Stm.atomically ~mode:Stm.Eager (fun tx -> Stm.write tx v 2));
  ignore (Stm.atomically (fun tx -> Stm.abort tx));
  Stm.quiesce ();
  let s = Stm.stats () in
  Alcotest.(check int) "lazy commits" 1 s.lazy_stats.commits;
  Alcotest.(check int) "eager commits" 1 s.eager_stats.commits;
  Alcotest.(check int) "lazy user aborts" 1 s.lazy_stats.user_aborts;
  Alcotest.(check int) "eager user aborts" 0 s.eager_stats.user_aborts;
  Alcotest.(check int) "quiesces" 1 s.quiesces;
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "retry histogram counts every commit" 2
    (total s.retry_hist.counts);
  Alcotest.(check int) "uncontended commits in the zero-retry bucket" 2
    s.retry_hist.counts.(0);
  Alcotest.(check int) "latency histogram counts every commit" 2
    (total s.latency_hist_ns.counts);
  (* the bucket rule: inclusive upper bounds, then the overflow bucket *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Fmt.str "bucket of %d" v) b (Stm.bucket [| 0; 1; 4 |] v))
    [ (-1, 0); (0, 0); (1, 1); (2, 2); (4, 2); (5, 3) ];
  (* the legacy triple is a projection of the same counters *)
  let c, conflicts, ua = Stm.stats_snapshot () in
  Alcotest.(check int) "legacy commits" 2 c;
  Alcotest.(check int) "legacy conflicts" 0 conflicts;
  Alcotest.(check int) "legacy user aborts" 1 ua

(* --- the stm-bench report ---------------------------------------------- *)

(* every run's throughput and abort rate and each repair-cost entry read
   back exactly as written; each run's retry histogram counts its
   commits *)
let test_stm_bench_json () =
  let config =
    {
      Stm_bench.domains = 1;
      iters = 20;
      modes = [ Stm.Lazy; Stm.Norec ];
      policies = [ ("spin", Stm.Contention.Spin) ];
      workloads = [ Stm_bench.Read_heavy ];
    }
  in
  let results = Stm_bench.run config in
  let cost =
    {
      Stm_bench.workload = "privatization-heavy";
      mode = "lazy";
      policy = "spin";
      fences = 3;
      fenced_per_sec = 900.;
      unfenced_per_sec = 1000.;
    }
  in
  let j =
    Tb.parse_json "Stm_bench.to_json" (Stm_bench.to_json ~repair_cost:[ cost ] config results)
  in
  let check what want k obj =
    Alcotest.(check (float 0.)) what want
      (Option.get (Tmx_json.to_float_opt (Tb.field k obj)))
  in
  let commits (s : Stm.snapshot) =
    s.lazy_stats.commits + s.eager_stats.commits + s.partial_stats.commits
    + s.norec_stats.commits
  in
  List.iter2
    (fun (r : Stm_bench.result) run ->
      let what = Fmt.str "%s/%s/%s %s" r.workload r.mode r.policy in
      let n = commits r.snapshot in
      check (what "commits_per_sec") (float_of_int n /. Float.max r.seconds 1e-9)
        "commits_per_sec" run;
      check (what "abort_rate") (Stm_bench.abort_rate r.snapshot) "abort_rate" run;
      let counts = Tb.items (Tb.field "counts" (Tb.field "retry_histogram" run)) in
      Alcotest.(check int) "retry histogram counts every commit" n
        (List.fold_left (fun acc c -> acc + Option.get (Tmx_json.to_int c)) 0 counts))
    results
    (Tb.items (Tb.field "runs" j));
  match Tb.items (Tb.field "repair_cost" j) with
  | [ entry ] ->
      Alcotest.(check (list string)) "repair_cost keys"
        [ "lazy"; "spin" ]
        (List.map
           (fun k -> Option.get (Tmx_json.to_str (Tb.field k entry)))
           [ "mode"; "policy" ]);
      check "repair_cost fences" 3. "fences" entry;
      check "repair_cost fenced_per_sec" 900. "fenced_per_sec" entry;
      check "repair_cost fence_overhead" (Stm_bench.fence_overhead cost)
        "fence_overhead" entry
  | entries -> Alcotest.failf "%d repair_cost entries" (List.length entries)

(* The paired measurement behind repair_cost and arch_fence_cost, driven
   by a scripted rate function: one warm-up run of the baseline, then
   baseline-first rounds over the variants in order, and per variant the
   median of the per-round ratios (not of the rates, and not the best
   round). *)
let test_paired () =
  let calls = ref [] in
  let script =
    [
      ("base", [ 1000.; 100.; 200.; 100. ]);
      ("a", [ 90.; 190.; 50. ]);
      ("b", [ 300.; 100.; 80. ]);
    ]
  in
  let left = Hashtbl.create 3 in
  List.iter (fun (k, rates) -> Hashtbl.replace left k rates) script;
  let rate k =
    calls := k :: !calls;
    match Hashtbl.find left k with
    | r :: rest ->
        Hashtbl.replace left k rest;
        r
    | [] -> Alcotest.failf "%s run more often than scripted" k
  in
  let best, ratios =
    Stm_bench.paired ~reps:3 ~rate ~baseline:"base" [ "a"; "b" ]
  in
  Alcotest.(check (list string)) "warm-up, then baseline-first rounds"
    [ "base"; "base"; "a"; "b"; "base"; "a"; "b"; "base"; "a"; "b" ]
    (List.rev !calls);
  Alcotest.(check (float 0.)) "best baseline, warm-up discarded" 200. best;
  (* a: 0.9, 0.95, 0.5; b: 3.0, 0.5, 0.8 *)
  Alcotest.(check (list (float 1e-12))) "median ratio per variant" [ 0.9; 0.8 ]
    ratios

(* --- tracing --------------------------------------------------------- *)

let test_trace_events () =
  Stm.Trace.enable ~capacity:64 ();
  let v = Tvar.make 0 in
  ignore (Stm.atomically (fun tx -> Stm.write tx v 1));
  ignore (Stm.atomically (fun tx -> Stm.abort tx));
  Stm.quiesce ~var:v ();
  Stm.Trace.disable ();
  let evs = Stm.Trace.snapshot () in
  let count k =
    List.length (List.filter (fun e -> e.Stm.Trace.kind = k) evs)
  in
  Alcotest.(check int) "begins" 2 (count Stm.Trace.Begin);
  Alcotest.(check int) "commits" 1 (count Stm.Trace.Commit);
  Alcotest.(check int) "user aborts" 1 (count Stm.Trace.User_abort);
  Alcotest.(check int) "quiesce starts" 1 (count Stm.Trace.Quiesce_start);
  Alcotest.(check int) "quiesce ends" 1 (count Stm.Trace.Quiesce_end);
  (match
     List.find_opt (fun e -> e.Stm.Trace.kind = Stm.Trace.Quiesce_start) evs
   with
  | Some e -> Alcotest.(check int) "fenced var id recorded" (Tvar.id v) e.detail
  | None -> Alcotest.fail "no quiesce-start event");
  (* timestamps are sorted *)
  let ts = List.map (fun e -> e.Stm.Trace.time_ns) evs in
  Alcotest.(check bool) "sorted" true (List.sort compare ts = ts);
  Stm.Trace.clear ()

let test_trace_ring_wrap () =
  Stm.Trace.enable ~capacity:4 ();
  let d =
    Domain.spawn (fun () ->
        let v = Tvar.make 0 in
        for i = 1 to 10 do
          ignore (Stm.atomically (fun tx -> Stm.write tx v i))
        done)
  in
  Domain.join d;
  Stm.Trace.disable ();
  (* 20 events (10 begin + 10 commit) through a 4-slot ring *)
  Alcotest.(check int) "overwritten events counted" 16 (Stm.Trace.dropped ());
  Alcotest.(check int) "ring retains its capacity" 4
    (List.length (Stm.Trace.snapshot ()));
  Stm.Trace.clear ()

let suite =
  [
    Alcotest.test_case "lazy read/write" `Quick (test_read_write Stm.Lazy);
    Alcotest.test_case "eager read/write" `Quick (test_read_write Stm.Eager);
    Alcotest.test_case "partial read/write" `Quick (test_read_write Stm.Partial);
    Alcotest.test_case "norec read/write" `Quick (test_read_write Stm.Norec);
    Alcotest.test_case "lazy abort rollback" `Quick (test_abort_rollback Stm.Lazy);
    Alcotest.test_case "eager abort rollback" `Quick (test_abort_rollback Stm.Eager);
    Alcotest.test_case "partial abort rollback" `Quick (test_abort_rollback Stm.Partial);
    Alcotest.test_case "norec abort rollback" `Quick (test_abort_rollback Stm.Norec);
    Alcotest.test_case "lazy counter" `Slow (test_counter Stm.Lazy);
    Alcotest.test_case "eager counter" `Slow (test_counter Stm.Eager);
    Alcotest.test_case "partial counter" `Slow (test_counter Stm.Partial);
    Alcotest.test_case "norec counter" `Slow (test_counter Stm.Norec);
    Alcotest.test_case "lazy transfers conserve" `Slow (test_transfer_conservation Stm.Lazy);
    Alcotest.test_case "eager transfers conserve" `Slow (test_transfer_conservation Stm.Eager);
    Alcotest.test_case "partial transfers conserve" `Slow
      (test_transfer_conservation Stm.Partial);
    Alcotest.test_case "norec transfers conserve" `Slow
      (test_transfer_conservation Stm.Norec);
    Alcotest.test_case "lazy opacity" `Slow (test_opacity Stm.Lazy);
    Alcotest.test_case "eager opacity" `Slow (test_opacity Stm.Eager);
    Alcotest.test_case "partial opacity" `Slow (test_opacity Stm.Partial);
    Alcotest.test_case "norec opacity" `Slow (test_opacity Stm.Norec);
    Alcotest.test_case "quiescence privatization" `Slow test_quiesce_privatization;
    Alcotest.test_case "lazy orElse" `Quick (test_or_else Stm.Lazy);
    Alcotest.test_case "eager orElse" `Quick (test_or_else Stm.Eager);
    Alcotest.test_case "partial orElse" `Quick (test_or_else Stm.Partial);
    Alcotest.test_case "norec orElse" `Quick (test_or_else Stm.Norec);
    Alcotest.test_case "partial abort replays the retained prefix" `Slow
      test_partial_abort_replay;
    Alcotest.test_case "footprints enforced" `Quick test_footprint_enforced;
    Alcotest.test_case "selective quiescence skips disjoint" `Slow
      test_selective_quiesce_skips_disjoint;
    Alcotest.test_case "selective quiescence waits" `Slow
      test_selective_quiesce_waits_for_overlapping;
    Alcotest.test_case "stats counters" `Quick test_stats_move;
    Alcotest.test_case "registry grows per domain" `Slow test_registry_growth;
    Alcotest.test_case "registry slot aliasing (regression)" `Slow
      test_registry_no_slot_aliasing;
    Alcotest.test_case "registry snapshot consistency (stress)" `Slow
      test_registry_snapshot_consistency;
    Alcotest.test_case "spin policy preserves correctness" `Slow
      (test_policy_correctness ("spin", Stm.Contention.Spin, Stm.Lazy));
    Alcotest.test_case "jittered policy preserves correctness" `Slow
      (test_policy_correctness ("jittered", Stm.Contention.Jittered, Stm.Eager));
    Alcotest.test_case "budget policy preserves correctness" `Slow
      (test_policy_correctness ("budget", Stm.Contention.Budget 2, Stm.Lazy));
    Alcotest.test_case "budget escalation commits" `Slow test_budget_escalation;
    Alcotest.test_case "extended stats" `Quick test_stats_extended;
    Alcotest.test_case "stm-bench json" `Quick test_stm_bench_json;
    Alcotest.test_case "stm-bench paired ratios" `Quick test_paired;
    Alcotest.test_case "trace events" `Quick test_trace_events;
    Alcotest.test_case "trace ring wrap" `Slow test_trace_ring_wrap;
  ]
