(* Benchmark-regression guard: diff two committed benchmark witnesses
   (BENCH_stm.json, BENCH_arch.json, BENCH_parallel.json,
   BENCH_reduction.json, BENCH_serve.json or BENCH_loadgen.json) and
   flag throughput regressions beyond the threshold.  Exposed as
   `tmx bench-compare OLD NEW`; CI wires it into the exhaustive job as a
   warn-only step.

   The threshold lives here and only here. *)

let default_threshold = 0.25

module J = Tmx_json

let num k j = Option.bind (J.mem k j) J.to_float_opt
let str k j = Option.bind (J.mem k j) J.to_str

(* -- metric extraction -------------------------------------------------------- *)

(* Every metric is normalized to a throughput (higher is better): the
   STM witness reports commits/s directly; the parallel-enumeration
   witness reports seconds, inverted here. *)

type metric = { key : string; old_value : float; new_value : float }

(* commits_per_sec per run, plus — when the witness carries the
   abort_rate field (schemas from the four-mode bench onwards) — the
   commit ratio [1 - abort_rate], so a contention regression is visible
   even when raw throughput masks it.  Witnesses predating the field
   just contribute no such key: compare only flags keys of OLD missing
   from NEW, so old-vs-new stays comparable in both directions. *)
let stm_metrics j =
  match J.mem "runs" j with
  | Some (J.Arr runs) ->
      List.concat_map
        (fun run ->
          match (str "workload" run, str "mode" run, str "policy" run) with
          | Some w, Some m, Some p ->
              List.filter_map
                (fun x -> x)
                [
                  Option.map
                    (fun v -> (Fmt.str "%s/%s/%s commits_per_sec" w m p, v))
                    (num "commits_per_sec" run);
                  Option.map
                    (fun r -> (Fmt.str "%s/%s/%s commit_ratio" w m p, 1. -. r))
                    (num "abort_rate" run);
                ]
          | _ -> [])
        runs
  | _ -> []

(* the repair-cost entries (schemas from the repair bench onwards): the
   fenced throughput, the fence count (a determinism witness — the same
   config must execute the same number of quiescence fences), and the
   fence efficiency [1 - overhead] = fenced/unfenced ratio, so a fence
   getting relatively more expensive is flagged like any other
   regression.  Older witnesses contribute no such keys. *)
let stm_repair_metrics j =
  match J.mem "repair_cost" j with
  | Some (J.Arr entries) ->
      List.concat_map
        (fun e ->
          match (str "mode" e, str "policy" e) with
          | Some m, Some p ->
              List.filter_map
                (fun x -> x)
                [
                  Option.map
                    (fun v -> (Fmt.str "repair_cost/%s/%s fences" m p, v))
                    (num "fences" e);
                  Option.map
                    (fun v ->
                      (Fmt.str "repair_cost/%s/%s fenced_per_sec" m p, v))
                    (num "fenced_per_sec" e);
                  Option.map
                    (fun o ->
                      (Fmt.str "repair_cost/%s/%s fence_efficiency" m p, 1. -. o))
                    (num "fence_overhead" e);
                ]
          | _ -> [])
        entries
  | _ -> []

let parallel_metrics j =
  List.concat_map
    (fun section ->
      match J.mem section j with
      | Some sec ->
          List.filter_map
            (fun field ->
              Option.map
                (fun seconds -> (Fmt.str "%s/%s throughput" section field, 1. /. seconds))
                (num field sec))
            [ "seconds_sequential"; "seconds_parallel" ]
      | None -> [])
    [ "verdict_matrix"; "stress_intra_run" ]

(* The serve_cache witness (BENCH_serve.json): cold/warm catalog
   throughput, plus the warm hit rate — a rate, not a throughput, but
   likewise higher-is-better, so the same regression rule applies (a
   hit-rate drop past the threshold is flagged; CI runs warn-only). *)
let serve_metrics j =
  List.filter_map
    (fun x -> x)
    [
      Option.map
        (fun s -> ("serve/cold throughput", 1. /. s))
        (num "cold_s" j);
      Option.map
        (fun s -> ("serve/warm throughput", 1. /. s))
        (num "warm_s" j);
      Option.map
        (fun r -> ("serve/warm hit_rate", r))
        (num "hit_rate_warm" j);
    ]

(* The reduction witness (BENCH_reduction.json): per-strategy wall-clock
   inverted to throughput, and per-strategy explored-state counts
   inverted to a "pruning" rate (scaled so the numbers print on the same
   footing) — a pruning regression shows up as that rate dropping, the
   same higher-is-better rule as every other metric.  Both the
   catalog-matrix section and each frontier entry carry the same
   { "seconds": {...}, "explored": {...} } shape, keyed by strategy. *)
let reduction_strategies = [ "none"; "dpor"; "dpor+sym" ]

let reduction_section prefix sec =
  List.concat_map
    (fun strat ->
      List.filter_map
        (fun x -> x)
        [
          Option.map
            (fun s -> (Fmt.str "%s/%s throughput" prefix strat, 1. /. s))
            (Option.bind (J.mem "seconds" sec) (num strat));
          Option.map
            (fun e -> (Fmt.str "%s/%s pruning" prefix strat, 1e6 /. e))
            (Option.bind (J.mem "explored" sec) (num strat));
        ])
    reduction_strategies

let reduction_metrics j =
  let catalog =
    match J.mem "catalog_matrix" j with
    | Some sec -> reduction_section "catalog_matrix" sec
    | None -> []
  in
  let frontier =
    match J.mem "frontier" j with
    | Some (J.Arr entries) ->
        List.concat_map
          (fun e ->
            match str "name" e with
            | Some name -> reduction_section (Fmt.str "frontier/%s" name) e
            | None -> [])
          entries
    | _ -> []
  in
  catalog @ frontier

(* The loadgen witness (BENCH_loadgen.json): one entry per shard count,
   each with a throughput, a hit rate, and latency percentiles — the
   percentiles are inverted to a responsiveness (1/ms) so every key
   stays higher-is-better.  The byte-identity oracle verdict rides
   along as a 0/1 metric: an oracle break in NEW is a 100% drop, far
   past any threshold. *)
let loadgen_metrics j =
  let per_shard =
    match J.mem "shards" j with
    | Some (J.Arr entries) ->
        List.concat_map
          (fun e ->
            match num "shards" e with
            | None -> []
            | Some n ->
                let prefix = Fmt.str "shards=%d" (int_of_float n) in
                List.filter_map
                  (fun x -> x)
                  [
                    Option.map
                      (fun v -> (Fmt.str "%s throughput_rps" prefix, v))
                      (num "throughput_rps" e);
                    Option.map
                      (fun v -> (Fmt.str "%s hit_rate" prefix, v))
                      (num "hit_rate" e);
                    Option.map
                      (fun v ->
                        (Fmt.str "%s p95_responsiveness" prefix, 1. /. Float.max 1e-9 v))
                      (num "p95_ms" e);
                    Option.map
                      (fun v ->
                        (Fmt.str "%s p99_responsiveness" prefix, 1. /. Float.max 1e-9 v))
                      (num "p99_ms" e);
                  ])
          entries
    | _ -> []
  in
  let oracle =
    match J.mem "oracle" j with
    | Some o -> (
        match J.mem "identical" o with
        | Some (J.Bool b) -> [ ("oracle identical", if b then 1.0 else 0.0) ]
        | _ -> [])
    | None -> []
  in
  per_shard @ oracle

(* The arch_fence_penalty witness (BENCH_arch.json): per-architecture
   fenced throughput and fence efficiency [1 - penalty] (both
   higher-is-better), plus the machine-checked section-6 claims as 0/1
   keys — a claim flipping false reads as a total regression.  CI keeps
   the fence-penalty keys warn-only: the emulated fence cost is
   host-dependent scheduler-noise territory, unlike the boolean claims. *)
let arch_metrics j =
  let runs =
    match J.mem "runs" j with
    | Some (J.Arr runs) ->
        List.concat_map
          (fun run ->
            match (str "arch" run, str "workload" run) with
            | Some a, Some w ->
                List.filter_map
                  (fun x -> x)
                  [
                    Option.map
                      (fun v -> (Fmt.str "arch/%s/%s fenced_per_sec" a w, v))
                      (num "fenced_per_sec" run);
                    Option.map
                      (fun p ->
                        (Fmt.str "arch/%s/%s fence_efficiency" a w, 1. -. p))
                      (num "penalty" run);
                  ]
            | _ -> [])
          runs
    | _ -> []
  in
  let claims =
    match J.mem "claims" j with
    | Some (J.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | J.Bool b -> Some (Fmt.str "claims/%s" k, if b then 1.0 else 0.0)
            | J.Num n -> Some (Fmt.str "claims/%s" k, n)
            | _ -> None)
          fields
    | _ -> []
  in
  runs @ claims

let metrics_of j =
  match str "experiment" j with
  | Some "stm_runtime_contention" -> Ok (stm_metrics j @ stm_repair_metrics j)
  | Some "arch_fence_penalty" -> Ok (arch_metrics j)
  | Some "parallel_enumeration_speedup" -> Ok (parallel_metrics j)
  | Some "reduction_speedup" -> Ok (reduction_metrics j)
  | Some "serve_cache" -> Ok (serve_metrics j)
  | Some "serve_loadgen" -> Ok (loadgen_metrics j)
  | Some other -> Error (Fmt.str "unknown experiment %S" other)
  | None -> Error "no \"experiment\" field"

(* -- comparison ---------------------------------------------------------------- *)

type verdict = {
  threshold : float;
  metrics : metric list;  (** every key present in both files *)
  regressions : metric list;  (** new < old * (1 - threshold) *)
  missing : string list;  (** keys of OLD absent from NEW *)
}

let regression ~threshold (m : metric) =
  m.new_value < m.old_value *. (1. -. threshold)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* [gate_keys] restricts the comparison to keys containing one of the
   given substrings — CI gates only a witness's long-established keys
   (say commits_per_sec and commit_ratio) while newer, noisier keys
   stay warn-only in a separate full run. *)
let key_selected gate_keys key =
  match gate_keys with
  | [] -> true
  | subs ->
      let contains sub =
        let nk = String.length key and ns = String.length sub in
        ns <= nk
        && (let rec at i = i + ns <= nk && (String.sub key i ns = sub || at (i + 1)) in
            at 0)
      in
      List.exists contains subs

let compare_files ?(threshold = default_threshold) ?(gate_keys = []) old_path
    new_path =
  let load path =
    match J.of_string (read_file path) with
    | exception Sys_error msg -> Error msg
    | j ->
        Result.map_error (fun e -> Fmt.str "%s: %s" path e)
          (Result.bind j metrics_of)
  in
  Result.bind (load old_path) (fun old_metrics ->
      Result.map
        (fun new_metrics ->
          let old_metrics =
            List.filter (fun (k, _) -> key_selected gate_keys k) old_metrics
          in
          let metrics, missing =
            List.partition_map
              (fun (key, old_value) ->
                match List.assoc_opt key new_metrics with
                | Some new_value -> Left { key; old_value; new_value }
                | None -> Right key)
              old_metrics
          in
          {
            threshold;
            metrics;
            regressions = List.filter (regression ~threshold) metrics;
            missing;
          })
        (load new_path))

let passed v = v.regressions = [] && v.missing = []

let pp_metric ~threshold ppf (m : metric) =
  Fmt.pf ppf "%-48s %12.1f -> %12.1f  %+6.1f%%%s" m.key m.old_value m.new_value
    (100. *. ((m.new_value /. m.old_value) -. 1.))
    (if regression ~threshold m then "  <-- REGRESSION" else "")

let pp_verdict ppf v =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(list ~sep:cut (pp_metric ~threshold:v.threshold))
    v.metrics;
  List.iter (fun k -> Fmt.pf ppf "@,%-48s missing from NEW" k) v.missing;
  Fmt.pf ppf "@,%d/%d metrics within the %.0f%%-regression threshold%s@."
    (List.length v.metrics - List.length v.regressions)
    (List.length v.metrics) (100. *. v.threshold)
    (if passed v then "" else "  <-- FAIL")
