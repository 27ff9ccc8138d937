(* The tmx command-line interface.

   Subcommands:
     tmx litmus [NAME ...]       run litmus tests (default: all)
     tmx outcomes NAME -m MODEL  enumerate the consistent outcomes
     tmx races NAME -m MODEL     list races of every consistent execution
                                 (exit 1 when any execution races)
     tmx lint [NAME|FILE ...]    static race analysis, no enumeration
                                 (exit 1 on findings)
     tmx repair [NAME|FILE ...]  synthesize a minimal, enumerator-certified
                                 race repair (fences / atomic promotion)
     tmx stm NAME                explore a program under the STM simulator
     tmx stm-bench               drive multi-domain workloads over the runtime STM
     tmx theorems [NAME ...]     run the theorem checks
     tmx models                  list the model configurations
     tmx show NAME               print a catalog program
     tmx serve                   verdict-cache query daemon (Unix socket / TCP,
                                 sharded worker processes, admission control)
     tmx client VERB [NAME ...]  query a running daemon
     tmx loadgen                 replay a deterministic query stream against a
                                 daemon; latency/hit/shed report + shard oracle
     tmx arch {check,diff,table} differential validation of the LTRF variants
                                 against per-architecture backends (x86-TSO,
                                 ARMv8, C++-TM/RC11) — the machine-checked §6
     tmx cache {stats,gc,clear}  inspect / maintain the on-disk verdict cache *)

open Cmdliner
open Tmx_core
open Tmx_exec

let find_litmus name =
  match Tmx_litmus.Catalog.find name with
  | Some l -> Ok l
  | None ->
      Error
        (Fmt.str "unknown litmus test %S; try `tmx litmus --list'" name)

let model_conv =
  let parse s =
    match Model.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown model %S (known: %a)" s
               Fmt.(list ~sep:comma Model.pp)
               Model.all))
  in
  Arg.conv (parse, Model.pp)

let model_arg =
  Arg.(
    value
    & opt model_conv Model.programmer
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:
          "Memory model: pm (programmer), im (implementation), strong \
           (x86-like), bare, or the Example 2.3 variants v-ww, v-rw, v-wr, \
           v-ww', v-rw', v-wr'.")

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Litmus test names.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Enumerate on $(docv) domains (0 = all cores; never more than \
           the machine has).  Verdicts are bit-identical to -j 1; only \
           the wall clock changes.  The algorithmic speed lever is \
           $(b,--reduction); the pool multiplies whatever is left.  \
           $(b,--reduction none), the reference, always runs on one \
           domain.")

let reduction_conv =
  let parse s =
    match Enumerate.reduction_of_string s with
    | Some r -> Ok r
    | None ->
        Error
          (`Msg
            (Fmt.str "unknown reduction %S (expected none, dpor or dpor+sym)" s))
  in
  Arg.conv (parse, fun ppf r -> Fmt.string ppf (Enumerate.reduction_name r))

let reduction_arg =
  Arg.(
    value
    & opt reduction_conv Enumerate.default_config.reduction
    & info [ "reduction" ] ~docv:"R"
        ~doc:
          "Candidate-space reduction: $(b,dpor+sym) (default: dynamic \
           partial-order reduction plus thread-symmetry quotienting), \
           $(b,dpor) (prefix-tree pruning only), or $(b,none) (the \
           exhaustive reference).  Verdicts and outcome sets are identical \
           across all three; only the states explored and the wall clock \
           change.")

let config_of_jobs jobs reduction =
  let jobs = if jobs <= 0 then Tmx_exec.Pool.available_cores () else jobs in
  { Enumerate.default_config with jobs; reduction }

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List available litmus tests.")

(* -- the verdict cache (shared flags) ----------------------------------------- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Verdict-cache directory (default $(b,TMX_CACHE_DIR), else \
           .tmx-cache).")

let resolve_cache_dir d =
  match d with Some d -> d | None -> Tmx_service.Cache.default_dir ()

let cache_flag =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Serve enumerations from the content-addressed verdict cache \
           (populating it on misses).  Verdicts are byte-identical to the \
           uncached run; only the wall clock changes.")

(* -- litmus ---------------------------------------------------------------- *)

let litmus_cmd =
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Run the whole catalog (also the default when no names are \
             given).")
  in
  let run jobs reduction list all use_cache cache_dir names =
    let config = config_of_jobs jobs reduction in
    if list then begin
      List.iter
        (fun (l : Tmx_litmus.Litmus.t) -> Fmt.pr "%-28s %s@." l.name l.section)
        Tmx_litmus.Catalog.all;
      Ok ()
    end
    else
      let tests =
        if all || names = [] then Ok Tmx_litmus.Catalog.all
        else
          List.fold_left
            (fun acc n ->
              Result.bind acc (fun ts ->
                  Result.map (fun t -> t :: ts) (find_litmus n)))
            (Ok []) names
          |> Result.map List.rev
      in
      Result.map
        (fun tests ->
          let cache =
            if use_cache then
              Some
                (Tmx_service.Cache.create
                   ~dir:(resolve_cache_dir cache_dir)
                   ())
            else None
          in
          (* without a cache, Litmus.run's own enumeration, which asks
             for the races its checks read *)
          let enumerate =
            Option.map
              (fun c ~config m p -> Tmx_service.Cache.memo_run c ~config m p)
              cache
          in
          let failures = ref 0 in
          List.iter
            (fun l ->
              let report = Tmx_litmus.Litmus.run ~config ?enumerate l in
              if not (Tmx_litmus.Litmus.passed report) then incr failures;
              Fmt.pr "%a@." Tmx_litmus.Litmus.pp_report report)
            tests;
          Fmt.pr "%d/%d litmus tests pass@."
            (List.length tests - !failures)
            (List.length tests);
          (match cache with
          | Some c ->
              let s = Tmx_service.Cache.stats c in
              Fmt.pr "cache: %d hits, %d misses@." s.hits s.misses;
              Tmx_service.Cache.close c
          | None -> ());
          if !failures > 0 then exit 1)
        tests
  in
  let term =
    Term.(
      term_result'
        (const run $ jobs_arg $ reduction_arg $ list_flag $ all_flag
       $ cache_flag $ cache_dir_arg $ names_arg))
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Check the paper's examples against their verdicts.")
    term

(* -- outcomes ---------------------------------------------------------------- *)

let one_name =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

let outcomes_cmd =
  let run jobs reduction model name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        let r =
          Enumerate.run ~config:(config_of_jobs jobs reduction) model l.program
        in
        Fmt.pr
          "%a@.%d candidate graphs (%d explored), %d consistent executions \
           under %a@."
          Tmx_lang.Ast.pp_program l.program r.graphs r.explored
          (List.length r.executions)
          Model.pp model;
        List.iter (fun o -> Fmt.pr "  %a@." Outcome.pp o) (Enumerate.outcomes r))
      (find_litmus name)
  in
  let term =
    Term.(
      term_result' (const run $ jobs_arg $ reduction_arg $ model_arg $ one_name))
  in
  Cmd.v
    (Cmd.info "outcomes" ~doc:"Enumerate the consistent outcomes of a program.")
    term

(* -- races ------------------------------------------------------------------ *)

let races_cmd =
  let run jobs reduction model name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        let r =
          Enumerate.run ~config:(config_of_jobs jobs reduction) ~races:true model
            l.program
        in
        let racy = ref 0 in
        List.iter2
          (fun (e : Enumerate.execution) races ->
            if races <> [] then begin
              incr racy;
              Fmt.pr "@[<v>execution %a@,  races: %a@]@." Outcome.pp e.outcome
                Fmt.(
                  list ~sep:comma (fun ppf (i, j) ->
                      Fmt.pf ppf "(%a, %a)" Action.pp (Trace.act e.trace i)
                        Action.pp (Trace.act e.trace j)))
                races
            end)
          r.executions
          (Array.to_list (Option.get r.races));
        Fmt.pr "%d/%d executions racy under %a@." !racy
          (List.length r.executions)
          Model.pp model;
        if !racy > 0 then exit 1)
      (find_litmus name)
  in
  let term =
    Term.(
      term_result' (const run $ jobs_arg $ reduction_arg $ model_arg $ one_name))
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "List the races of every consistent execution.  Exits 1 when any \
          execution races, so the command is usable as a CI gate.")
    term

(* -- lint -------------------------------------------------------------------- *)

let lint_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as a JSON array.")
  in
  let sarif_flag =
    Arg.(
      value & flag
      & info [ "sarif" ]
          ~doc:
            "Emit one SARIF 2.1.0 log over all reports (for CI code-scanning \
             upload).  Like $(b,--json), exits 1 when there are findings.")
  in
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every catalog program.")
  in
  let fenced_flag =
    Arg.(
      value & flag
      & info [ "fenced" ]
          ~doc:
            "After each report with findings, print the program with \
             quiescence fences inserted (the Fenceify transformation the \
             fence fixes refer to).")
  in
  let find_program name =
    if Sys.file_exists name then
      match Tmx_litmus.Parse.parse_file name with
      | exception Tmx_litmus.Parse.Error msg -> Error (Fmt.str "%s: %s" name msg)
      | litmus -> Ok litmus.Tmx_litmus.Litmus.program
    else
      Result.map
        (fun (l : Tmx_litmus.Litmus.t) -> l.program)
        (find_litmus name)
  in
  let run json sarif all fenced names =
    let programs =
      if all then
        Ok (List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program) Tmx_litmus.Catalog.all)
      else if names = [] then
        Error "nothing to lint: give catalog names, litmus files, or --all"
      else
        List.fold_left
          (fun acc n ->
            Result.bind acc (fun ps ->
                Result.map (fun p -> p :: ps) (find_program n)))
          (Ok []) names
        |> Result.map List.rev
    in
    Result.map
      (fun programs ->
        let reports =
          List.map
            (fun (p : Tmx_lang.Ast.program) ->
              match Tmx_lang.Ast.validate p with
              | Error msg ->
                  Fmt.epr "tmx: %s: %s@." p.name msg;
                  exit 2
              | Ok () -> Tmx_analysis.Lint.lint p)
            programs
        in
        if sarif then print_endline (Tmx_analysis.Lint.sarif_of_reports reports)
        else if json then
          print_endline
            ("[" ^ String.concat ",\n" (List.map Tmx_analysis.Lint.to_json reports) ^ "]")
        else
          List.iter
            (fun (r : Tmx_analysis.Lint.report) ->
              Fmt.pr "%a@." Tmx_analysis.Lint.pp_report r;
              if fenced && not (Tmx_analysis.Lint.race_free r) then
                Fmt.pr "fenced: %a@." Tmx_lang.Ast.pp_program
                  (Tmx_opt.Fenceify.insert r.program))
            reports;
        let findings =
          List.fold_left
            (fun n (r : Tmx_analysis.Lint.report) ->
              n + List.length r.findings)
            0 reports
        in
        if not (json || sarif) then
          Fmt.pr "%d/%d programs statically race-free@."
            (List.length
               (List.filter Tmx_analysis.Lint.race_free reports))
            (List.length reports);
        if findings > 0 then exit 1)
      programs
  in
  let term =
    Term.(
      term_result'
        (const run $ json_flag $ sarif_flag $ all_flag $ fenced_flag
       $ names_arg))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically classify every location (tx-only / plain-only / mixed) \
          and report candidate L-races and mixed races with fix \
          suggestions, without enumerating executions.  Sound: a \
          race-free verdict implies no consistent execution races under \
          any model; findings are conservative candidates to confirm \
          with `tmx races'.  Exits 1 when there are findings, so the \
          command is usable as a CI gate.")
    term

(* -- repair ------------------------------------------------------------------- *)

let repair_cmd =
  let goal_conv =
    let parse s =
      match Tmx_analysis.Repair.goal_of_string s with
      | Some g -> Ok g
      | None -> Error (`Msg (Fmt.str "unknown goal %S (expected mixed or all)" s))
    in
    Arg.conv (parse, fun ppf g -> Fmt.string ppf (Tmx_analysis.Repair.goal_name g))
  in
  let goal_arg =
    Arg.(
      value
      & opt goal_conv Tmx_analysis.Repair.Mixed
      & info [ "goal" ] ~docv:"GOAL"
          ~doc:
            "What to repair away: $(b,mixed) (mixed races, §5 — the \
             default) or $(b,all) (every L-race).")
  in
  let repair_model_arg =
    Arg.(
      value
      & opt model_conv Model.implementation
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:
            "Memory model to certify the repair under (default im, the \
             implementation model — where unfenced privatization races).")
  in
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Repair every catalog program.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit edit lists + certificates as JSON.")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ] ~doc:"Show a line diff from the original program.")
  in
  let apply_flag =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:
            "Rewrite the litmus file in place with the repaired program \
             (file arguments only; original check lines are preserved).")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After synthesizing, independently re-verify the repair-sound \
             contract: the repaired program is race-free and dropping any \
             single edit reintroduces a race.  Exits 1 on violation — the \
             CI gate.")
  in
  let no_promote_flag =
    Arg.(
      value & flag
      & info [ "no-promote" ]
          ~doc:
            "Search fence insertions only (no promotion/absorption into \
             atomic blocks) — the paper's privatization story.")
  in
  let max_edits_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-edits" ] ~docv:"N"
          ~doc:"Edit budget (default: the candidate-pool size).")
  in
  let find name =
    if Sys.file_exists name then
      match Tmx_litmus.Parse.parse_file name with
      | exception Tmx_litmus.Parse.Error msg -> Error (Fmt.str "%s: %s" name msg)
      | litmus -> Ok (Some name, litmus.Tmx_litmus.Litmus.program)
    else
      Result.map
        (fun (l : Tmx_litmus.Litmus.t) -> (None, l.program))
        (find_litmus name)
  in
  (* a minimal LCS line diff; the programs are a dozen lines each *)
  let line_diff a b =
    let a = Array.of_list (String.split_on_char '\n' a) in
    let b = Array.of_list (String.split_on_char '\n' b) in
    let n = Array.length a and m = Array.length b in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let buf = Buffer.create 256 in
    let rec go i j =
      if i < n && j < m && a.(i) = b.(j) then (
        Buffer.add_string buf ("  " ^ a.(i) ^ "\n");
        go (i + 1) (j + 1))
      else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then (
        Buffer.add_string buf ("+ " ^ b.(j) ^ "\n");
        go i (j + 1))
      else if i < n then (
        Buffer.add_string buf ("- " ^ a.(i) ^ "\n");
        go (i + 1) j)
    in
    go 0 0;
    Buffer.contents buf
  in
  let apply_to_file file repaired =
    let original = In_channel.with_open_text file In_channel.input_all in
    let checks =
      List.filter
        (fun line ->
          let t = String.trim line in
          String.length t >= 5 && String.sub t 0 5 = "check")
        (String.split_on_char '\n' original)
    in
    let out =
      Tmx_litmus.Export.program_to_string repaired
      ^ (if checks = [] then "" else "\n" ^ String.concat "\n" checks ^ "\n")
    in
    Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc out)
  in
  let run model goal json diff apply check no_promote max_edits jobs reduction
      all names =
    let targets =
      if all then
        Ok
          (List.map
             (fun (l : Tmx_litmus.Litmus.t) -> (None, l.program))
             Tmx_litmus.Catalog.all)
      else if names = [] then
        Error "nothing to repair: give catalog names, litmus files, or --all"
      else
        List.fold_left
          (fun acc n ->
            Result.bind acc (fun ts -> Result.map (fun t -> t :: ts) (find n)))
          (Ok []) names
        |> Result.map List.rev
    in
    Result.map
      (fun targets ->
        let config = config_of_jobs jobs reduction in
        let failed = ref 0 and repaired = ref 0 and clean = ref 0 in
        let first = ref true in
        if json then print_string "[";
        List.iter
          (fun (file, (p : Tmx_lang.Ast.program)) ->
            (match Tmx_lang.Ast.validate p with
            | Error msg ->
                Fmt.epr "tmx: %s: %s@." p.name msg;
                exit 2
            | Ok () -> ());
            match
              Tmx_analysis.Repair.run ~config ~goal ?max_edits
                ~promote:(not no_promote) model p
            with
            | Error e ->
                incr failed;
                if json then (
                  if not !first then print_string ",\n";
                  first := false;
                  print_string (Tmx_analysis.Repair.error_to_json ~program:p e))
                else Fmt.pr "%s: no repair found: %s@." p.name e
            | Ok r ->
                if r.Tmx_analysis.Repair.edits = [] then incr clean
                else incr repaired;
                let sound =
                  if check then
                    match Tmx_analysis.Repair.check ~config ~goal model r with
                    | Ok () -> true
                    | Error e ->
                        incr failed;
                        Fmt.epr "tmx: %s: repair-sound violation: %s@." p.name
                          e;
                        false
                  else true
                in
                if json then (
                  if not !first then print_string ",\n";
                  first := false;
                  print_string (Tmx_analysis.Repair.to_json ~model ~goal r))
                else begin
                  Fmt.pr "@[<v>%a@]@." Tmx_analysis.Repair.pp r;
                  if check && sound then
                    Fmt.pr "  repair-sound: verified (race-free, 1-minimal)@.";
                  if diff && r.edits <> [] then
                    print_string
                      (line_diff
                         (Fmt.str "%a" Tmx_lang.Ast.pp_program r.original)
                         (Fmt.str "%a" Tmx_lang.Ast.pp_program r.repaired))
                end;
                if apply && r.edits <> [] then
                  match file with
                  | Some file ->
                      apply_to_file file r.repaired;
                      if not json then Fmt.pr "  wrote %s@." file
                  | None ->
                      Fmt.epr
                        "tmx: %s: --apply needs a litmus file argument, not a \
                         catalog name@."
                        p.name;
                      incr failed)
          targets;
        if json then print_string "]\n"
        else
          Fmt.pr "%d repaired, %d already race-free, %d failed (model %a, \
                  goal %s)@."
            !repaired !clean !failed Model.pp model
            (Tmx_analysis.Repair.goal_name goal);
        if !failed > 0 then exit 1)
      targets
  in
  let term =
    Term.(
      term_result'
        (const run $ repair_model_arg $ goal_arg $ json_flag $ diff_flag
       $ apply_flag $ check_flag $ no_promote_flag $ max_edits_arg $ jobs_arg
       $ reduction_arg $ all_flag $ names_arg))
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Synthesize a minimal race repair — fewest edits, then fewest \
          fences, over per-site fence insertion, promotion into atomic \
          blocks and absorption into adjacent ones — certified race-free \
          by the reduced enumerator under the chosen model and goal.  \
          Lint findings seed the candidates, each discarded candidate is \
          justified by a concrete racy execution, and the result is \
          1-minimal: dropping any single edit reintroduces a race.")
    term

(* -- stm --------------------------------------------------------------------- *)

let stm_cmd =
  let strategy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("lazy", Tmx_stmsim.Stmsim.Lazy);
               ("eager", Tmx_stmsim.Stmsim.Eager);
               ("partial", Tmx_stmsim.Stmsim.Partial);
               ("norec", Tmx_stmsim.Stmsim.Norec);
             ])
          Tmx_stmsim.Stmsim.Lazy
      & info
          [ "s"; "strategy"; "stm-mode" ]
          ~docv:"STRATEGY" ~doc:"Versioning: lazy, eager, partial or norec.")
  in
  let atomic_flag =
    Arg.(
      value & flag
      & info [ "atomic-commit" ] ~doc:"Publish lazy write buffers indivisibly.")
  in
  let checkpoints_arg =
    Arg.(
      value
      & opt int Tmx_stmsim.Stmsim.default_config.checkpoints
      & info [ "checkpoints" ] ~docv:"N"
          ~doc:
            "Partial-abort checkpoint budget (READ_SET_BOUND): checkpoints \
             are taken before the first $(docv) memory reads; 0 makes \
             partial behave exactly like lazy.")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Explore every catalog program and print a one-line \
             anomaly summary per program.")
  in
  let run strategy atomic_commit checkpoints all names =
    let config =
      { Tmx_stmsim.Stmsim.default_config with strategy; atomic_commit; checkpoints }
    in
    if all then begin
      List.iter
        (fun (l : Tmx_litmus.Litmus.t) ->
          let anomalies = Tmx_stmsim.Stmsim.anomalies ~config l.program in
          Fmt.pr "%-28s %-7s %d anomalies@." l.name
            (Tmx_stmsim.Stmsim.strategy_name strategy)
            (List.length anomalies))
        Tmx_litmus.Catalog.all;
      Ok ()
    end
    else if names = [] then Error "nothing to explore: give catalog names or --all"
    else
      List.fold_left
        (fun acc name ->
          Result.bind acc (fun () ->
              Result.map
                (fun (l : Tmx_litmus.Litmus.t) ->
                  let r = Tmx_stmsim.Stmsim.run ~config l.program in
                  Fmt.pr "%d schedules explored, %d distinct outcomes@." r.paths
                    (List.length r.outcomes);
                  List.iter (fun o -> Fmt.pr "  %a@." Outcome.pp o) r.outcomes;
                  let anomalies = Tmx_stmsim.Stmsim.anomalies ~config l.program in
                  if anomalies = [] then
                    Fmt.pr "no anomalies vs the atomic reference@."
                  else begin
                    Fmt.pr "ANOMALIES vs the atomic reference semantics:@.";
                    List.iter (fun o -> Fmt.pr "  %a@." Outcome.pp o) anomalies
                  end)
                (find_litmus name)))
        (Ok ()) names
  in
  let term =
    Term.(
      term_result'
        (const run $ strategy_arg $ atomic_flag $ checkpoints_arg $ all_flag
       $ names_arg))
  in
  Cmd.v
    (Cmd.info "stm"
       ~doc:
         "Exhaustively explore a program under the operational STM simulator \
          (lazy, eager, partial-abort or NOrec commit protocol) and report \
          anomalies against the atomic reference semantics.")
    term

(* -- stm-bench --------------------------------------------------------------- *)

let stm_bench_cmd =
  let open Tmx_runtime in
  let domains_arg =
    Arg.(
      value & opt int 4
      & info [ "d"; "domains" ] ~docv:"N" ~doc:"Worker domains per stage.")
  in
  let iters_arg =
    Arg.(
      value & opt int 1000
      & info [ "n"; "iters" ] ~docv:"N"
          ~doc:"Transactions per domain per stage.")
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_stm.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")
  in
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `All);
               ("both", `Both);
               ("lazy", `Lazy);
               ("eager", `Eager);
               ("partial", `Partial);
               ("norec", `Norec);
             ])
          `All
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Versioning: all (the default: every mode), both (lazy+eager), \
             lazy, eager, partial or norec.")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `All); ("spin", `Spin); ("jittered", `Jittered);
               ("budget", `Budget);
             ])
          `All
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Contention management: all, spin (legacy capped exponential), \
             jittered (per-domain jitter), or budget (escalate to a \
             serialized slow path after 8 retries).")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Enable the per-domain event rings during the run and print the \
             tail of the merged trace.")
  in
  let arch_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "arch-out" ] ~docv:"FILE"
          ~doc:
            "Also measure the per-architecture fence penalty (x86-TSO / \
             ARMv8 DMB LD / C++ seq_cst fence emulations against an \
             unfenced baseline) and write it as an arch_fence_penalty \
             JSON document.  $(b,tmx arch table --all --check) asserts \
             the section-6 catalog claims.")
  in
  let run domains iters out arch_out mode policy trace =
    let domains = max 1 domains and iters = max 1 iters in
    let modes =
      match mode with
      | `All -> [ Stm.Lazy; Stm.Eager; Stm.Partial; Stm.Norec ]
      | `Both -> [ Stm.Lazy; Stm.Eager ]
      | `Lazy -> [ Stm.Lazy ]
      | `Eager -> [ Stm.Eager ]
      | `Partial -> [ Stm.Partial ]
      | `Norec -> [ Stm.Norec ]
    in
    let policies =
      match policy with
      | `All -> Stm_bench.default_policies
      | `Spin -> [ ("spin", Contention.Spin) ]
      | `Jittered -> [ ("jittered", Contention.Jittered) ]
      | `Budget -> [ ("budget8", Contention.Budget 8) ]
    in
    let config =
      { Stm_bench.default_config with domains; iters; modes; policies }
    in
    if trace then Stm.Trace.enable ();
    let results = Stm_bench.run config in
    List.iter (fun r -> Fmt.pr "%a@." Stm_bench.pp_result r) results;
    if trace then begin
      Stm.Trace.disable ();
      let events = Stm.Trace.snapshot () in
      let n = List.length events in
      Fmt.pr "--- trace tail (%d events buffered, %d dropped) ---@." n
        (Stm.Trace.dropped ());
      List.iteri
        (fun i e -> if i >= n - 20 then Fmt.pr "%a@." Stm.Trace.pp_event e)
        events
    end;
    let repair_cost = Stm_bench.repair_cost config in
    List.iter (fun c -> Fmt.pr "%a@." Stm_bench.pp_fence_cost c) repair_cost;
    Stm_bench.write_json ~repair_cost ~file:out config results;
    Fmt.pr "wrote %s (%d runs)@." out (List.length results);
    match arch_out with
    | None -> ()
    | Some file ->
        let costs = Stm_bench.arch_fence_cost config in
        List.iter (fun c -> Fmt.pr "%a@." Stm_bench.pp_arch_cost c) costs;
        Stm_bench.write_arch_json ~file config costs;
        Fmt.pr "wrote %s (%d arch runs)@." file (List.length costs)
  in
  let term =
    Term.(
      const run $ domains_arg $ iters_arg $ out_arg $ arch_out_arg $ mode_arg
      $ policy_arg $ trace_flag)
  in
  Cmd.v
    (Cmd.info "stm-bench"
       ~doc:
         "Drive multi-domain workloads (read-heavy, write-heavy, \
          long-read, privatization-heavy) over the runtime STM for each \
          versioning mode (lazy, eager, partial, norec) and contention \
          policy; print per-stage commit/abort/retry metrics and write \
          BENCH_stm.json.")
    term

(* -- fuzz --------------------------------------------------------------------- *)

let fuzz_cmd =
  let open Tmx_fuzz in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed.  Program $(i,i) of a run is generated from \
             (seed, i) alone, so any failure is reproducible from the \
             report's seed and index.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Fresh programs to generate.")
  in
  let budget_arg =
    Arg.(
      value & opt float 0.
      & info [ "time-budget" ] ~docv:"S"
          ~doc:
            "Stop generating after $(docv) seconds (0 = no budget).  The \
             crash and corpus replays always run first.")
  in
  let oracle_arg =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Oracle(s) to run (repeatable; default all): enum-naive, \
             machine-enum, stmsim-enum, lint-sound, jobs-det, \
             reduction-det, repair-sound.  See --list-oracles.")
  in
  let list_oracles_flag =
    Arg.(
      value & flag
      & info [ "list-oracles" ] ~doc:"List the differential oracles and exit.")
  in
  let minimize_arg =
    Arg.(
      value & opt (some file) None
      & info [ "minimize" ] ~docv:"FILE"
          ~doc:
            "Skip the campaign: parse the litmus $(docv), check it against \
             the selected oracle (exactly one --oracle required), and print \
             the minimized failing program.")
  in
  let no_corpus_flag =
    Arg.(
      value & flag
      & info [ "no-corpus" ]
          ~doc:"Skip corpus/crash replay and do not persist failures.")
  in
  let corpus_arg =
    Arg.(
      value & opt string Corpus.default_corpus_dir
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Seed-corpus directory.")
  in
  let crashes_arg =
    Arg.(
      value & opt string Corpus.default_crashes_dir
      & info [ "crashes" ] ~docv:"DIR"
          ~doc:"Crash-corpus directory (replayed first, minimized failures \
                are saved here).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run jobs seed count budget oracle_names list_oracles minimize no_corpus
      corpus crashes json use_cache cache_dir =
    if list_oracles then begin
      List.iter
        (fun (o : Oracle.t) -> Fmt.pr "%-14s %s@." o.name o.descr)
        Oracle.stock;
      if Oracle.by_name "broken" <> None then
        Fmt.pr "%-14s %s@." "broken" Oracle.broken.descr;
      Ok ()
    end
    else
      let oracles =
        match oracle_names with
        | [] -> Ok Oracle.stock
        | names ->
            List.fold_left
              (fun acc n ->
                Result.bind acc (fun os ->
                    match Oracle.by_name n with
                    | Some o -> Ok (o :: os)
                    | None ->
                        Error
                          (Fmt.str "unknown oracle %S (known: %s)" n
                             (String.concat ", " (Oracle.names ())))))
              (Ok []) names
            |> Result.map List.rev
      in
      Result.bind oracles (fun oracles ->
          let jobs = if jobs <= 0 then Tmx_exec.Pool.available_cores () else jobs in
          let cache =
            if use_cache then
              Some (Tmx_service.Cache.create ~dir:(resolve_cache_dir cache_dir) ())
            else None
          in
          let enumerate =
            Option.map
              (fun c config m p -> Tmx_service.Cache.memo_run c ~config m p)
              cache
          in
          let opts =
            {
              Runner.default_options with
              seed;
              count;
              time_budget = budget;
              oracles;
              jobs = max 2 jobs;
              corpus_dir = (if no_corpus then None else Some corpus);
              crashes_dir = (if no_corpus then None else Some crashes);
              enumerate;
            }
          in
          Fun.protect ~finally:(fun () -> Option.iter Tmx_service.Cache.close cache)
          @@ fun () ->
          match minimize with
          | Some file -> (
              match oracles with
              | [ oracle ] -> (
                  match Tmx_litmus.Parse.parse_file file with
                  | exception Tmx_litmus.Parse.Error msg ->
                      Error (Fmt.str "%s: %s" file msg)
                  | litmus -> (
                      let p = litmus.Tmx_litmus.Litmus.program in
                      match Runner.minimize_program opts oracle p with
                      | Error msg -> Error msg
                      | Ok f ->
                          let m = Option.value f.minimized ~default:p in
                          Fmt.pr
                            "%s fails %s: %s@.minimized (%d shrink steps, %d \
                             statements):@.%a@.%s"
                            file oracle.name f.detail f.shrink_steps
                            (Shrink.size m) Tmx_lang.Ast.pp_program m
                            (Tmx_litmus.Export.program_to_string m);
                          Ok ()))
              | _ -> Error "--minimize needs exactly one --oracle")
          | None ->
              let report = Runner.run opts in
              if json then print_endline (Runner.report_to_json report)
              else Fmt.pr "%a@." Runner.pp_report report;
              if not (Runner.ok report) then exit 1;
              Ok ())
  in
  let term =
    Term.(
      term_result'
        (const run $ jobs_arg $ seed_arg $ count_arg $ budget_arg $ oracle_arg
        $ list_oracles_flag $ minimize_arg $ no_corpus_flag $ corpus_arg
        $ crashes_arg $ json_flag $ cache_flag $ cache_dir_arg))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the five semantic layers against each other: \
          generate seeded random programs (plus the persisted corpus and \
          previously minimized crashes, replayed first), run every \
          selected oracle on each, and minimize any failure with the \
          structure-aware shrinker.  Exits 1 when an oracle fails.")
    term

(* -- theorems ----------------------------------------------------------------- *)

let machine_cmd =
  let run name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        let m = Tmx_machine.Machine.run l.program in
        let a = Enumerate.outcomes (Enumerate.run Model.implementation l.program) in
        Fmt.pr "operational machine: %d states, %d outcomes@." m.states
          (List.length m.outcomes);
        List.iter (fun o -> Fmt.pr "  %a@." Outcome.pp o) m.outcomes;
        let agree =
          List.length m.outcomes = List.length a
          && List.for_all (fun o -> List.exists (Outcome.equal o) a) m.outcomes
        in
        Fmt.pr "agreement with the axiomatic implementation model: %s@."
          (if agree then "exact" else "MISMATCH"))
      (find_litmus name)
  in
  let term = Term.(term_result' (const run $ one_name)) in
  Cmd.v
    (Cmd.info "machine"
       ~doc:
         "Explore a program with the operational timestamp machine and \
          compare against the axiomatic implementation model.")
    term

let fence_cmd =
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `Every_mixed_access); ("targeted", `After_transactions);
             ])
          `After_transactions
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Insertion policy: all (every mixed access) or targeted \
                (accesses following a transaction).")
  in
  let run policy name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        let fenced = Tmx_opt.Fenceify.insert ~policy l.program in
        Fmt.pr "%a@." Tmx_lang.Ast.pp_program fenced;
        let r = Tmx_opt.Fenceify.realizes ~policy l.program in
        Fmt.pr
          "fences:%d  mixed-race-free(im):%b  im-outcomes ⊆ pm-outcomes:%b  \
           realizes the programmer model:%b@."
          r.fences r.mixed_race_free r.outcomes_contained r.realizes)
      (find_litmus name)
  in
  let term = Term.(term_result' (const run $ policy_arg $ one_name)) in
  Cmd.v
    (Cmd.info "fence"
       ~doc:
         "Insert quiescence fences to realize the programmer model on an \
          implementation-model STM, and check the §6 correctness criterion.")
    term

let theorems_cmd =
  let run jobs reduction names =
    let config = config_of_jobs jobs reduction in
    let tests =
      if names = [] then Ok Tmx_litmus.Catalog.all
      else
        List.fold_left
          (fun acc n ->
            Result.bind acc (fun ts -> Result.map (fun t -> t :: ts) (find_litmus n)))
          (Ok []) names
        |> Result.map List.rev
    in
    Result.map
      (fun tests ->
        let failed = ref false in
        let verdict ok =
          if not ok then failed := true;
          if ok then "ok" else "FAIL"
        in
        List.iter
          (fun (l : Tmx_litmus.Litmus.t) ->
            let sc = Verdict.check_sc_ltrf ~config Model.programmer l.program in
            let t42 = Verdict.check_theorem_4_2 ~config Model.programmer l.program in
            let l51 = Verdict.check_lemma_5_1 ~config l.program in
            Fmt.pr
              "%-28s SC-LTRF:%s (seq-racy:%b weak:%b contained:%b)  Thm4.2:%s \
               Lemma5.1:%s (%d/%d)@."
              l.name (verdict sc.theorem_holds) sc.sc_racy sc.weak_exists
              sc.outcomes_contained (verdict t42) (verdict l51.holds)
              l51.pm_consistent l51.mixed_race_free)
          tests;
        if !failed then exit 1)
      tests
  in
  let term =
    Term.(term_result' (const run $ jobs_arg $ reduction_arg $ names_arg))
  in
  Cmd.v
    (Cmd.info "theorems"
       ~doc:
         "Empirically check SC-LTRF, Theorem 4.2 and Lemma 5.1 on programs \
          (the whole catalog when no names are given); exits 1 when any \
          check fails.")
    term

(* -- models / show -------------------------------------------------------------- *)

let models_cmd =
  let run () =
    List.iter
      (fun (m : Model.t) ->
        Fmt.pr "%-8s hb:%s%s%s%s%s%s anti:%s%s%s%s fences:%b@." m.name
          (if m.hb_ww then " ww" else "")
          (if m.hb_wr then " wr" else "")
          (if m.hb_rw then " rw" else "")
          (if m.hb_ww' then " ww'" else "")
          (if m.hb_wr' then " wr'" else "")
          (if m.hb_rw' then " rw'" else "")
          (if m.anti_ww then " ww" else "")
          (if m.anti_rw then " rw" else "")
          (if m.anti_ww' then " ww'" else "")
          (if m.anti_rw' then " rw'" else "")
          m.quiescence)
      Model.all
  in
  Cmd.v (Cmd.info "models" ~doc:"List the model configurations.") Term.(const run $ const ())

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Litmus file.")
  in
  let remote_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "remote" ] ~docv:"ADDR"
          ~doc:
            "Do not enumerate locally: send the file to the $(b,tmx serve) \
             daemon at $(docv) (a Unix socket path, or tcp:HOST:PORT) and \
             print its verdict.")
  in
  let check_remote ~socket file =
    let src =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let open Tmx_service in
    let req =
      {
        Protocol.id = None;
        verb = "check";
        name = None;
        program = Some src;
        model = "pm";
        deadline_ms = None;
        subrequests = [];
      }
    in
    Result.bind
      (Result.bind (Client.addr_of_string socket) (fun addr ->
           Client.request ~wait_s:5. ~addr (Protocol.to_json req)))
      (fun resp ->
        if not (Protocol.response_ok resp) then
          Error
            (Fmt.str "%s: %s" socket
               (Option.value
                  (Option.bind (Json.mem "error" resp) Json.to_str)
                  ~default:"request failed"))
        else begin
          let results =
            Option.value
              (Option.bind (Json.mem "results" resp) Json.to_list)
              ~default:[]
          in
          List.iter
            (fun r ->
              let field k = Option.bind (Json.mem k r) Json.to_str in
              let ok =
                Option.value (Option.bind (Json.mem "ok" r) Json.to_bool)
                  ~default:false
              in
              Fmt.pr "  [%s] %-4s %s: %s@."
                (if ok then "ok" else "FAIL")
                (Option.value (field "model") ~default:"?")
                (Option.value (field "descr") ~default:"?")
                (Option.value (field "detail") ~default:""))
            results;
          let passed =
            Option.value
              (Option.bind (Json.mem "passed" resp) Json.to_bool)
              ~default:false
          in
          let cached =
            Option.value
              (Option.bind (Json.mem "cached" resp) Json.to_bool)
              ~default:false
          in
          Fmt.pr "%s: %s%s@." file
            (if passed then "pass" else "FAIL")
            (if cached then " (cached)" else "");
          if passed then Ok () else exit 1
        end)
  in
  let run jobs reduction remote file =
    match remote with
    | Some socket -> check_remote ~socket file
    | None -> (
        match Tmx_litmus.Parse.parse_file file with
        | exception Tmx_litmus.Parse.Error msg ->
            Error (Fmt.str "%s: %s" file msg)
        | litmus ->
            let report =
              Tmx_litmus.Litmus.run
                ~config:(config_of_jobs jobs reduction)
                litmus
            in
            Fmt.pr "%a@." Tmx_litmus.Litmus.pp_report report;
            if Tmx_litmus.Litmus.passed report then Ok () else exit 1)
  in
  let term =
    Term.(
      term_result' (const run $ jobs_arg $ reduction_arg $ remote_arg $ file_arg))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Parse a litmus file (program + expectations) and check it against \
          the models, locally or (with --remote) via a running $(b,tmx \
          serve) daemon.  See lib/litmus/parse.mli for the format.")
    term

let dot_cmd =
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "i"; "index" ] ~docv:"N" ~doc:"Which consistent execution to render.")
  in
  let hb_flag = Arg.(value & flag & info [ "hb" ] ~doc:"Include happens-before edges.") in
  let run model index show_hb name =
    Result.bind (find_litmus name) (fun (l : Tmx_litmus.Litmus.t) ->
        let r = Enumerate.run model l.program in
        match List.nth_opt r.executions index with
        | None ->
            Error
              (Fmt.str "execution index %d out of range (%d consistent executions)"
                 index (List.length r.executions))
        | Some e ->
            print_string (Dot.to_dot ~model ~show_hb e.trace);
            Ok ())
  in
  let term = Term.(term_result' (const run $ model_arg $ index_arg $ hb_flag $ one_name)) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a consistent execution as a Graphviz graph.")
    term

let show_cmd =
  let run name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        Fmt.pr "%s — %s@.%s@.@.%a@." l.name l.section l.description
          Tmx_lang.Ast.pp_program l.program)
      (find_litmus name)
  in
  let term = Term.(term_result' (const run $ one_name)) in
  Cmd.v (Cmd.info "show" ~doc:"Print a catalog program.") term

let export_cmd =
  let run name =
    Result.map
      (fun (l : Tmx_litmus.Litmus.t) ->
        print_string (Tmx_litmus.Export.program_to_string l.program))
      (find_litmus name)
  in
  let term = Term.(term_result' (const run $ one_name)) in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print a catalog program in the litmus text format (add your own \
          `check` lines and run it back through `tmx check`).")
    term

let shapes_cmd =
  let run model =
    let results = Tmx_litmus.Shapes.run_all ~model () in
    let ok = List.filter (fun (r : Tmx_litmus.Shapes.result) -> r.ok) results in
    List.iter
      (fun (r : Tmx_litmus.Shapes.result) ->
        Fmt.pr "%-16s %-9s (expected %s)%s@." r.case.name
          (if r.observed_forbidden then "forbidden" else "allowed")
          (if r.case.forbidden then "forbidden" else "allowed")
          (if r.ok then "" else "  <-- MISMATCH"))
      results;
    Fmt.pr "%d/%d match the model-derived oracle@." (List.length ok)
      (List.length results)
  in
  let term = Term.(const run $ model_arg) in
  Cmd.v
    (Cmd.info "shapes"
       ~doc:
         "Run the systematic shape families (MP/SB/LB/IRIW/CoRR/2+2W/WRC at \
          every plain/transactional site combination).")
    term

(* -- serve / client / cache ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "tmx.sock"
    & info [ "s"; "socket" ] ~docv:"ADDR"
        ~doc:
          "Socket address: a Unix-domain socket path (mind the OS limit \
           of ~100 bytes; prefer short paths under /tmp), or \
           tcp:HOST:PORT.")

let serve_cmd =
  let open Tmx_service in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Answer the items of a $(b,batch) request on $(docv) domains \
             (0 = all cores).  Each item enumerates on one domain.")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Accept-loop domains per process (concurrent connections \
                served).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 128
      & info [ "capacity" ] ~docv:"N"
          ~doc:"In-memory LRU front of the verdict cache, in entries \
                (split across shards).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind host (with $(b,--port)).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Also listen on TCP at $(b,--host):$(docv).  Port 0 lets the \
             kernel pick; the bound address is printed either way.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Worker processes sharing the listening sockets, with the \
             verdict cache sharded N ways by digest prefix.  A crashed \
             shard is respawned; the listeners stay bound throughout.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission bound per process: at most $(docv) expensive \
             requests in flight; arrivals past it are answered with a \
             structured 'overloaded' error instead of queueing.  0 = \
             unlimited.  ping/stats/shutdown are exempt.")
  in
  let verbose_flag =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log requests to stderr.")
  in
  (* one serving process: start on the shared listener, run to shutdown *)
  let serve_process ~listener cfg =
    let t = Server.start ~listener cfg in
    let stop_and_exit _ = Server.stop t; exit 0 in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle stop_and_exit);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_and_exit)
     with _ -> ());
    Server.wait t
  in
  (* the shard supervisor: children share the already-bound listener fds
     (forked before any domain is spawned — fork and domains don't mix),
     so the kernel load-balances accepts across processes.  A
     signal-killed child is respawned with the same fds; a child exiting
     normally saw a shutdown request, so the rest are drained too. *)
  let supervise ~listener cfg shards =
    let stopping = ref false in
    let spawn () =
      match Unix.fork () with
      | 0 ->
          (try serve_process ~listener cfg
           with e ->
             Fmt.epr "tmx serve: shard died: %s@." (Printexc.to_string e);
             exit 1);
          exit 0
      | pid ->
          (* lets operators (and the serve cram test) target one shard *)
          Fmt.pr "shard %d started@." pid;
          pid
    in
    let children = ref (List.init shards (fun _ -> spawn ())) in
    let term_all signal =
      List.iter (fun pid -> try Unix.kill pid signal with _ -> ()) !children
    in
    let on_signal _ =
      stopping := true;
      term_all Sys.sigterm
    in
    (try
       Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
       Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with _ -> ());
    let rec reap () =
      if !children = [] then ()
      else
        match Unix.wait () with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> children := []
        | pid, status ->
            children := List.filter (fun p -> p <> pid) !children;
            (match status with
            | Unix.WEXITED _ ->
                (* a shutdown request finished one shard: drain the rest *)
                if not !stopping then (
                  stopping := true;
                  term_all Sys.sigterm)
            | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
                if not !stopping then children := spawn () :: !children);
            reap ()
    in
    reap ()
  in
  let run socket host port shards cache_dir capacity workers jobs reduction
      max_inflight verbose =
    let jobs = if jobs <= 0 then Tmx_exec.Pool.available_cores () else jobs in
    let shards = max 1 shards in
    let socket_path, tcp =
      match Client.addr_of_string socket with
      | Ok (Client.Tcp (h, p)) ->
          (* -s tcp:... means TCP only, overriding --host/--port *)
          (None, Some (h, p))
      | Ok (Client.Unix_sock _) | Error _ ->
          (Some socket, Option.map (fun p -> (host, p)) port)
    in
    let cfg =
      {
        Server.socket = socket_path;
        tcp;
        cache_dir = resolve_cache_dir cache_dir;
        cache_capacity = capacity;
        cache_shards = shards;
        workers = max 1 workers;
        jobs;
        max_inflight;
        enum = { Enumerate.default_config with reduction };
        verbose;
      }
    in
    match Server.listen cfg with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Fmt.str "cannot listen on %s: %s" socket (Unix.error_message e))
    | listener ->
        (* print the bound addresses (the kernel-chosen port for --port
           0) and flush before forking, so tests and loadgen connect
           race-free and the lines are not duplicated into children *)
        List.iter (fun a -> Fmt.pr "listening %s@." a) (Server.addresses listener);
        Fmt.pr "%!";
        if shards = 1 then serve_process ~listener cfg
        else supervise ~listener cfg shards;
        Server.close_listener listener;
        Ok ()
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ host_arg $ port_arg $ shards_arg
       $ cache_dir_arg $ capacity_arg $ workers_arg $ jobs_arg $ reduction_arg
       $ max_inflight_arg $ verbose_flag))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verdict-cache query daemon: NDJSON requests (ping, check, \
          races, outcomes, lint, batch, stats, shutdown) over a Unix \
          socket and/or TCP, answered by worker domains out of the \
          content-addressed cache — sharded across worker processes with \
          $(b,--shards), shedding past $(b,--max-inflight).  Runs in the \
          foreground until a shutdown request (or SIGINT/SIGTERM).")
    term

let client_cmd =
  let open Tmx_service in
  let wait_arg =
    Arg.(
      value & opt float 5.
      & info [ "wait" ] ~docv:"S"
          ~doc:
            "Retry the connection for up to $(docv) seconds (the daemon \
             may still be binding).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw JSON response line instead.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline; the daemon answers 'deadline exceeded' \
             rather than starting (or continuing a batch) past it.")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"With batch: one sub-request per catalog program.")
  in
  let sub_arg =
    Arg.(
      value & opt string "check"
      & info [ "sub" ] ~docv:"VERB"
          ~doc:"Sub-request verb for batch (check, races, outcomes or lint).")
  in
  let verb_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VERB"
          ~doc:
            "ping, check, races, outcomes, lint, batch, stats or shutdown.")
  in
  let target_args =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"NAME"
          ~doc:"Catalog litmus names (or litmus file paths, sent as source).")
  in
  let mk_req ~verb ~model ~deadline_ms target =
    let name, program =
      match target with
      | None -> (None, None)
      | Some a ->
          if Sys.file_exists a then
            let ic = open_in_bin a in
            let src =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            (None, Some src)
          else (Some a, None)
    in
    {
      Protocol.id = None;
      verb;
      name;
      program;
      model;
      deadline_ms;
      subrequests = [];
    }
  in
  let get k conv resp = Option.bind (Json.mem k resp) conv in
  let geti k resp = Option.value (get k Json.to_int resp) ~default:0 in
  let render verb targets resp =
    match verb with
    | "ping" -> Fmt.pr "pong@."
    | "shutdown" -> Fmt.pr "shutdown: ok@."
    | "stats" ->
        (match get "cache" Option.some resp with
        | Some c ->
            Fmt.pr "cache: %d hits, %d misses, %d stores, %d evictions, %d \
                    load failures, %d resident@."
              (geti "hits" c) (geti "misses" c) (geti "stores" c)
              (geti "evictions" c) (geti "load_failures" c) (geti "resident" c)
        | None -> ());
        (match get "metrics" Option.some resp with
        | Some m ->
            Fmt.pr "requests: %d total, %d errors, %d deadlines exceeded, %d \
                    shed, %d in flight@."
              (geti "requests" m) (geti "errors" m)
              (geti "deadlines_exceeded" m) (geti "sheds" m)
              (geti "queue_depth" m)
        | None -> ())
    | "batch" ->
        Fmt.pr "batch: %d requests, %d ok, %d cached@." (geti "count" resp)
          (geti "ok_count" resp) (geti "cached" resp)
    | "check" ->
        Fmt.pr "%s: %s%s@."
          (match targets with t :: _ -> t | [] -> "?")
          (if Option.value (get "passed" Json.to_bool resp) ~default:false then
             "pass"
           else "FAIL")
          (if Option.value (get "cached" Json.to_bool resp) ~default:false then
             " (cached)"
           else "")
    | "races" ->
        Fmt.pr "%s: %d executions, %d racy, %d mixed%s@."
          (match targets with t :: _ -> t | [] -> "?")
          (geti "executions" resp) (geti "racy" resp) (geti "mixed" resp)
          (if Option.value (get "cached" Json.to_bool resp) ~default:false then
             " (cached)"
           else "")
    | "outcomes" ->
        List.iter
          (fun o ->
            match Json.to_str o with
            | Some s -> Fmt.pr "  %s@." s
            | None -> ())
          (Option.value (get "outcomes" Json.to_list resp) ~default:[]);
        Fmt.pr "%s: %d outcomes%s@."
          (match targets with t :: _ -> t | [] -> "?")
          (geti "count" resp)
          (if Option.value (get "cached" Json.to_bool resp) ~default:false then
             " (cached)"
           else "")
    | "lint" ->
        Fmt.pr "%s: race_free %b, %d findings, %d mixed@."
          (match targets with t :: _ -> t | [] -> "?")
          (Option.value (get "race_free" Json.to_bool resp) ~default:false)
          (geti "findings" resp) (geti "mixed" resp)
    | _ -> print_string (Json.to_string resp ^ "\n")
  in
  let run socket wait json model deadline_ms all sub verb targets =
    let model = model.Tmx_core.Model.name in
    let req =
      match verb with
      | "batch" ->
          let names =
            if all then
              List.map (fun (l : Tmx_litmus.Litmus.t) -> l.name) Tmx_litmus.Catalog.all
            else targets
          in
          if names = [] then Error "batch needs NAMEs or --all"
          else
            Ok
              {
                (mk_req ~verb:"batch" ~model ~deadline_ms None) with
                Protocol.subrequests =
                  List.map
                    (fun n -> mk_req ~verb:sub ~model ~deadline_ms:None (Some n))
                    names;
              }
      | "ping" | "stats" | "shutdown" -> Ok (mk_req ~verb ~model ~deadline_ms None)
      | _ -> (
          match targets with
          | [ t ] -> Ok (mk_req ~verb ~model ~deadline_ms (Some t))
          | _ -> Error (Fmt.str "verb %s takes exactly one NAME" verb))
    in
    Result.bind req (fun req ->
        Result.map
          (fun resp ->
            if json then print_string (Json.to_string resp ^ "\n")
            else if Protocol.response_ok resp then render verb targets resp
            else begin
              Fmt.epr "tmx client: %s@."
                (Option.value
                   (Option.bind (Json.mem "error" resp) Json.to_str)
                   ~default:"request failed");
              exit 1
            end)
          (Result.bind (Client.addr_of_string socket) (fun addr ->
               Client.request ~wait_s:wait ~addr (Protocol.to_json req))))
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ wait_arg $ json_flag $ model_arg
       $ deadline_arg $ all_flag $ sub_arg $ verb_arg $ target_args))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Query a running $(b,tmx serve) daemon: one NDJSON request per \
          invocation (batch fans sub-requests across the daemon's domain \
          pool).")
    term

let loadgen_cmd =
  let open Tmx_service in
  let oracle_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle" ] ~docv:"ADDR"
          ~doc:
            "Byte-identity oracle mode: instead of a measured run, replay \
             the stream sequentially against both $(b,--socket) and \
             $(docv) (two freshly started daemons, e.g. --shards 1 vs \
             --shards 4) and fail on the first differing response line.")
  in
  let requests_arg =
    Arg.(
      value & opt int 0
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Send exactly $(docv) requests instead of timing (oracle mode \
             defaults to 64).")
  in
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"S" ~doc:"Measured-run duration in seconds.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 2
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Client worker domains, one connection each.")
  in
  let skew_arg =
    Arg.(
      value & opt float 1.0
      & info [ "skew" ] ~docv:"F"
          ~doc:"Zipf exponent over the target pool (0 = uniform).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Stream seed: the whole query stream is a pure function of \
             (seed, request index).")
  in
  let generated_arg =
    Arg.(
      value & opt int 16
      & info [ "generated" ] ~docv:"N"
          ~doc:"Fuzzer-generated programs added to the catalog pool.")
  in
  let no_catalog_flag =
    Arg.(
      value & flag
      & info [ "no-catalog" ] ~doc:"Exclude the litmus catalog from the pool.")
  in
  let shards_label_arg =
    Arg.(
      value & opt int 1
      & info [ "shards-label" ] ~docv:"N"
          ~doc:
            "The shard count recorded in the $(b,--out) report (loadgen \
             cannot see the server's own setting).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also write the report as a JSON document (experiment \
             serve_loadgen, one entry per shard count).")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open-loop mode: issue requests at $(docv) requests/s \
             (aggregate, deterministic exponential inter-arrival gaps from \
             the seeded RNG) and measure latency from each request's \
             scheduled arrival, so overload numbers include queueing delay \
             instead of the coordinated-omission artifact closed loops \
             report.  0 (default) keeps the closed loop.")
  in
  let run socket oracle requests duration concurrency skew seed generated
      no_catalog shards_label out rate =
    let config =
      {
        Loadgen.concurrency;
        duration_s = duration;
        requests;
        skew;
        seed;
        generated;
        use_catalog = not no_catalog;
        rate;
      }
    in
    Result.bind (Client.addr_of_string socket) (fun addr ->
        match oracle with
        | Some b ->
            Result.bind (Client.addr_of_string b) (fun addr_b ->
                let n = if requests > 0 then requests else 64 in
                match Loadgen.oracle ~config ~requests:n addr addr_b with
                | Error e -> Error e
                | Ok None ->
                    Fmt.pr "oracle: %d responses byte-identical@." n;
                    Ok ()
                | Ok (Some m) ->
                    Fmt.epr
                      "oracle: MISMATCH at request %d@.  %s: %s@.  %s: %s@."
                      m.Loadgen.index socket m.line_a b m.line_b;
                    exit 1)
        | None ->
            let r = Loadgen.run ~config addr in
            Fmt.pr
              "%d requests in %.1fs (%.0f rps, concurrency %d, skew %.2f, \
               seed %d)@."
              r.Loadgen.requests_sent r.duration_s r.throughput_rps concurrency
              skew seed;
            Fmt.pr "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms@." r.p50_ms
              r.p95_ms r.p99_ms;
            Fmt.pr "hit rate %.3f   shed rate %.3f   %d errors@." r.hit_rate
              r.shed_rate r.errors;
            Option.iter
              (fun file ->
                let witness =
                  Json.Obj
                    [
                      ("experiment", Json.str "serve_loadgen");
                      ("seed", Json.int seed);
                      ("skew", Json.Num skew);
                      ("concurrency", Json.int concurrency);
                      ("duration_s", Json.Num r.duration_s);
                      ( "shards",
                        Json.Arr
                          [
                            Json.Obj
                              (("shards", Json.int shards_label)
                              ::
                              (match Loadgen.report_to_json r with
                              | Json.Obj fs -> fs
                              | _ -> []));
                          ] );
                    ]
                in
                let oc = open_out file in
                output_string oc (Json.to_string witness);
                output_string oc "\n";
                close_out oc)
              out;
            if r.requests_sent = 0 || r.ok = 0 then
              Error "loadgen: no request succeeded"
            else Ok ())
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ oracle_arg $ requests_arg $ duration_arg
       $ concurrency_arg $ skew_arg $ seed_arg $ generated_arg
       $ no_catalog_flag $ shards_label_arg $ out_arg $ rate_arg))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a deterministic catalog+fuzzer query stream against a \
          running $(b,tmx serve) (Unix socket or TCP) at configurable \
          concurrency, skew and duration; report p50/p95/p99 latency, hit \
          rate and shed rate.  With $(b,--oracle), instead assert the \
          byte-identity of two daemons' responses — the 1-vs-N-shard \
          correctness oracle.")
    term

let cache_cmd =
  let open Tmx_service in
  let stats_cmd =
    let run dir =
      let dir = resolve_cache_dir dir in
      let s = Cache.disk_stats ~dir () in
      Fmt.pr
        "%s: %d records, %d bytes (%d current, %d superseded, %d stale, %d \
         corrupt)@."
        dir s.records s.bytes s.current s.superseded s.stale s.corrupt
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Count and classify the on-disk records.")
      Term.(const run $ cache_dir_arg)
  in
  let gc_cmd =
    let run dir =
      let dir = resolve_cache_dir dir in
      Fmt.pr "%s: removed %d superseded, stale or corrupt records@." dir
        (Cache.gc ~dir ())
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Compact the logs: keep the newest current record of each key, \
            and drop older ones, those written by other format versions \
            and corrupt ones.")
      Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run dir =
      let dir = resolve_cache_dir dir in
      Fmt.pr "%s: removed %d records@." dir (Cache.clear ~dir)
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Delete every record.")
      Term.(const run $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain the on-disk verdict cache shared by $(b,tmx \
          serve), $(b,tmx litmus --cache) and $(b,tmx fuzz --cache).")
    [ stats_cmd; gc_cmd; clear_cmd ]

let arch_cmd =
  let open Tmx_arch in
  let arch_conv =
    let parse s =
      match Arch.by_name s with
      | Some a -> Ok a
      | None ->
          Error
            (`Msg
              (Fmt.str "unknown architecture %S (known: %a)" s
                 Fmt.(list ~sep:comma Arch.pp)
                 Arch.all))
    in
    Arg.conv (parse, Arch.pp)
  in
  let arch_arg =
    Arg.(
      value
      & opt arch_conv Arch.X86tso
      & info [ "a"; "arch" ] ~docv:"ARCH"
          ~doc:
            "Architecture backend: x86tso, armv8 or rc11 (the C++-TM-style \
             RC11 fragment).")
  in
  let find_program name =
    if Sys.file_exists name then
      match Tmx_litmus.Parse.parse_file name with
      | exception Tmx_litmus.Parse.Error msg -> Error (Fmt.str "%s: %s" name msg)
      | litmus -> Ok (name, litmus.Tmx_litmus.Litmus.program)
    else
      Result.map
        (fun (l : Tmx_litmus.Litmus.t) -> (l.name, l.program))
        (find_litmus name)
  in
  let find_programs all names =
    if all || names = [] then
      Ok
        (List.map
           (fun (l : Tmx_litmus.Litmus.t) -> (l.name, l.program))
           Tmx_litmus.Catalog.all)
    else
      List.fold_left
        (fun acc n ->
          Result.bind acc (fun ps ->
              Result.map (fun p -> p :: ps) (find_program n)))
        (Ok []) names
      |> Result.map List.rev
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Run the whole catalog (also the default when no names are given).")
  in
  let check_cmd =
    let run jobs model arch name =
      Result.map
        (fun (name, program) ->
          let config = config_of_jobs jobs Enumerate.default_config.reduction in
          let v = Diff.check ~config arch model program in
          Fmt.pr "%s: %a@." name Diff.pp_verdict v;
          if not (v.Diff.validated || v.Diff.fences <> None) then exit 1)
        (find_program name)
    in
    let term =
      Term.(
        term_result' (const run $ jobs_arg $ model_arg $ arch_arg $ one_name))
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Does the architecture validate the LTRF variant on a program?  \
            Prints the verdict, escape witnesses, and (ARMv8) the minimal \
            re-verified DMB LD set closing the gap; exits 1 on an \
            unclosable escape.")
      term
  in
  let diff_cmd =
    let run jobs model arch name =
      Result.map
        (fun (name, program) ->
          let config = config_of_jobs jobs Enumerate.default_config.reduction in
          let a = Aexec.run ~config arch program in
          let r = Enumerate.run ~config model program in
          let vo = Enumerate.outcomes r in
          let escapes = Outcome.diff a.Aexec.outcomes vo in
          let conservative = Outcome.diff vo a.Aexec.outcomes in
          Fmt.pr "%s: %d outcomes under %a (%d graphs), %d under %a@." name
            (List.length a.Aexec.outcomes)
            Arch.pp arch a.Aexec.graphs (List.length vo) Model.pp model;
          List.iter (fun o -> Fmt.pr "  arch-only    %a@." Outcome.pp o) escapes;
          List.iter
            (fun o -> Fmt.pr "  variant-only %a@." Outcome.pp o)
            conservative;
          if escapes = [] && conservative = [] then Fmt.pr "  (agree)@.")
        (find_program name)
    in
    let term =
      Term.(
        term_result' (const run $ jobs_arg $ model_arg $ arch_arg $ one_name))
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Print the outcome differences between an architecture backend \
            and an LTRF variant on one program, in both directions.")
      term
  in
  let table_cmd =
    let check_flag =
      Arg.(
        value & flag
        & info [ "check" ]
            ~doc:
              "Assert the paper's section-6 claims: x86tso and rc11 validate \
               the strongest variant with zero fences on every program, \
               every armv8 escape closes under the reported DMB LD set, \
               the architecture outcome lattice holds, and no enumeration \
               was truncated or capped.  Exit 1 on any violation.")
    in
    let run jobs check all names =
      Result.map
        (fun programs ->
          let config = config_of_jobs jobs Enumerate.default_config.reduction in
          let failures = ref 0 in
          let fail fmt =
            incr failures;
            Fmt.pr fmt
          in
          List.iter
            (fun (name, program) ->
              let rows = Diff.rows ~config program in
              Fmt.pr "%s:@." name;
              List.iter (fun r -> Fmt.pr "  %a@." Diff.pp_row r) rows;
              if check then begin
                List.iter
                  (fun (r : Diff.row) ->
                    if r.Diff.imprecise then
                      fail "  FAIL %s: %s enumeration imprecise@." name
                        (Arch.name r.Diff.arch);
                    match (r.Diff.arch, r.Diff.gap_fences) with
                    | (Arch.X86tso | Arch.Rc11), Some _ ->
                        fail "  FAIL %s: %s does not validate strongest@."
                          name (Arch.name r.Diff.arch)
                    | Arch.Armv8, Some None ->
                        fail "  FAIL %s: armv8 escape not closed by fences@."
                          name
                    | _ -> ())
                  rows;
                List.iter
                  (fun (c : Diff.containment) ->
                    if not c.Diff.ok then
                      fail "  FAIL %s: outcomes(%s) escape outcomes(%s)@." name
                        (Arch.name c.Diff.sub) (Arch.name c.Diff.sup))
                  (Diff.containments ~config program)
              end)
            programs;
          if check then
            if !failures = 0 then
              Fmt.pr "section-6 claims hold on %d programs@."
                (List.length programs)
            else begin
              Fmt.pr "%d section-6 violations@." !failures;
              exit 1
            end)
        (find_programs all names)
    in
    let term =
      Term.(
        term_result' (const run $ jobs_arg $ check_flag $ all_flag $ names_arg))
    in
    Cmd.v
      (Cmd.info "table"
         ~doc:
           "Per-program agreement table: for each architecture the maximal \
            validated LTRF variants and, when the strongest variant is \
            escaped, the minimal fence set closing the gap.  \
            $(b,--check) asserts the section-6 claims (CI runs this over \
            the catalog).")
      term
  in
  Cmd.group
    (Cmd.info "arch"
       ~doc:
         "Differential validation of the LTRF variants against per-\
          architecture axiomatic backends (x86-TSO, ARMv8, C++-TM/RC11): \
          the machine-checked form of the paper's section-6 claims.")
    [ check_cmd; diff_cmd; table_cmd ]

let () =
  let doc = "modular transactions: the LTRF model checker and STM workbench" in
  let info = Cmd.info "tmx" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            litmus_cmd; outcomes_cmd; races_cmd; lint_cmd; repair_cmd; stm_cmd;
            stm_bench_cmd; machine_cmd; theorems_cmd; models_cmd; show_cmd;
            dot_cmd; check_cmd; export_cmd; shapes_cmd; fence_cmd; fuzz_cmd;
            arch_cmd; serve_cmd; client_cmd; loadgen_cmd;
            cache_cmd;
          ]))
