open Tmx_lang

type options = {
  seed : int;
  count : int;
  time_budget : float;
  oracles : Oracle.t list;
  jobs : int;
  gen_config : Gen.config;
  corpus_dir : string option;
  crashes_dir : string option;
  minimize : bool;
  max_failures : int;
  enumerate :
    (Tmx_exec.Enumerate.config ->
    Tmx_core.Model.t ->
    Ast.program ->
    Tmx_exec.Enumerate.result)
    option;
      (* oracle-side enumeration override (`--cache`); jobs-det ignores
         it by design *)
}

let default_options =
  {
    seed = 0;
    count = 100;
    time_budget = 0.;
    oracles = Oracle.stock;
    jobs = 2;
    gen_config = Gen.mixed;
    corpus_dir = Some Corpus.default_corpus_dir;
    crashes_dir = Some Corpus.default_crashes_dir;
    minimize = true;
    max_failures = 5;
    enumerate = None;
  }

type failure = {
  oracle : string;
  detail : string;
  origin : string;
  program : Ast.program;
  minimized : Ast.program option;
  shrink_steps : int;
  saved : string option;
}

type report = {
  seed : int;
  jobs : int;
  generated : int;
  corpus_replayed : int;
  crashes_replayed : int;
  corpus_skipped : int;
  corpus_deduped : int;
  skipped_files : (string * string) list;
  checks : int;
  per_oracle : (string * int) list;
  failures : failure list;
  elapsed : float;
  budget_exhausted : bool;
}

let ok r = r.failures = []

(* minimization re-runs the oracle many times; use a fixed ctx so the
   check is a deterministic predicate of the program alone *)
let oracle_fails (o : Oracle.t) ?run ~jobs ~seed p =
  match o.check (Oracle.make_ctx ?run ~jobs ~seed ()) p with
  | Oracle.Pass -> false
  | Oracle.Fail _ -> true

let minimize_failure opts (o : Oracle.t) ~seed ~origin ~detail p =
  let minimized, shrink_steps =
    if opts.minimize then
      let m, steps =
        Shrink.minimize
          ~fails:(oracle_fails o ?run:opts.enumerate ~jobs:opts.jobs ~seed)
          p
      in
      (Some m, steps)
    else (None, 0)
  in
  let saved =
    match (opts.crashes_dir, minimized) with
    | Some dir, Some m ->
        Some (Corpus.save ~dir ~prefix:("crash-" ^ o.name) m)
    | Some dir, None -> Some (Corpus.save ~dir ~prefix:("crash-" ^ o.name) p)
    | None, _ -> None
  in
  { oracle = o.name; detail; origin; program = p; minimized; shrink_steps; saved }

let minimize_program (opts : options) (o : Oracle.t) p =
  let seed = opts.seed in
  match o.check (Oracle.make_ctx ?run:opts.enumerate ~jobs:opts.jobs ~seed ()) p with
  | Oracle.Pass -> Error (Fmt.str "oracle %s passes on this program" o.name)
  | Oracle.Fail detail ->
      Ok
        (minimize_failure
           { opts with minimize = true }
           o ~seed ~origin:"minimize" ~detail p)

let run opts =
  let t0 = Tmx_runtime.Clock.now_s () in
  let deadline =
    if opts.time_budget > 0. then Some (t0 +. opts.time_budget) else None
  in
  let budget_exhausted = ref false in
  let out_of_time () =
    match deadline with
    | Some d when Tmx_runtime.Clock.now_s () > d ->
        budget_exhausted := true;
        true
    | _ -> false
  in
  let failures = ref [] in
  let checks = ref 0 in
  let per_oracle = Hashtbl.create 8 in
  let check_program ~origin ~seed p =
    List.iter
      (fun (o : Oracle.t) ->
        if
          List.length !failures < opts.max_failures
          && not (out_of_time ())
        then begin
          incr checks;
          Hashtbl.replace per_oracle o.name
            (1 + Option.value (Hashtbl.find_opt per_oracle o.name) ~default:0);
          match
            o.check (Oracle.make_ctx ?run:opts.enumerate ~jobs:opts.jobs ~seed ()) p
          with
          | Oracle.Pass -> ()
          | Oracle.Fail detail ->
              failures :=
                minimize_failure opts o ~seed ~origin ~detail p :: !failures
        end)
      opts.oracles
  in
  let skipped_files = ref [] in
  (* seeds are deduped by canonical digest across both replay dirs: a
     crash file and a corpus seed that are the same program modulo
     formatting (or name) get checked once *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let deduped = ref 0 in
  let replay which dir_opt =
    match dir_opt with
    | None -> 0
    | Some dir ->
        skipped_files := !skipped_files @ Corpus.load_errors ~dir;
        let entries = Corpus.load ~dir in
        let entries =
          List.filter
            (fun (_, p) ->
              let d = Canon.digest p in
              if Hashtbl.mem seen d then begin
                incr deduped;
                false
              end
              else begin
                Hashtbl.add seen d ();
                true
              end)
            entries
        in
        List.iteri
          (fun i (file, p) ->
            let origin = Fmt.str "%s:%s" which (Filename.basename file) in
            check_program ~origin ~seed:(opts.seed + i) p)
          entries;
        List.length entries
  in
  let crashes_replayed = replay "crash" opts.crashes_dir in
  let corpus_replayed = replay "corpus" opts.corpus_dir in
  let generated = ref 0 in
  (try
     for i = 0 to opts.count - 1 do
       if List.length !failures >= opts.max_failures || out_of_time () then
         raise Exit;
       let st = Gen.state_of_seed ~seed:opts.seed ~index:i in
       let name = Fmt.str "fuzz_%d_%d" opts.seed i in
       let p = Gen.program ~name opts.gen_config st in
       incr generated;
       check_program ~origin:(Fmt.str "generated:%d" i) ~seed:(opts.seed + i) p
     done
   with Exit -> ());
  {
    seed = opts.seed;
    jobs = opts.jobs;
    generated = !generated;
    corpus_replayed;
    crashes_replayed;
    corpus_skipped = List.length !skipped_files;
    corpus_deduped = !deduped;
    skipped_files = !skipped_files;
    checks = !checks;
    per_oracle =
      List.filter_map
        (fun (o : Oracle.t) ->
          Option.map (fun n -> (o.name, n)) (Hashtbl.find_opt per_oracle o.name))
        opts.oracles;
    failures = List.rev !failures;
    elapsed = Tmx_runtime.Clock.now_s () -. t0;
    budget_exhausted = !budget_exhausted;
  }

(* -- rendering ---------------------------------------------------------------- *)

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "@[<v>FAIL %s (%s)@,  %s@,  program:@,%a@]" f.oracle f.origin
    f.detail Ast.pp_program f.program;
  (match f.minimized with
  | Some m ->
      Fmt.pf ppf "@,  minimized (%d shrink steps, %d statements):@,%a"
        f.shrink_steps (Shrink.size m) Ast.pp_program m
  | None -> ());
  match f.saved with
  | Some path -> Fmt.pf ppf "@,  saved to %s" path
  | None -> ()

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (file, msg) -> Fmt.pf ppf "warning: skipped %s: %s@," file msg)
    r.skipped_files;
  Fmt.pf ppf
    "fuzz: seed %d, %d generated + %d corpus + %d crash replays (%d \
     skipped, %d deduped), %d oracle checks in %.1fs%s@,%a@]"
    r.seed r.generated r.corpus_replayed r.crashes_replayed r.corpus_skipped
    r.corpus_deduped r.checks r.elapsed
    (if r.budget_exhausted then " (time budget exhausted)" else "")
    Fmt.(list ~sep:cut (fun ppf (o, n) -> Fmt.pf ppf "  %-14s %d programs" o n))
    r.per_oracle;
  if r.failures = [] then Fmt.pf ppf "@,all oracles green@]"
  else
    Fmt.pf ppf "@,%d failure(s):@,%a@]" (List.length r.failures)
      Fmt.(list ~sep:cut pp_failure)
      r.failures

let failure_to_json (f : failure) =
  let prog p = Tmx_json.Str (Tmx_litmus.Export.program_to_string p) in
  let opt g = function Some x -> g x | None -> Tmx_json.Null in
  Tmx_json.(
    Obj
      [
        ("oracle", Str f.oracle);
        ("origin", Str f.origin);
        ("detail", Str f.detail);
        ("program", prog f.program);
        ("minimized", opt prog f.minimized);
        ("shrink_steps", int f.shrink_steps);
        ("minimized_statements", opt (fun m -> int (Shrink.size m)) f.minimized);
        ("saved", opt str f.saved);
      ])

let report_to_json (r : report) =
  Tmx_json.(
    to_string
      (Obj
         [
           ("experiment", Str "differential_fuzz");
           ("seed", int r.seed);
           ("jobs", int r.jobs);
           ("generated", int r.generated);
           ("corpus_replayed", int r.corpus_replayed);
           ("crashes_replayed", int r.crashes_replayed);
           ("corpus_skipped", int r.corpus_skipped);
           ("corpus_deduped", int r.corpus_deduped);
           ( "skipped_files",
             Arr
               (List.map
                  (fun (file, msg) -> Obj [ ("file", Str file); ("error", Str msg) ])
                  r.skipped_files) );
           ("checks", int r.checks);
           ( "oracles",
             Arr
               (List.map
                  (fun (o, n) -> Obj [ ("name", Str o); ("programs", int n) ])
                  r.per_oracle) );
           ("failures", Arr (List.map failure_to_json r.failures));
           ("elapsed_s", Num r.elapsed);
           ("budget_exhausted", Bool r.budget_exhausted);
           ("ok", Bool (ok r));
         ]))
