(* serve-replay: the `tmx serve` request stream, answered in-process one
   request at a time the way the server's handlers answer it.  Each
   request line goes through Protocol.of_line; its program is a catalog
   entry or the Parse.parse of its source; then per verb:

   - races, outcomes: Cache.memo;
   - lint: Cache.find, Lint.lint, and the report through Lint.to_json
     and Json.of_string;
   - check: Litmus.run with a Cache.memo ?enumerate hook.

   The reply is built with Protocol.ok, field for field as the handler
   builds it, and rendered with Json.to_string.  The library exports no
   handler, so [reply] repeats their few lines around these calls.  The
   timed part is exactly that; the benchmark then parses each reply,
   untimed, and checks every field against the reference.

   The stream is the `tmx loadgen` one (Loadgen.request): Zipf-skewed over
   the catalog and [warm_generated] generated programs, more than the
   cache's 128-entry LRU holds, so some warm requests read the cache from
   disk; verbs races, outcomes, check and lint.  Every [cold_every]th
   request is instead a races query on a pool program the cache has never
   seen, so it misses.  Each pass opens a fresh cache in a fresh
   directory and primes it (the set-up, timed), then answers
   [pass_requests] requests.

   A traced pass gives the same replies, with Cache.memo split into the
   public calls it makes (Cache.key, Cache.find, and on a miss
   Cache.compute and Cache.store) and Cache.compute split the same way
   (Layers.compute), each in its span.

   The service layer is measured without a socket or a second process:
   a separate `tmx serve` driven over 2 connections moved 30-100%
   between runs on the 2-vCPU host this was built on (README.md). *)

open Tmx_core
open Tmx_exec
open Tmx_litmus
open Tmx_service

let cold_every = 20
let warm_generated = 160
let pass_requests = 4000
let config = Enumerate.default_config

(* -- the stream -------------------------------------------------------------- *)

type req = { line : string; verb : string; cold : bool; answer : Corpus.answer }

type stream = {
  lg : Loadgen.config;
  cum : float array;
  targets : Loadgen.target array;
  answers : (string, Corpus.answer) Hashtbl.t;  (** by name or litmus text *)
  colds : Corpus.answer array;  (** the pool programs never primed, in a seeded order *)
}

let make_stream refs ~seed =
  let warm = Corpus.stratified refs ~seed ~stream:"serve-warm" warm_generated in
  let answers = Hashtbl.create 256 in
  let cat =
    List.map
      (fun (l : Litmus.t) ->
        Hashtbl.replace answers l.name (Corpus.find refs "cat" l.name);
        Loadgen.By_name l.name)
      Catalog.all
  in
  let gen =
    Array.to_list
      (Array.map
         (fun a ->
           let text = Corpus.pool_text a in
           Hashtbl.replace answers text a;
           Loadgen.By_source text)
         warm)
  in
  let targets = Array.of_list (cat @ gen) in
  {
    lg = { Loadgen.default_config with seed };
    cum = Loadgen.zipf_cumulative ~skew:Loadgen.default_config.skew (Array.length targets);
    targets;
    answers;
    colds = Corpus.rest refs ~seed ~stream:"serve-cold" warm;
  }

(* Request [i] of the stream.  Cold request [i] takes cold program
   [i / cold_every] (cyclically): a pass's cold programs are distinct,
   and each pass has a fresh cache. *)
let request st i =
  if i mod cold_every = cold_every - 1 then
    let a = st.colds.(i / cold_every mod Array.length st.colds) in
    let r =
      {
        Protocol.id = Some (Json.int i);
        verb = "races";
        name = None;
        program = Some (Corpus.pool_text a);
        model = "pm";
        deadline_ms = None;
        subrequests = [];
      }
    in
    { line = Json.to_string (Protocol.to_json r); verb = "races"; cold = true; answer = a }
  else
    let r = Loadgen.request st.lg ~cum:st.cum ~targets:st.targets i in
    let key = match (r.name, r.program) with Some n, _ -> n | None, Some p -> p | _ -> "" in
    {
      line = Json.to_string (Protocol.to_json r);
      verb = r.verb;
      cold = false;
      answer = Hashtbl.find st.answers key;
    }

(* -- answering a request ----------------------------------------------------- *)

let program_of = function
  | Loadgen.By_name n -> (Option.get (Catalog.find n)).program
  | Loadgen.By_source s -> (Parse.parse s).program

(* The priming: races on every warm program, check on every catalog one. *)
let prime cache st =
  Array.iter
    (fun t ->
      ignore (Cache.memo cache ~config Model.programmer (program_of t));
      match t with
      | Loadgen.By_name n ->
          ignore
            (Litmus.run ~config ~enumerate:(Cache.memo_run cache) (Option.get (Catalog.find n)))
      | Loadgen.By_source _ -> ())
    st.targets

(* The cache calls a reply makes. *)
type lookups = {
  memo :
    config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> Cache.verdict * [ `Hit | `Miss ];
  find : config:Enumerate.config -> Model.t -> Tmx_lang.Ast.program -> Cache.verdict option;
}

let direct cache = { memo = Cache.memo cache; find = Cache.find cache }

(* Cache.memo and Cache.find as the public calls they make, each in its
   span: a traced pass's lookups. *)
let spanned cache ~id =
  let find ~config m p =
    Tracer.span_as ~id
      (function Ok (Some _) -> "service.cache.find_hit" | _ -> "service.cache.find_miss")
      (fun () -> Cache.find cache ~config m p)
  in
  let memo ~config m p =
    ignore (Tracer.span ~id "service.cache.key" (fun () -> Cache.key cache ~config m p));
    match find ~config m p with
    | Some v -> (v, `Hit)
    | None ->
        let v =
          Tracer.span ~id "service.cache.compute" (fun () -> Layers.compute ~id ~config m p)
        in
        Tracer.span ~id "service.cache.store" (fun () -> Cache.store cache ~config m p v);
        (v, `Miss)
  in
  { memo; find }

let result_fields (r : Enumerate.result) =
  [
    ("truncated", Json.bool r.truncated);
    ("capped", Json.bool r.capped);
    ("graphs", Json.int r.graphs);
  ]

let count f xs = Array.fold_left (fun n x -> if f x then n + 1 else n) 0 xs

(* The reply line `tmx serve` writes for one request line: the body of
   Server.serve_line and its per-verb handlers, without the metrics and
   admission bookkeeping. *)
let reply ops ~id (r : req) =
  Tracer.span ~id ("service." ^ r.verb) (fun () ->
      let resp =
        match Tracer.span ~id "service.protocol" (fun () -> Protocol.of_line r.line) with
        | Error e -> Protocol.error ~verb:"error" e
        | Ok req -> (
            let ok = Protocol.ok ?id:req.id ~verb:req.verb in
            try
              let litmus =
                match (req.name, req.program) with
                | Some n, _ -> Option.get (Catalog.find n)
                | None, Some src -> Layers.parse ~id src
                | None, None -> failwith "request needs \"name\" or \"program\""
              in
              let model =
                match (Model.by_name req.model, req.verb) with
                | Some m, _ -> m
                | None, "lint" -> Model.programmer
                | None, _ -> failwith ("unknown model " ^ req.model)
              in
              match req.verb with
              | "outcomes" ->
                  let v, hit = ops.memo ~config model litmus.program in
                  let outcomes = Enumerate.outcomes v.result in
                  ok
                    ([
                       ("cached", Json.bool (hit = `Hit));
                       ("count", Json.int (List.length outcomes));
                       ( "outcomes",
                         Json.Arr
                           (List.map (fun o -> Json.str (Fmt.str "%a" Outcome.pp o)) outcomes)
                       );
                     ]
                    @ result_fields v.result)
              | "races" ->
                  let v, hit = ops.memo ~config model litmus.program in
                  ok
                    ([
                       ("cached", Json.bool (hit = `Hit));
                       ("executions", Json.int (List.length v.result.executions));
                       ("racy", Json.int (count (fun l -> l <> []) v.races));
                       ("mixed", Json.int (count Fun.id v.mixed));
                     ]
                    @ result_fields v.result)
              | "lint" ->
                  let cached =
                    Option.map
                      (fun (v : Cache.verdict) ->
                        (v.lint_race_free, v.lint_findings, v.lint_mixed))
                      (ops.find ~config model litmus.program)
                  in
                  let report = Layers.lint ~id litmus.program in
                  let race_free, findings, mixed =
                    match cached with
                    | Some c -> c
                    | None ->
                        ( Tmx_analysis.Lint.race_free report,
                          List.length report.findings,
                          Tmx_analysis.Lint.mixed_count report )
                  in
                  let report_json =
                    match Json.of_string (Tmx_analysis.Lint.to_json report) with
                    | Ok j -> j
                    | Error _ -> Json.Null
                  in
                  ok
                    [
                      ("cached", Json.bool (cached <> None));
                      ("race_free", Json.bool race_free);
                      ("findings", Json.int findings);
                      ("mixed", Json.int mixed);
                      ("report", report_json);
                    ]
              | "check" ->
                  let misses = ref 0 in
                  let enumerate ~config m p =
                    let v, hit = ops.memo ~config m p in
                    if hit = `Miss then incr misses;
                    v.Cache.result
                  in
                  let report =
                    Tracer.span ~id "litmus.run" (fun () -> Litmus.run ~config ~enumerate litmus)
                  in
                  ok
                    [
                      ("cached", Json.bool (!misses = 0));
                      ("passed", Json.bool (Litmus.passed report));
                      ( "results",
                        Json.Arr
                          (List.map
                             (fun (c : Litmus.check_result) ->
                               Json.Obj
                                 [
                                   ("model", Json.str (Litmus.model_of_check c.check).Model.name);
                                   ("descr", Json.str (Litmus.descr_of_check c.check));
                                   ("ok", Json.bool c.ok);
                                   ("detail", Json.str c.detail);
                                 ])
                             report.results) );
                      ("truncated", Json.bool report.truncated);
                      ("capped", Json.bool report.capped);
                      ( "static",
                        Json.str (Fmt.str "%a" Tmx_analysis.Lint.pp_verdict report.lint) );
                    ]
              | v -> Protocol.error ?id:req.id ~verb:v ("unknown verb " ^ v)
            with e -> Protocol.error ?id:req.id ~verb:req.verb (Printexc.to_string e))
      in
      Json.to_string resp)

(* -- checking a reply against the reference ---------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let int_field j k = Option.bind (Json.mem k j) Json.to_int
let bool_field j k = Option.bind (Json.mem k j) Json.to_bool

(* Every field of the reply that the reference holds. *)
let agrees ~i (r : req) j =
  let a = r.answer in
  let enumeration () =
    int_field j "graphs" = Some a.graphs
    && bool_field j "truncated" = Some a.truncated
    && bool_field j "capped" = Some a.capped
  in
  int_field j "id" = Some i
  &&
  match r.verb with
  | "races" ->
      int_field j "executions" = Some a.executions
      && int_field j "racy" = Some a.racy
      && int_field j "mixed" = Some a.mixed
      && enumeration ()
  | "outcomes" ->
      let outs = Option.value ~default:[] (Option.bind (Json.mem "outcomes" j) Json.to_list) in
      int_field j "count" = Some a.outcomes
      && Corpus.outcomes_md5 (List.filter_map Json.to_str outs) = a.outcomes_md5
      && enumeration ()
  | "check" ->
      bool_field j "passed" = Some a.passed
      && bool_field j "truncated" = Some a.truncated
      && bool_field j "capped" = Some a.capped
  | "lint" ->
      int_field j "findings" = Some a.lint_findings
      && int_field j "mixed" = Some a.lint_mixed
      && bool_field j "race_free" = Some a.lint_race_free
  | _ -> false

(* True when the request succeeded; a failure or a wrong answer is
   tallied. *)
let check tally ~i (r : req) line =
  tally.attempted <- tally.attempted + 1;
  match Json.of_string line with
  | Ok j when Protocol.response_ok j ->
      agrees ~i r j
      || begin
           tally.wrong <- tally.wrong + 1;
           if tally.wrong <= 5 then
             Common.note "WRONG request %d (%s %s %s): %s" i r.verb r.answer.kind r.answer.key
               line;
           false
         end
  | _ ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 5 then Common.note "FAILED request %d: %s" i line;
      false

(* -- the workload ------------------------------------------------------------ *)

let run ~refs ~seed ~seconds ~trace ~out env =
  let st = make_stream refs ~seed in
  let root = Filename.concat out (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let setups = ref [] and untraced = ref [] and traced = ref [] in
  (* per untraced pass, each request's time in ms (infinity when it
     failed), kept unboxed so that the samples barely add to the
     process's memory however many passes a run makes *)
  let latencies = ref [] in
  let hits = ref 0 and misses = ref 0 and stores = ref 0 and evictions = ref 0 in
  let load_failures = ref 0 and gc = ref (0., 0) in
  let root0 = Tracer.root_ns () in
  let t_end = Common.now_ns () + int_of_float (seconds *. 1e9) in
  let pass = ref 0 in
  while Common.now_ns () < t_end || !untraced = [] || (trace && !traced = []) do
    let tracing = trace && !pass mod 2 = 1 in
    let first = !pass * pass_requests in
    let reqs = Array.init pass_requests (fun j -> request st (first + j)) in
    let dir = Filename.concat root (string_of_int !pass) in
    Common.mkdir_p root;
    Gc.compact ();
    (* set-up: a fresh cache, primed *)
    let t0 = Common.now_ns () in
    let cache = Cache.create ~capacity:128 ~dir () in
    prime cache st;
    setups := Common.secs (Common.now_ns () - t0) :: !setups;
    let s0 = Cache.stats cache and g0 = Gc.quick_stat () in
    let ops = direct cache in
    Tracer.set_enabled tracing;
    let busy = ref 0 and lat = Array.make pass_requests 0. in
    Array.iteri
      (fun j r ->
        let i = first + j in
        let id = string_of_int i in
        let ops = if tracing then spanned cache ~id else ops in
        let t0 = Common.now_ns () in
        let line = reply ops ~id r in
        let dt = Common.now_ns () - t0 in
        busy := !busy + dt;
        lat.(j) <- (if check tally ~i r line then Common.ms dt else infinity))
      reqs;
    Tracer.set_enabled false;
    if tracing then begin
      traced := !busy :: !traced;
      let minor, major = Layers.gc_delta g0 (Gc.quick_stat ()) in
      gc := (fst !gc +. minor, snd !gc + major);
      let s1 = Cache.stats cache in
      hits := !hits + s1.hits - s0.hits;
      misses := !misses + s1.misses - s0.misses;
      stores := !stores + s1.stores - s0.stores;
      evictions := !evictions + s1.evictions - s0.evictions;
      load_failures := !load_failures + s1.load_failures - s0.load_failures
    end
    else begin
      untraced := !busy :: !untraced;
      latencies := (first, lat) :: !latencies
    end;
    Common.rm_rf dir;
    incr pass
  done;
  Common.rm_rf root;
  let peak_rss = Common.peak_rss_mb () in
  Common.note "passes: %d of %d requests (%d cold), each on a fresh primed cache" !pass
    pass_requests (pass_requests / cold_every);
  let pass_s l = Array.of_list (List.map Common.secs l) in
  let untraced = pass_s (List.rev !untraced) in
  (* every untraced request's time, or only one class's *)
  let latency cls =
    Array.concat
      (List.map
         (fun (first, lat) ->
           Array.of_list
             (List.filteri
                (fun j _ -> cls ((first + j) mod cold_every = cold_every - 1))
                (Array.to_list lat)))
         !latencies)
  in
  if not trace then begin
    Common.add "setup_s" "s" (Common.median (Array.of_list !setups)) ~n:(List.length !setups);
    let rates = Array.map (fun s -> float_of_int pass_requests /. s) untraced in
    Common.note_series "requests/s per pass" rates;
    Common.add "ops_per_s" "1/s" (Common.median rates) ~n:(Array.length untraced);
    Common.add_op_latency (latency (fun _ -> true));
    Common.add "peak_rss_mb" "MB" peak_rss
  end
  else begin
    let traced = pass_s !traced in
    let per = float_of_int (Array.length traced) in
    (* the two request classes, from the untraced passes *)
    List.iter
      (fun (name, cold) ->
        Common.add_percentiles
          (Printf.sprintf "service.%s.p%d_ms" name)
          "ms"
          (latency (fun c -> c = cold)))
      [ ("warm", false); ("cold", true) ];
    List.iter
      (fun v ->
        let _, _, _, samples = Tracer.stats ("service." ^ v) in
        let s = Common.sorted (Array.map Common.ms samples) in
        Common.add ~n:(Array.length s) ("service." ^ v ^ ".p50_ms") "ms" (Common.pct s 0.5);
        Common.add ~n:(Array.length s) ("service." ^ v ^ ".p99_ms") "ms" (Common.pct s 0.99))
      [ "check"; "races"; "outcomes"; "lint" ];
    let f r = float_of_int !r /. per in
    Common.add "service.cache.hits" "count" (f hits);
    Common.add "service.cache.misses" "count" (f misses);
    Common.add "service.cache.stores" "count" (f stores);
    Common.add "service.cache.evictions" "count" (f evictions);
    Common.add "service.cache.load_failures" "count" (f load_failures);
    Common.add "service.cache.hit_ratio" "ratio"
      (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
    Common.add "service.errors" "count" (float_of_int tally.failed);
    Common.add "service.protocol_s" "s" (Layers.self_s ~per "service.protocol");
    Common.add "service.cache.key_s" "s" (Layers.self_s ~per "service.cache.key");
    Common.add "service.cache.find_hit_s" "s" (Layers.self_s ~per "service.cache.find_hit");
    Common.add "service.cache.find_miss_s" "s" (Layers.self_s ~per "service.cache.find_miss");
    Common.add "service.cache.compute_s" "s" (Layers.total_s ~per "service.cache.compute");
    Common.add "service.cache.store_s" "s" (Layers.self_s ~per "service.cache.store");
    Common.add "litmus.parse_s" "s" (Layers.self_s ~per "litmus.parse");
    Common.add "litmus.checks_s" "s" (Layers.self_s ~per "litmus.run");
    Layers.exec_metrics ~per;
    Common.add "core.hb_s" "s" (Layers.self_s ~per "core.hb");
    Common.add "core.race_s" "s" (Layers.self_s ~per "core.race");
    Common.add "analysis.lint_s" "s" (Layers.self_s ~per "analysis.lint");
    Layers.gc_metrics ~per !gc;
    let mu = Common.median untraced and mt = Common.median traced in
    Common.note "tracing overhead: pass %.6f s traced vs %.6f s untraced" mt mu;
    Layers.trace_metrics
      ~overhead:((mt -. mu) /. mu)
      ~unaccounted:
        (1. -. (Common.secs (Tracer.root_ns () - root0) /. Array.fold_left ( +. ) 0. traced));
    Layers.print_layers ();
    Layers.write_trace ~out
      ~name:(Printf.sprintf "trace-serve-replay-seed%d.json" env.Common.seed)
  end;
  (tally.attempted, tally.failed, tally.wrong)
