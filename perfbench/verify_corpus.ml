(* verify-corpus: one in-process pass over a fixed corpus, repeated for
   the run's duration.  The 33 catalog programs go through [Litmus.run]
   (the `tmx litmus --all` path); the two frontier programs and a
   stratified sample of the generated pool go through Parse.parse ->
   Enumerate.run -> Enumerate.outcomes (the `tmx check` / `tmx outcomes`
   path), with the default reduction and jobs = nproc.  The enumerator
   does nearly all the work; the cache, the race verdict service and
   the STM do none. *)

open Tmx_core
open Tmx_exec
open Tmx_litmus

let generated = 300

type item =
  | Catalog of Litmus.t * Corpus.answer
  | Text of string * Corpus.answer  (** litmus text, judged by its outcomes *)

let build (refs : Corpus.t) ~seed =
  let cat =
    List.map (fun (l : Litmus.t) -> Catalog (l, Corpus.find refs "cat" l.name)) Catalog.all
  in
  let fr =
    List.map
      (fun (p : Tmx_lang.Ast.program) ->
        Text (Export.program_to_string p, Corpus.find refs "fr" p.name))
      Corpus.frontier
  in
  let gen =
    Corpus.stratified refs ~seed ~stream:"verify" generated
    |> Array.to_list
    |> List.map (fun a -> Text (Corpus.pool_text a, a))
  in
  Array.of_list (cat @ fr @ gen)

type tally = {
  mutable failed : int;
  mutable wrong : int;
  mutable attempted : int;
  mutable pm_checked : int;  (** catalog verdicts whose pm enumeration was compared *)
}

(* The outcome set, candidate graphs and executions of an enumeration
   against the reference answer. *)
let same_enumeration (a : Corpus.answer) (r : Enumerate.result) strings =
  List.length strings = a.outcomes
  && Corpus.outcomes_md5 strings = a.outcomes_md5
  && r.graphs = a.graphs
  && List.length r.executions = a.executions

let judge ~config ~tally item =
  let t0 = Common.now_ns () in
  match item with
  | Catalog (l, a) -> (
      (* the enumeration under pm, when the program's checks need one,
         is compared with the reference too *)
      let pm = ref None in
      let enumerate ~config m p =
        let r = Layers.enumerate ~id:l.name ~config m p in
        if m.Model.name = Model.programmer.name then pm := Some r;
        r
      in
      match Tracer.span ~id:l.name "litmus.run" (fun () -> Litmus.run ~config ~enumerate l) with
      | exception e ->
          tally.failed <- tally.failed + 1;
          Common.note "FAILED %s: %s" l.name (Printexc.to_string e);
          Common.now_ns () - t0
      | r ->
          let dt = Common.now_ns () - t0 in
          let pm_ok =
            match !pm with
            | None -> true
            | Some e ->
                tally.pm_checked <- tally.pm_checked + 1;
                same_enumeration a e (Corpus.outcome_strings e)
          in
          if (r.truncated && not a.truncated) || (r.capped && not a.capped) then
            tally.failed <- tally.failed + 1
          else if Litmus.passed r <> a.passed || r.truncated <> a.truncated
                  || r.capped <> a.capped || not pm_ok
          then (
            tally.wrong <- tally.wrong + 1;
            Common.note "WRONG %s: passed %b (reference %b), pm enumeration %s" l.name
              (Litmus.passed r) a.passed
              (if pm_ok then "agrees" else "differs"));
          dt)
  | Text (text, a) -> (
      let id = a.kind ^ ":" ^ a.key in
      match
        let l = Layers.parse ~id text in
        let r = Layers.enumerate ~id ~config Model.programmer l.program in
        (r, Enumerate.outcomes r)
      with
      | exception e ->
          tally.failed <- tally.failed + 1;
          Common.note "FAILED %s: %s" id (Printexc.to_string e);
          Common.now_ns () - t0
      | r, outcomes ->
          let dt = Common.now_ns () - t0 in
          let strings = List.map (Fmt.str "%a" Outcome.pp) outcomes in
          if (r.truncated && not a.truncated) || (r.capped && not a.capped) then
            tally.failed <- tally.failed + 1
          else if not (same_enumeration a r strings && r.truncated = a.truncated
                       && r.capped = a.capped)
          then (
            tally.wrong <- tally.wrong + 1;
            Common.note "WRONG %s: %d outcomes, %d graphs, %d executions" id
              (List.length strings) r.graphs (List.length r.executions));
          dt)

(* One pass: per-program verdict times (the answer checks between
   programs are not timed). *)
let pass ~config ~tally items =
  Array.map
    (fun item ->
      tally.attempted <- tally.attempted + 1;
      judge ~config ~tally item)
    items

let run ~refs ~seed ~seconds ~trace ~out env =
  let config = { Enumerate.default_config with jobs = Pool.available_cores () } in
  (* set-up: generating and exporting the corpus, 15 times *)
  let setups, items =
    let items = ref [||] in
    let times =
      Array.init 15 (fun _ ->
          Gc.compact ();
          let t0 = Common.now_ns () in
          items := build refs ~seed;
          Common.secs (Common.now_ns () - t0))
    in
    (times, !items)
  in
  Common.note "corpus: %d programs (%d catalog, %d frontier, %d generated)"
    (Array.length items) (List.length Catalog.all) (List.length Corpus.frontier) generated;
  let tally = { failed = 0; wrong = 0; attempted = 0; pm_checked = 0 } in
  (* warm-up pass, untimed: lazy initialisation and heap growth *)
  ignore (pass ~config ~tally items);
  Common.note "catalog programs whose pm enumeration is checked too: %d of %d"
    tally.pm_checked (List.length Catalog.all);
  let untraced = ref [] and traced = ref [] and verdicts = ref [] in
  let traced_wall = ref 0 and gc = ref (0., 0) in
  let root0 = Tracer.root_ns () in
  let t_end = Common.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while Common.now_ns () < t_end || !untraced = [] || (trace && !traced = []) do
    let tracing = trace && !k mod 2 = 1 in
    incr k;
    (* every pass starts from the same compacted heap, so its peak memory
       and collection work do not depend on the previous pass's garbage *)
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    Tracer.set_enabled tracing;
    let w0 = Common.now_ns () in
    let times = pass ~config ~tally items in
    let wall = Common.now_ns () - w0 in
    Tracer.set_enabled false;
    let total = Common.secs (Array.fold_left ( + ) 0 times) in
    if tracing then (
      traced := total :: !traced;
      traced_wall := !traced_wall + wall;
      let minor, major = Layers.gc_delta g0 (Gc.quick_stat ()) in
      gc := (fst !gc +. minor, snd !gc + major))
    else (
      untraced := total :: !untraced;
      verdicts := Array.map Common.ms times :: !verdicts)
  done;
  let untraced = Array.of_list (List.rev !untraced) in
  if not trace then begin
    Common.add "setup_s" "s" (Common.median setups) ~n:(Array.length setups);
    let n = float_of_int (Array.length items) in
    Common.note_series "programs/s per pass" (Array.map (fun s -> n /. s) untraced);
    Common.add "ops_per_s" "1/s" (n /. Common.median untraced) ~n:(Array.length untraced);
    Common.add_op_latency (Array.concat !verdicts);
    Common.add "peak_rss_mb" "MB" (Common.peak_rss_mb ())
  end
  else begin
    let traced = Array.of_list !traced in
    let per = float_of_int (Array.length traced) in
    Common.add "litmus.parse_s" "s" (Layers.self_s ~per "litmus.parse");
    Common.add "litmus.checks_s" "s" (Layers.self_s ~per "litmus.run");
    Layers.exec_metrics ~per;
    Layers.gc_metrics ~per !gc;
    let mu = Common.median untraced and mt = Common.median traced in
    Common.note "tracing overhead: pass %.6f s traced vs %.6f s untraced" mt mu;
    Layers.trace_metrics
      ~overhead:((mt -. mu) /. mu)
      ~unaccounted:
        (1. -. (float_of_int (Tracer.root_ns () - root0) /. float_of_int !traced_wall));
    Layers.print_layers ();
    Layers.write_trace ~out
      ~name:(Printf.sprintf "trace-verify-corpus-seed%d.json" env.Common.seed)
  end;
  (tally.attempted, tally.failed, tally.wrong)
