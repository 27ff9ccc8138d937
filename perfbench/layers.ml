(* Calls into the checker's layers, each wrapped in its span.  With
   tracing off every wrapper is the bare call.

   [enumerate] stands for [Enumerate.run] wherever the benchmark
   enumerates.  When tracing, it first times [Enumerate.unfold_combos]
   and the symmetry search by calling them itself: [Enumerate.run]
   repeats both internally, so exec.search = run - unfold - symmetry. *)

open Tmx_core
open Tmx_exec

let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.tms_utime +. t.tms_stime) *. 1e9)

let enumerate ?(id = "") ~config model program =
  if not (Tracer.enabled ()) then Enumerate.run ~config model program
  else begin
    let _, paths, _ =
      Tracer.span ~id "exec.unfold" (fun () -> Enumerate.unfold_combos config program)
    in
    if config.Enumerate.reduction = Enumerate.Dpor_sym then
      Tracer.span ~id "exec.symmetry" (fun () ->
          let radices = Array.of_list (List.map List.length paths) in
          ignore (Symmetry.orbits ~radices (Symmetry.find paths)));
    let c0 = cpu_ns () and w0 = Common.now_ns () in
    let r = Tracer.span ~id "exec.run" (fun () -> Enumerate.run ~config model program) in
    Tracer.count "exec.cpu_ns" (cpu_ns () - c0);
    Tracer.count "exec.wall_ns" (Common.now_ns () - w0);
    Tracer.count "exec.graphs" r.graphs;
    Tracer.count "exec.explored" r.explored;
    Tracer.count "exec.executions" (List.length r.executions);
    r
  end

let parse ?id text = Tracer.span ?id "litmus.parse" (fun () -> Tmx_litmus.Parse.parse text)
let lint ?id p = Tracer.span ?id "analysis.lint" (fun () -> Tmx_analysis.Lint.lint p)

(* [Tmx_service.Cache.compute], call for call, with each call in its
   span: the enumeration, then per execution the happens-before and the
   race verdicts, then the lint. *)
let compute ?id ~config model program : Tmx_service.Cache.verdict =
  let result = enumerate ?id ~config model program in
  let n = List.length result.executions in
  let races = Array.make n [] and mixed = Array.make n false in
  List.iteri
    (fun i (e : Enumerate.execution) ->
      let hb = Tracer.span ?id "core.hb" (fun () -> Hb.compute model (Lift.make e.trace)) in
      Tracer.span ?id "core.race" (fun () ->
          races.(i) <- Race.races e.trace hb;
          mixed.(i) <- Race.has_mixed_race e.trace hb))
    result.executions;
  let l = lint ?id program in
  {
    result;
    races;
    mixed;
    lint_race_free = Tmx_analysis.Lint.race_free l;
    lint_findings = List.length l.findings;
    lint_mixed = Tmx_analysis.Lint.mixed_count l;
  }

(* Per-layer time metrics: a span's self time summed over the traced
   phase, divided by [per] (passes, or 1). *)
let self_s ?(per = 1.) name =
  let _, _, self, _ = Tracer.stats name in
  Common.secs self /. per

let total_s ?(per = 1.) name =
  let _, total, _, _ = Tracer.stats name in
  Common.secs total /. per

let exec_metrics ~per =
  let add = Common.add in
  let run = total_s ~per "exec.run"
  and unfold = total_s ~per "exec.unfold"
  and symmetry = total_s ~per "exec.symmetry" in
  add "exec.unfold_s" "s" unfold;
  add "exec.symmetry_s" "s" symmetry;
  add "exec.search_s" "s" (run -. unfold -. symmetry);
  add "exec.search_cpu_per_wall" "ratio"
    (float_of_int (Tracer.count_of "exec.cpu_ns")
    /. float_of_int (max 1 (Tracer.count_of "exec.wall_ns")));
  let graphs = float_of_int (Tracer.count_of "exec.graphs")
  and explored = float_of_int (Tracer.count_of "exec.explored")
  and executions = float_of_int (Tracer.count_of "exec.executions") in
  add "exec.graphs" "count" (graphs /. per);
  add "exec.explored" "count" (explored /. per);
  add "exec.executions" "count" (executions /. per);
  add "exec.explored_per_graph" "ratio" (explored /. Float.max 1. graphs);
  add "exec.executions_per_explored" "ratio" (executions /. Float.max 1. explored)

(* gc.* from [Gc.quick_stat] deltas (minor words, major collections)
   summed over the traced phases, divided by [per]; the top heap is the
   process's high-water mark. *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  (b.minor_words -. a.minor_words, b.major_collections - a.major_collections)

let gc_metrics ~per (minor_words, major) =
  Common.add "gc.minor_mwords" "Mwords" (minor_words /. 1e6 /. per);
  Common.add "gc.major_collections" "count" (float_of_int major /. per);
  Common.add "gc.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6)

(* Prints each layer's self time and span count, and the span counts. *)
let print_layers () =
  List.iter
    (fun (l, self, n) ->
      Common.note "layer %-9s self %.6f s over %d spans" l (Common.secs self) n)
    (Tracer.layers ());
  List.iter (fun (c, v) -> Common.note "count %s %d" c v) (Tracer.counts ())

let trace_metrics ~overhead ~unaccounted =
  Common.add "trace.overhead" "ratio" overhead;
  Common.add "trace.unaccounted" "ratio" unaccounted

let write_trace ~out ~name =
  Common.mkdir_p out;
  let path = Filename.concat out name in
  let dropped = Tracer.write_chrome path in
  Common.note "trace written to %s (%d spans beyond the in-memory cap not written)" path
    dropped
