(** Benchmark-regression guard behind [tmx bench-compare].

    Reads two benchmark witnesses of the same schema
    ([BENCH_stm.json], [BENCH_arch.json], [BENCH_parallel.json],
    [BENCH_reduction.json], [BENCH_serve.json] or [BENCH_loadgen.json],
    auto-detected via their ["experiment"] field) through {!Tmx_json},
    normalizes every measurement to a throughput (higher is better), and
    reports the pairs where the new value fell more than
    {!default_threshold} below the old one. *)

val default_threshold : float
(** 0.25 — the one place the 25% regression threshold is defined. *)

type metric = { key : string; old_value : float; new_value : float }

val metrics_of : Tmx_json.t -> ((string * float) list, string) result
(** The normalized metrics of one parsed witness, keyed as
    {!compare_files} pairs them; [Error] on a missing or unknown
    ["experiment"] field. *)

type verdict = {
  threshold : float;
  metrics : metric list;
  regressions : metric list;
  missing : string list;
}

val compare_files :
  ?threshold:float ->
  ?gate_keys:string list ->
  string ->
  string ->
  (verdict, string) result
(** [compare_files old new] — [Error] on unreadable or unrecognized
    files.  A nonempty [gate_keys] restricts the comparison to keys
    containing one of the given substrings, so CI can gate on a
    witness's long-established keys while the rest stay warn-only. *)

val passed : verdict -> bool
val pp_verdict : verdict Fmt.t
