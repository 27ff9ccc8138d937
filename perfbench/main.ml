(* The tmx benchmark's entry point.

     main.exe run --workload W --seed N --seconds S --trace 0|1
              [--reference FILE] [--commit ID]
     main.exe refgen > perfbench/reference.txt

   A run prints its run record, every metric with its unit and sample
   count, and ends stdout with one JSON line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The metrics are those BENCHMARK.json lists: the end-to-end ones
   untraced, the per-layer ones traced.  It exits 1 on a wrong answer or
   a failed operation, and 2 on bad usage. *)

let workloads = [ "verify-corpus"; "serve-replay"; "stm-mix" ]

let usage () =
  prerr_endline
    "usage: main.exe run --workload (verify-corpus|serve-replay|stm-mix) --seed N \
     --seconds S --trace 0|1 [--reference FILE] [--commit ID]\n\
    \       main.exe refgen";
  exit 2

let run args =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let reference = ref "perfbench/reference.txt" in
  let commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--reference" :: v :: r -> reference := v; parse r
    | "--commit" :: v :: r -> commit := v; parse r
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.
     || not (!trace = 0 || !trace = 1)
  then usage ();
  let env =
    { Common.seed = !seed; commit = !commit; workload = !workload; trace = !trace = 1 }
  in
  let refs = Corpus.load !reference in
  let listed = Common.listed ~path:"BENCHMARK.json" ~trace:(!trace = 1) in
  let seconds = !seconds and trace = !trace = 1 and seed = !seed in
  (* traces and result records; ignored by git *)
  let out = "perfbench/out" in
  let attempted, failed, wrong =
    match !workload with
    | "verify-corpus" -> Verify_corpus.run ~refs ~seed ~seconds ~trace ~out env
    | "serve-replay" -> Serve_replay.run ~refs ~seed ~seconds ~trace ~out env
    | _ -> Stm_mix.run ~seed ~seconds ~trace ~out env
  in
  let correct = wrong = 0 && failed = 0 in
  if not (Common.finish ~out ~listed env ~correct ~attempted ~failed) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "refgen" :: _ -> Corpus.refgen ~jobs:(Tmx_exec.Pool.available_cores ())
  | _ :: "run" :: args -> run args
  | _ -> usage ()
