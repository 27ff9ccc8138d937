(* The suites below marked as exhaustive run full execution-graph
   enumerations over the litmus catalog; `dune build @quick` sets
   TMX_QUICK=1 to skip them for fast iteration. *)
let exhaustive =
  [
    "naive";
    "enumerate";
    "sc";
    "litmus";
    "shapes";
    "theorems";
    "parallel";
    "reduction";
    "stm_stress";
    "stmsim_oracle";
    "analysis_oracle";
    "repair_oracle";
    "arch_catalog";
  ]

let run_suites () =
  let suites =
    [
      ("rat", Test_rat.suite);
      ("rel", Test_rel.suite);
      ("trace", Test_trace.suite);
      ("wellformed", Test_wellformed.suite);
      ("lift", Test_lift.suite);
      ("hb", Test_hb.suite);
      ("consistency", Test_consistency.suite);
      ("naive", Test_naive.suite);
      ("opacity", Test_opacity.suite);
      ("race", Test_race.suite);
      ("sequentiality", Test_sequentiality.suite);
      ("suborder", Test_suborder.suite);
      ("closure", Test_closure.suite);
      ("stability", Test_stability.suite);
      ("lang", Test_lang.suite);
      ("proto", Test_proto.suite);
      ("enumerate", Test_enumerate.suite);
      ("sc", Test_sc.suite);
      ("litmus", Test_litmus.suite);
      ("shapes", Test_shapes.suite);
      ("parallel", Test_parallel.suite);
      ("reduction", Test_reduction.suite);
      ("reduction_quick", Test_reduction.quick_suite);
      ("parse", Test_parse.suite);
      ("export", Test_export.suite);
      ("theorems", Test_theorems.suite);
      ("theorems_quick", Test_theorems.quick_suite);
      ("opt", Test_opt.suite);
      ("fenceify", Test_fenceify.suite);
      ("stmsim", Test_stmsim.suite);
      ("stmsim_oracle", Test_stmsim_oracle.suite);
      ("runtime", Test_runtime.suite);
      ("stm_stress", Test_stm_stress.suite);
      ("structures", Test_structures.suite);
      ("interp", Test_interp.suite);
      ("machine", Test_machine.suite);
      ("volatile", Test_volatile.suite);
      ("analysis", Test_analysis.suite);
      ("analysis_oracle", Test_analysis.oracle_suite);
      ("repair", Test_repair.suite);
      ("repair_oracle", Test_repair.oracle_suite);
      ("fuzz", Test_fuzz.suite);
      ("arch", Test_arch.suite);
      ("arch_catalog", Test_arch.catalog_suite);
      ("codec", Test_codec.suite);
      ("service", Test_service.suite);
    ]
  in
  let suites =
    if Sys.getenv_opt "TMX_QUICK" <> None then
      List.filter (fun (name, _) -> not (List.mem name exhaustive)) suites
    else suites
  in
  Alcotest.run "tmx" suites

let () =
  match Sys.argv with
  | [| _; "cache-writer"; dir; proc |] -> Test_service.cache_writer ~dir (int_of_string proc)
  | _ -> run_suites ()
