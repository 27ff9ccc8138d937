(* The fuzzer's own guarantees: generation is deterministic per (seed,
   index), every shrink candidate is strictly smaller and well-formed,
   and minimization is deterministic and preserves the failing oracle.
   The end-to-end minimizer check drives the deliberately-broken demo
   oracle, the same one `tmx fuzz --minimize` demos with
   TMX_FUZZ_BROKEN=1. *)

open Tmx_lang
module Gen = Tmx_fuzz.Gen
module Shrink = Tmx_fuzz.Shrink
module Oracle = Tmx_fuzz.Oracle
module Runner = Tmx_fuzz.Runner

let presets = [ ("theorems", Gen.theorems); ("analysis", Gen.analysis); ("mixed", Gen.mixed) ]

let programs cfg ~seed n =
  List.init n (fun i -> Gen.program cfg (Gen.state_of_seed ~seed ~index:i))

let test_gen_deterministic () =
  List.iter
    (fun (name, cfg) ->
      let show ps = Fmt.str "%a" Fmt.(list Ast.pp_program) ps in
      Alcotest.(check string)
        (name ^ ": same seed, same programs")
        (show (programs cfg ~seed:7 25))
        (show (programs cfg ~seed:7 25)))
    presets

let test_gen_valid () =
  List.iter
    (fun (name, cfg) ->
      List.iteri
        (fun i p ->
          match Ast.validate p with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s #%d invalid: %s" name i msg)
        (programs cfg ~seed:3 50))
    presets

let test_gen_seeds_differ () =
  (* distinct seeds explore distinct programs (not a fixed stream) *)
  let show ps = Fmt.str "%a" Fmt.(list Ast.pp_program) ps in
  Alcotest.(check bool) "seeds 0 and 1 differ" false
    (String.equal (show (programs Gen.mixed ~seed:0 10)) (show (programs Gen.mixed ~seed:1 10)))

let test_candidates_strictly_smaller () =
  List.iter
    (fun p ->
      let m = Shrink.measure p in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Fmt.str "candidate of %s strictly smaller" p.Ast.name)
            true
            (Shrink.measure c < m);
          match Ast.validate c with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "candidate invalid: %s" msg)
        (Shrink.candidates p))
    (programs Gen.mixed ~seed:11 40)

let test_minimize_deterministic () =
  (* no randomness anywhere in the shrinker: two runs agree exactly *)
  let fails p = Shrink.size p >= 3 in
  List.iter
    (fun p ->
      if fails p then begin
        let m1, s1 = Shrink.minimize ~fails p in
        let m2, s2 = Shrink.minimize ~fails p in
        Alcotest.(check string) "same minimum"
          (Fmt.str "%a" Ast.pp_program m1)
          (Fmt.str "%a" Ast.pp_program m2);
        Alcotest.(check int) "same step count" s1 s2
      end)
    (programs Gen.mixed ~seed:5 20)

let test_minimized_still_fails () =
  (* against the real (deliberately broken) oracle: the minimum still
     fails it, is no larger than the original, and is small.  Greedy
     shrinking is 1-minimal, not globally minimal — a dead-branch mixed
     access can survive at a handful of statements — so the bound is the
     demo's acceptance bound (6), not the global 2-statement floor. *)
  let ctx = Oracle.make_ctx ~jobs:2 ~seed:0 () in
  let fails p = match Oracle.broken.check ctx p with Oracle.Fail _ -> true | Oracle.Pass -> false in
  let checked = ref 0 in
  List.iter
    (fun p ->
      if fails p then begin
        incr checked;
        let m, _ = Shrink.minimize ~fails p in
        Alcotest.(check bool) "minimized still fails" true (fails m);
        Alcotest.(check bool) "no larger" true (Shrink.measure m <= Shrink.measure p);
        Alcotest.(check bool)
          (Fmt.str "small: %a" Ast.pp_program m)
          true
          (Shrink.size m <= 6)
      end)
    (programs Gen.mixed ~seed:1 40);
  Alcotest.(check bool) "some mixed programs generated" true (!checked > 5)

(* the --json report of a failing campaign parses, and carries each
   failure's programs and a skipped file's error verbatim *)
let test_report_json () =
  let r =
    Runner.run
      {
        Runner.default_options with
        seed = 1;
        count = 20;
        oracles = [ Oracle.broken ];
        corpus_dir = None;
        crashes_dir = None;
        max_failures = 2;
      }
  in
  let r = { r with skipped_files = [ ("bad \"name\".litmus", "line 1:\tunexpected '\\'") ] } in
  Alcotest.(check bool) "the broken oracle fails" true (r.failures <> []);
  let j = Tb.parse_json "Runner.report_to_json" (Runner.report_to_json r) in
  let str s = Tmx_json.Str s in
  let check = Alcotest.check Tb.json in
  check "experiment" (str "differential_fuzz") (Tb.field "experiment" j);
  check "ok" (Tmx_json.Bool false) (Tb.field "ok" j);
  (match Tb.items (Tb.field "skipped_files" j) with
  | [ s ] -> check "skipped error" (str "line 1:\tunexpected '\\'") (Tb.field "error" s)
  | _ -> Alcotest.fail "expected one skipped file");
  let failures = Tb.items (Tb.field "failures" j) in
  Alcotest.(check int) "one entry per failure" (List.length r.failures) (List.length failures);
  List.iter2
    (fun (f : Runner.failure) fj ->
      check "program"
        (str (Tmx_litmus.Export.program_to_string f.program))
        (Tb.field "program" fj);
      match f.minimized with
      | Some m ->
          check "minimized size" (Tmx_json.int (Shrink.size m))
            (Tb.field "minimized_statements" fj)
      | None -> check "no minimum" Tmx_json.Null (Tb.field "minimized" fj))
    r.failures failures

let test_stock_oracle_names () =
  Alcotest.(check (list string))
    "stock oracle names"
    [
      "enum-naive";
      "machine-enum";
      "stmsim-enum";
      "lint-sound";
      "jobs-det";
      "reduction-det";
      "repair-sound";
      "arch-diff";
    ]
    (List.map (fun (o : Oracle.t) -> o.name) Oracle.stock)

let suite =
  [
    Alcotest.test_case "generation deterministic per seed" `Quick test_gen_deterministic;
    Alcotest.test_case "generated programs validate" `Quick test_gen_valid;
    Alcotest.test_case "seeds explore different programs" `Quick test_gen_seeds_differ;
    Alcotest.test_case "shrink candidates strictly smaller and valid" `Quick
      test_candidates_strictly_smaller;
    Alcotest.test_case "minimization deterministic" `Quick test_minimize_deterministic;
    Alcotest.test_case "minimized programs still fail their oracle" `Quick
      test_minimized_still_fails;
    Alcotest.test_case "stock oracle registry" `Quick test_stock_oracle_names;
    Alcotest.test_case "json report" `Quick test_report_json;
  ]
