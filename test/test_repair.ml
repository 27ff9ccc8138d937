(* The repair pipeline: path-keyed edits ([Tmx_opt.Patch]), the
   counterexample-guided synthesizer ([Tmx_analysis.Repair]), and — the
   crux — the repair-sound oracle: over the litmus catalog and 200
   random programs, every synthesized repair verifies race-free under
   the goal and removing any single edit reintroduces a race
   (1-minimality), re-checked independently of the search.

   The quick suite also pins the satellite property of the lint fix
   suggestions: every [Insert_fence] suggestion, mechanically applied,
   yields a program that re-parses through the litmus text round-trip
   and whose finding strictly decreases in severity (or disappears). *)

open Tmx_core
open Tmx_lang
module Access = Tmx_analysis.Access
module Lint = Tmx_analysis.Lint
module Repair = Tmx_analysis.Repair
module Patch = Tmx_opt.Patch
module Footprint = Tmx_opt.Footprint

let im = Model.implementation

let find name = (Option.get (Tmx_litmus.Catalog.find name)).program

let catalog_programs =
  List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program) Tmx_litmus.Catalog.all

(* single-domain config for reproducible test runs *)
let config = { Tmx_exec.Enumerate.default_config with jobs = 1 }

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (e : string) -> e

(* -- Patch ------------------------------------------------------------------- *)

let two_thread body1 =
  Ast.(program ~locs:[ "x"; "y" ] [ [ atomic [ store (loc "y") (int 1) ] ]; body1 ])

let test_patch_fence () =
  let p = two_thread Ast.[ atomic [ store (loc "y") (int 2) ]; store (loc "x") (int 1) ] in
  let p' =
    check_ok "fence apply"
      (Patch.apply [ Patch.Insert_fence { before = "t1.1"; fence_loc = "x" } ] p)
  in
  Alcotest.(check string)
    "fence inserted before the store"
    (Fmt.str "%a" Ast.pp_body
       Ast.[ atomic [ store (loc "y") (int 2) ]; fence "x"; store (loc "x") (int 1) ])
    (Fmt.str "%a" Ast.pp_body (List.nth p'.Ast.threads 1));
  (* the paths an edit addresses are the ORIGINAL program's: a second
     application at the same path inserts before the same store *)
  let err =
    check_err "fence inside atomic"
      (Patch.apply [ Patch.Insert_fence { before = "t0.0.atomic.0"; fence_loc = "x" } ] p)
  in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "error names the atomic restriction" true
    (contains_sub err "atomic")

let test_patch_promote () =
  let p = two_thread Ast.[ store (loc "x") (int 1) ] in
  let p' =
    check_ok "promote apply" (Patch.apply [ Patch.Promote { path = "t1.0" } ] p)
  in
  Alcotest.(check string) "store wrapped in atomic"
    (Fmt.str "%a" Ast.pp_body Ast.[ atomic [ store (loc "x") (int 1) ] ])
    (Fmt.str "%a" Ast.pp_body (List.nth p'.Ast.threads 1));
  ignore
    (check_err "promote a transactional access"
       (Patch.apply [ Patch.Promote { path = "t0.0.atomic.0" } ] p));
  ignore
    (check_err "promote an if"
       (Patch.apply [ Patch.Promote { path = "t1.0" } ]
          (two_thread Ast.[ if_ (int 1) [ store (loc "x") (int 1) ] [] ])))

let test_patch_absorb () =
  (* backward: into the preceding atomic *)
  let p = two_thread Ast.[ atomic [ store (loc "y") (int 2) ]; store (loc "x") (int 1) ] in
  let p' =
    check_ok "absorb backward" (Patch.apply [ Patch.Absorb { path = "t1.1" } ] p)
  in
  Alcotest.(check string) "absorbed into the preceding atomic"
    (Fmt.str "%a" Ast.pp_body
       Ast.[ atomic [ store (loc "y") (int 2); store (loc "x") (int 1) ] ])
    (Fmt.str "%a" Ast.pp_body (List.nth p'.Ast.threads 1));
  (* forward: into the following atomic *)
  let p = two_thread Ast.[ store (loc "x") (int 1); atomic [ store (loc "y") (int 2) ] ] in
  let p' =
    check_ok "absorb forward" (Patch.apply [ Patch.Absorb { path = "t1.0" } ] p)
  in
  Alcotest.(check string) "absorbed into the following atomic"
    (Fmt.str "%a" Ast.pp_body
       Ast.[ atomic [ store (loc "x") (int 1); store (loc "y") (int 2) ] ])
    (Fmt.str "%a" Ast.pp_body (List.nth p'.Ast.threads 1));
  ignore
    (check_err "no adjacent atomic"
       (Patch.apply [ Patch.Absorb { path = "t1.0" } ]
          (two_thread Ast.[ store (loc "x") (int 1) ])))

let test_patch_errors () =
  let p = two_thread Ast.[ store (loc "x") (int 1) ] in
  ignore
    (check_err "unmatched path"
       (Patch.apply [ Patch.Promote { path = "t1.7" } ] p));
  ignore
    (check_err "conflicting edits"
       (Patch.apply
          [ Patch.Promote { path = "t1.0" }; Patch.Absorb { path = "t1.0" } ]
          p));
  ignore
    (check_err "undeclared fence location"
       (Patch.apply [ Patch.Insert_fence { before = "t1.0"; fence_loc = "zz" } ] p))

let test_patch_roundtrip () =
  (* an edited program survives the litmus text round trip structurally *)
  let p = find "privatization" in
  let p' =
    check_ok "fence apply"
      (Patch.apply [ Patch.Insert_fence { before = "t1.1"; fence_loc = "x" } ] p)
  in
  let reparsed =
    (Tmx_litmus.Parse.parse (Tmx_litmus.Export.program_to_string p')).program
  in
  Alcotest.(check string) "structural digest survives the round trip"
    (Canon.digest p') (Canon.digest reparsed);
  Alcotest.(check string) "fence repair of privatization = the catalog exemplar"
    (Canon.digest (find "privatization_fence"))
    (Canon.digest p')

(* -- Repair ------------------------------------------------------------------- *)

let test_repair_privatization () =
  let r = check_ok "repair" (Repair.run ~config im (find "privatization")) in
  Alcotest.(check int) "one edit" 1 (List.length r.Repair.edits);
  Alcotest.(check bool) "repaired program differs" false
    (Canon.digest r.original = Canon.digest r.repaired);
  check_ok "repair-sound" (Repair.check ~config im r)

let test_repair_fence_only () =
  let r =
    check_ok "repair --no-promote"
      (Repair.run ~config ~promote:false im (find "privatization"))
  in
  (match r.Repair.edits with
  | [ Patch.Insert_fence { before; fence_loc } ] ->
      Alcotest.(check string) "fence location" "x" fence_loc;
      Alcotest.(check string) "fence site" "t1.1" before
  | es ->
      Alcotest.failf "expected a single fence insertion, got %a"
        Fmt.(list ~sep:comma Patch.pp_edit)
        es);
  Alcotest.(check string) "repaired = privatization_fence structurally"
    (Canon.digest (find "privatization_fence"))
    (Canon.digest r.repaired);
  check_ok "repair-sound" (Repair.check ~config im r)

let test_repair_clean () =
  List.iter
    (fun name ->
      let r = check_ok ("repair " ^ name) (Repair.run ~config im (find name)) in
      Alcotest.(check int) (name ^ " needs no edits") 0 (List.length r.Repair.edits);
      check_ok (name ^ " repair-sound") (Repair.check ~config im r))
    [ "publication"; "privatization_fence"; "d4_no_overlapped_writes" ]

let test_certificate_deterministic () =
  let run () =
    (check_ok "repair" (Repair.run ~config im (find "privatization"))).Repair.certificate
  in
  let c1 = run () and c2 = run () in
  Alcotest.(check string) "same certificate across runs" c1 c2;
  (* the certificate binds the model: a different model yields another *)
  let c3 =
    (check_ok "repair" (Repair.run ~config Model.bare (find "privatization")))
      .Repair.certificate
  in
  Alcotest.(check bool) "model is part of the certificate" false (c1 = c3)

let test_repair_goal_all () =
  (* sb races plain/plain; under goal All it needs wrapping, under the
     default Mixed goal it is already clean (no transactional access) *)
  let p = find "sb" in
  let clean = check_ok "repair mixed" (Repair.run ~config im p) in
  Alcotest.(check int) "no mixed race to repair" 0 (List.length clean.Repair.edits);
  let r = check_ok "repair all" (Repair.run ~config ~goal:Repair.All im p) in
  Alcotest.(check bool) "goal all repairs sb" true (r.Repair.edits <> []);
  check_ok "repair-sound" (Repair.check ~config ~goal:Repair.All im r)

let test_repair_json () =
  let r = check_ok "repair" (Repair.run ~config im (find "privatization_chain")) in
  let j = Tb.parse_json "Repair.to_json" (Repair.to_json ~model:im ~goal:Repair.Mixed r) in
  let str s = Tmx_json.Str s in
  Alcotest.check Tb.json "program" (str "privatization_chain") (Tb.field "program" j);
  Alcotest.check Tb.json "model" (str im.Model.name) (Tb.field "model" j);
  Alcotest.check Tb.json "edits" (Tmx_json.int (List.length r.edits)) (Tb.field "edits" j);
  Alcotest.check Tb.json "edit_list"
    (Tmx_json.Arr (List.map (fun e -> str (Fmt.str "%a" Patch.pp_edit e)) r.edits))
    (Tb.field "edit_list" j);
  Alcotest.check Tb.json "certificate" (str r.certificate) (Tb.field "certificate" j);
  Alcotest.(check int) "one entry per discard" (List.length r.discards)
    (List.length (Tb.items (Tb.field "discards" j)));
  let msg = "no \"repair\" \xe2\x80\x94 \x01 within budget" in
  let e =
    Tb.parse_json "Repair.error_to_json" (Repair.error_to_json ~program:(find "sb") msg)
  in
  Alcotest.check Tb.json "error message survives escaping" (str msg) (Tb.field "error" e)

(* -- the Insert_fence property (satellite) ------------------------------------ *)

(* Identify the finding across the edit.  Inserting k fences
   immediately before the plain access shifts the last index of its
   source path by k; the other access lives in another thread (mixed
   pairs are cross-thread) and keeps its path. *)
let bump_last k path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> (
      let head = String.sub path 0 i in
      let tail = String.sub path (i + 1) (String.length path - i - 1) in
      match int_of_string_opt tail with
      | Some n -> Fmt.str "%s.%d" head (n + k)
      | None -> path)

let check_fence_fixes (p : Ast.program) =
  let r = Lint.lint p in
  List.iter
    (fun (f : Lint.finding) ->
      match f.Lint.fix with
      | Lint.Wrap_atomic _ -> ()
      | Lint.Insert_fence { fence_loc; before } -> (
          match Patch.apply [ Patch.Insert_fence { before; fence_loc } ] p with
          | Error e ->
              Alcotest.failf "%s: fence fix at %s does not apply: %s"
                p.Ast.name before e
          | Ok p' ->
              (* the edited program re-parses through the text format *)
              let reparsed =
                (Tmx_litmus.Parse.parse (Tmx_litmus.Export.program_to_string p'))
                  .program
              in
              Alcotest.(check string)
                (Fmt.str "%s: fenced program survives the round trip" p.Ast.name)
                (Canon.digest p') (Canon.digest reparsed);
              (* and the finding strictly decreased in severity *)
              let k =
                List.length
                  (List.sort_uniq compare
                     (Footprint.expand_name ~locs:p.Ast.locs fence_loc))
              in
              let other =
                if f.a.Access.path = before then f.b.Access.path
                else f.a.Access.path
              in
              let expected =
                List.sort compare [ bump_last k before; other ]
              in
              let matching =
                List.filter
                  (fun (f' : Lint.finding) ->
                    f'.Lint.kind = f.Lint.kind
                    && f'.loc = f.loc
                    && List.sort compare
                         [ f'.a.Access.path; f'.b.Access.path ]
                       = expected)
                  (Lint.lint p').Lint.findings
              in
              Alcotest.(check bool)
                (Fmt.str "%s: the fenced pair is still reported (one-sided)"
                   p.Ast.name)
                true (matching <> []);
              List.iter
                (fun (f' : Lint.finding) ->
                  Alcotest.(check bool)
                    (Fmt.str "%s: severity strictly decreases at %s (%a -> %a)"
                       p.Ast.name before Lint.pp_severity f.severity
                       Lint.pp_severity f'.severity)
                    true
                    (Lint.severity_rank f'.severity > Lint.severity_rank f.severity))
                matching))
    r.Lint.findings

let test_fence_fix_property_catalog () =
  List.iter check_fence_fixes catalog_programs

let gen_program : Ast.program QCheck.Gen.t =
  Tmx_fuzz.Gen.program Tmx_fuzz.Gen.analysis

let arb_program = QCheck.make ~print:(Fmt.str "%a" Ast.pp_program) gen_program

let prop_fence_fix_random =
  QCheck.Test.make
    ~name:"Insert_fence fixes re-parse and strictly decrease severity (200 random)"
    ~count:200 arb_program (fun p ->
      check_fence_fixes p;
      true)

(* -- the repair-sound oracle (exhaustive) -------------------------------------- *)

let test_repair_sound_catalog () =
  let repaired = ref 0 and clean = ref 0 in
  List.iter
    (fun (p : Ast.program) ->
      let r = check_ok ("repair " ^ p.Ast.name) (Repair.run ~config im p) in
      if r.Repair.edits = [] then incr clean else incr repaired;
      check_ok (p.Ast.name ^ " repair-sound") (Repair.check ~config im r))
    catalog_programs;
  Fmt.pr "@.repair over the catalog: %d repaired, %d already clean@." !repaired
    !clean;
  (* pin the floor: the nine mixed-racy programs all get repairs *)
  Alcotest.(check int) "nine catalog programs need repair" 9 !repaired

let prop_repair_sound_random =
  QCheck.Test.make ~name:"repair-sound on 200 random programs" ~count:200
    arb_program (fun p ->
      match Repair.run ~config im p with
      | Error e -> QCheck.Test.fail_reportf "no repair found: %s" e
      | Ok r -> (
          match Repair.check ~config im r with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "repair-sound violation: %s" e))

let suite =
  [
    Alcotest.test_case "patch: fence insertion" `Quick test_patch_fence;
    Alcotest.test_case "patch: promotion" `Quick test_patch_promote;
    Alcotest.test_case "patch: absorption" `Quick test_patch_absorb;
    Alcotest.test_case "patch: error cases" `Quick test_patch_errors;
    Alcotest.test_case "patch: litmus round trip" `Quick test_patch_roundtrip;
    Alcotest.test_case "repair privatization" `Quick test_repair_privatization;
    Alcotest.test_case "fence-only repair = catalog exemplar" `Quick
      test_repair_fence_only;
    Alcotest.test_case "clean programs need no repair" `Quick test_repair_clean;
    Alcotest.test_case "certificates are deterministic" `Quick
      test_certificate_deterministic;
    Alcotest.test_case "goal all vs goal mixed" `Quick test_repair_goal_all;
    Alcotest.test_case "json output" `Quick test_repair_json;
    Alcotest.test_case "fence fixes strictly decrease severity (catalog)" `Quick
      test_fence_fix_property_catalog;
    Tb.qcheck prop_fence_fix_random;
  ]

let oracle_suite =
  [
    Alcotest.test_case "repair-sound over the catalog" `Slow
      test_repair_sound_catalog;
    Tb.qcheck prop_repair_sound_random;
  ]
