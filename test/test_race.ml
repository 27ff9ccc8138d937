open Tmx_core
open Tmx_exec
open Tb

let pm = Model.programmer
let im = Model.implementation

let priv_trace () =
  mk ~locs:[ "x"; "y" ]
    [
      b 0; r 0 "y" 0 0; w 0 "x" 1 1; c 0;
      b 1; w 1 "y" 1 1; c 1;
      w 1 "x" 2 2;
    ]

let test_privatization_race () =
  let t = priv_trace () in
  Alcotest.(check int) "race-free under pm (HBww)" 0
    (List.length (Verdict.execution_races pm t));
  let races = Verdict.execution_races im t in
  Alcotest.(check bool) "racy under im" true (races <> []);
  let ctx = Lift.make t in
  let hb = Hb.compute im ctx in
  Alcotest.(check bool) "the race is mixed (txn write vs plain write)" true
    (Race.has_mixed_race t hb)

let test_l_restriction () =
  let t = priv_trace () in
  let ctx = Lift.make t in
  let hb = Hb.compute im ctx in
  Alcotest.(check bool) "L={x} sees the race" true (Race.races ~l:[ "x" ] t hb <> []);
  Alcotest.(check bool) "L={y} does not" true (Race.races ~l:[ "y" ] t hb = [])

let test_txn_txn_never_race () =
  (* two unsynchronized transactions on the same location: conflicting but
     never racing *)
  let t =
    mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; b 1; w 1 "x" 2 2; c 1 ]
  in
  Alcotest.(check int) "no transactional races" 0
    (List.length (Verdict.execution_races im t))

let test_aborted_never_race () =
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; a 0; w 1 "x" 2 2 ] in
  Alcotest.(check int) "aborted actions do not race" 0
    (List.length (Verdict.execution_races im t))

let test_read_read_never_race () =
  let t = mk ~locs:[ "x" ] [ r 0 "x" 0 0; b 1; r 1 "x" 0 0; c 1 ] in
  Alcotest.(check int) "two reads never race" 0
    (List.length (Verdict.execution_races im t))

let test_plain_race_detected () =
  let t = mk ~locs:[ "x" ] [ w 0 "x" 1 1; r 1 "x" 1 1 ] in
  Alcotest.(check bool) "plain write/read race" true
    (Verdict.execution_races pm t <> []);
  let ctx = Lift.make t in
  let hb = Hb.compute pm ctx in
  Alcotest.(check bool) "but it is not mixed" false (Race.has_mixed_race t hb)

let test_aborted_mixed_excluded () =
  (* a §5-shaped pair — transactional write vs plain write — is not a
     mixed race when the transaction aborted *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; a 0; w 1 "x" 2 2 ] in
  let ctx = Lift.make t in
  let hb = Hb.compute im ctx in
  Alcotest.(check int) "aborted txn: no mixed races" 0
    (List.length (Race.mixed_races t hb));
  (* the committed variant is the anomaly *)
  let t' = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; w 1 "x" 2 2 ] in
  let ctx' = Lift.make t' in
  let hb' = Hb.compute im ctx' in
  Alcotest.(check bool) "committed variant mixed-races" true
    (Race.has_mixed_race t' hb')

let test_fence_commit_side_orders () =
  (* HBCQ: the transaction commits before the fence, so the fence — and
     the plain write po-after it — is ordered after the commit *)
  let t =
    mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; q 1 "x"; w 1 "x" 2 2 ]
  in
  Alcotest.(check int) "fence quiesces the committed txn" 0
    (List.length (Verdict.execution_races im t));
  (* without the fence the same trace races *)
  let t' = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; w 1 "x" 2 2 ] in
  Alcotest.(check bool) "unfenced variant races" true
    (Verdict.execution_races im t' <> [])

let test_fence_begin_side_orders () =
  (* HBQB: the transaction begins after the fence, so the plain write
     po-before the fence is ordered ahead of it *)
  let t =
    mk ~locs:[ "x" ] [ w 1 "x" 1 1; q 1 "x"; b 0; w 0 "x" 2 2; c 0 ]
  in
  Alcotest.(check int) "fence orders the later txn" 0
    (List.length (Verdict.execution_races im t))

let test_fence_wrong_location () =
  (* a fence on an unrelated location protects nothing *)
  let t =
    mk ~locs:[ "x"; "y" ] [ b 0; w 0 "x" 1 1; c 0; q 1 "y"; w 1 "x" 2 2 ]
  in
  Alcotest.(check bool) "y-fence does not quiesce x" true
    (Verdict.execution_races im t <> [])

(* An L-race check is a filter of the races at L = Loc, for every L,
   under every model. *)
let prop_restrict =
  let arb_l =
    QCheck.make
      ~print:(function None -> "Loc" | Some l -> "{" ^ String.concat "," l ^ "}")
      QCheck.Gen.(opt (oneofl [ []; [ "x" ]; [ "y" ]; [ "x"; "y" ] ]))
  in
  let arb_model = QCheck.make ~print:(fun m -> m.Model.name) (QCheck.Gen.oneofl Model.all) in
  QCheck.Test.make ~name:"restricting the races at Loc = the races at L" ~count:300
    (QCheck.triple Test_naive.arb_trace arb_l arb_model)
    (fun (t, l, model) ->
      let hb = Hb.compute model (Lift.make t) in
      Race.restrict ?l t (Race.races t hb) = Race.races ?l t hb)

let suite =
  [
    Tb.qcheck prop_restrict;
    Alcotest.test_case "privatization race pm vs im" `Quick test_privatization_race;
    Alcotest.test_case "spatial restriction" `Quick test_l_restriction;
    Alcotest.test_case "transactions never race" `Quick test_txn_txn_never_race;
    Alcotest.test_case "aborted actions never race" `Quick test_aborted_never_race;
    Alcotest.test_case "reads never race" `Quick test_read_read_never_race;
    Alcotest.test_case "plain races detected" `Quick test_plain_race_detected;
    Alcotest.test_case "aborted txns excluded from mixed races" `Quick
      test_aborted_mixed_excluded;
    Alcotest.test_case "commit-side fence orders (HBCQ)" `Quick
      test_fence_commit_side_orders;
    Alcotest.test_case "begin-side fence orders (HBQB)" `Quick
      test_fence_begin_side_orders;
    Alcotest.test_case "fences are per-location" `Quick
      test_fence_wrong_location;
  ]
