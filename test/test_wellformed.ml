open Tmx_core
open Tb

let has_violation pred t = List.exists pred (Wellformed.violations t)

let test_wf_ok () =
  let t =
    mk ~locs:[ "x"; "y" ]
      [ b 0; w 0 "x" 1 1; c 0; r 1 "x" 1 1; w 1 "y" 1 1 ]
  in
  Alcotest.(check (list (of_pp Wellformed.pp_violation))) "no violations" []
    (Wellformed.violations t)

let test_wf1 () =
  let t = Trace.of_events ~locs:[ "x" ] [ w 0 "x" 1 1 ] in
  Alcotest.(check bool) "missing init" true
    (has_violation (function Wellformed.WF1_no_init -> true | _ -> false) t)

let test_wf3 () =
  let t = mk ~locs:[ "x" ] [ w 0 "x" 1 1; w 1 "x" 2 1 ] in
  Alcotest.(check bool) "duplicate ts" true
    (has_violation (function Wellformed.WF3_duplicate_timestamp _ -> true | _ -> false) t)

let test_wf4 () =
  let t = mk ~locs:[ "x" ] [ c 0 ] in
  Alcotest.(check bool) "commit without begin" true
    (has_violation (function Wellformed.WF4_unmatched_resolution _ -> true | _ -> false) t)

let test_wf5 () =
  let t = mk ~locs:[ "x" ] [ b 0; b 0; c 0; c 0 ] in
  Alcotest.(check bool) "nested begin" true
    (has_violation (function Wellformed.WF5_nested_begin _ -> true | _ -> false) t)

let test_wf6 () =
  let t = mk ~locs:[ "x" ] [ r 0 "x" 7 3 ] in
  Alcotest.(check bool) "unfulfilled read" true
    (has_violation (function Wellformed.WF6_unfulfilled_read _ -> true | _ -> false) t);
  (* a write at the read's location and timestamp is not its source when
     it wrote another value *)
  let t = mk ~locs:[ "x" ] [ w 0 "x" 1 1; r 1 "x" 2 1 ] in
  Alcotest.(check bool) "read of a value no write wrote" true
    (has_violation (function Wellformed.WF6_unfulfilled_read _ -> true | _ -> false) t)

let test_wf7 () =
  (* plain read from an aborted transaction's write *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; a 0; r 1 "x" 1 1 ] in
  Alcotest.(check bool) "read from aborted" true
    (has_violation (function Wellformed.WF7_aborted_source _ -> true | _ -> false) t);
  (* a transaction may read its own pending write *)
  let own = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; r 0 "x" 1 1; a 0 ] in
  Alcotest.(check bool) "own pending write ok" false
    (has_violation (function Wellformed.WF7_aborted_source _ -> true | _ -> false) own)

let test_wf8 () =
  let t = mk ~locs:[ "x" ] [ r 0 "x" 1 1; w 1 "x" 1 1 ] in
  Alcotest.(check bool) "read sees future" true
    (has_violation (function Wellformed.WF8_read_from_future _ -> true | _ -> false) t)

let test_wf9 () =
  (* committed transactional write, then another transactional write with
     a smaller timestamp: forbidden *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 2 2; c 0; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "txn write behind committed txn write" true
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t);
  (* allowed when the earlier write is aborted (paper: 'we ignore aborted
     writes') *)
  let t2 = mk ~locs:[ "x" ] [ b 0; w 0 "x" 2 2; a 0; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "aborted earlier write ignored" false
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t2);
  (* allowed when the earlier write is plain (committed/live refer to
     transactions) *)
  let t3 = mk ~locs:[ "x" ] [ w 0 "x" 2 2; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "plain earlier write not constrained by WF9" false
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t3)

let test_wf10 () =
  (* ⟨aWx1⟩⟨cWx2⟩⟨bRx1⟩ all transactional: forbidden *)
  let t =
    mk ~locs:[ "x" ]
      [
        b 0; w 0 "x" 1 1; c 0;
        b 1; w 1 "x" 2 2; c 1;
        b 2; r 2 "x" 1 1; c 2;
      ]
  in
  Alcotest.(check bool) "obscured transactional read" true
    (has_violation (function Wellformed.WF10_txn_read_order _ -> true | _ -> false) t)

let test_wf11 () =
  (* ⟨aWx1⟩⟨cWx2⟩⟨bRx1⟩ with c tx~ b: the transaction ignores its own
     newer write *)
  let t =
    mk ~locs:[ "x" ]
      [ b 0; w 0 "x" 1 1; c 0; b 1; w 1 "x" 2 2; r 1 "x" 1 1; c 1 ]
  in
  Alcotest.(check bool) "read obscured by own write" true
    (has_violation (function Wellformed.WF11_same_txn_order _ -> true | _ -> false) t)

let test_wf12 () =
  (* a fence on x while a transaction touching x is unresolved *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; q 1 "x"; c 0 ] in
  Alcotest.(check bool) "fence inside open txn span" true
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t);
  (* fine if the transaction does not touch x *)
  let t2 = mk ~locs:[ "x"; "y" ] [ b 0; w 0 "y" 1 1; q 1 "x"; c 0 ] in
  Alcotest.(check bool) "fence with disjoint txn" false
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t2);
  (* fine if resolved before the fence *)
  let t3 = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; q 1 "x" ] in
  Alcotest.(check bool) "fence after resolution" false
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t3)

let suite =
  [
    Alcotest.test_case "well-formed trace accepted" `Quick test_wf_ok;
    Alcotest.test_case "WF1 initialization" `Quick test_wf1;
    Alcotest.test_case "WF3 timestamp uniqueness" `Quick test_wf3;
    Alcotest.test_case "WF4 resolution matching" `Quick test_wf4;
    Alcotest.test_case "WF5 no nesting" `Quick test_wf5;
    Alcotest.test_case "WF6 reads fulfilled" `Quick test_wf6;
    Alcotest.test_case "WF7 aborted writes invisible" `Quick test_wf7;
    Alcotest.test_case "WF8 no reads from the future" `Quick test_wf8;
    Alcotest.test_case "WF9 transactional write order" `Quick test_wf9;
    Alcotest.test_case "WF10 obscured transactional reads" `Quick test_wf10;
    Alcotest.test_case "WF11 own-write obscuring" `Quick test_wf11;
    Alcotest.test_case "WF12 fence overlap" `Quick test_wf12;
  ]
