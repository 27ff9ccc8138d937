open Tmx_core
open Tb

(* The visualization example of §2: b:(Wy1 Wx1) committed; c:(Ry1) aborted;
   d: plain Wx2. *)
let paper_trace () =
  mk ~locs:[ "x"; "y" ]
    [
      b 0; w 0 "y" 1 1; w 0 "x" 1 1; c 0;
      b 1; r 1 "y" 1 1; a 1;
      w 1 "x" 2 2;
    ]

let test_membership () =
  let t = paper_trace () in
  (* init transaction occupies positions 0..3: B Wx Wy C *)
  let base = 4 in
  Alcotest.(check bool) "init events transactional" true (Trace.is_transactional t 0);
  Alcotest.(check int) "Wy1 belongs to b" base (Trace.txn_of t (base + 1));
  Alcotest.(check int) "Wx1 belongs to b" base (Trace.txn_of t (base + 2));
  Alcotest.(check int) "Ry1 belongs to c" (base + 4) (Trace.txn_of t (base + 5));
  Alcotest.(check bool) "Wx2 is plain" true (Trace.is_plain t (base + 7));
  Alcotest.(check bool) "same txn" true (Trace.same_txn t (base + 1) (base + 2));
  Alcotest.(check bool) "cross txn" false (Trace.same_txn t (base + 1) (base + 5))

let test_status () =
  let t = paper_trace () in
  let base = 4 in
  Alcotest.(check (option (of_pp Trace.pp_status))) "b committed"
    (Some Trace.Committed) (Trace.status t (base + 1));
  Alcotest.(check (option (of_pp Trace.pp_status))) "c aborted"
    (Some Trace.Aborted) (Trace.status t (base + 5));
  Alcotest.(check bool) "aborted read is aborted" true (Trace.is_aborted t (base + 5));
  Alcotest.(check bool) "plain write nonaborted" true (Trace.is_nonaborted t (base + 7));
  Alcotest.(check bool) "plain not committed-or-live txn" false
    (Trace.is_committed_or_live_txn t (base + 7))

let test_live () =
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1 ] in
  Alcotest.(check (option (of_pp Trace.pp_status))) "live txn" (Some Trace.Live)
    (Trace.status t 4);
  Alcotest.(check bool) "not all resolved" false (Trace.all_txns_resolved t)

let test_relations () =
  let t = paper_trace () in
  let base = 4 in
  let ww = Trace.rel_ww t and wr = Trace.rel_wr t in
  let rw = Trace.rel_rw t ~wr ~ww in
  Alcotest.(check bool) "Wx1 ww Wx2" true (Rel.mem ww (base + 2) (base + 7));
  Alcotest.(check bool) "init-x ww Wx1" true (Rel.mem ww 1 (base + 2) || Rel.mem ww 2 (base + 2));
  Alcotest.(check bool) "Wy1 wr Ry1" true (Rel.mem wr (base + 1) (base + 5));
  (* Ry1 rw Wx2? no: different locations.  Ry1 has no later y write. *)
  Alcotest.(check bool) "no rw from Ry1" false (Rel.mem rw (base + 5) (base + 7));
  (* the aborted read's source is found *)
  Alcotest.(check (option int)) "wr source" (Some (base + 1)) (Trace.wr_source t (base + 5))

let test_rw_excludes_aborted_target () =
  (* x written by committed init, read plainly, then an aborted txn write:
     rw must not target the aborted write *)
  let t =
    mk ~locs:[ "x" ] [ r 1 "x" 0 0; b 0; w 0 "x" 5 1; a 0 ]
  in
  let rw = Trace.rel_rw t ~wr:(Trace.rel_wr t) ~ww:(Trace.rel_ww t) in
  (* read at position 3, aborted write at position 5 *)
  Alcotest.(check bool) "no rw to aborted" false (Rel.mem rw 3 5)

let test_final_value () =
  let t = paper_trace () in
  Alcotest.(check (option int)) "final x" (Some 2) (Trace.final_value t "x");
  Alcotest.(check (option int)) "final y" (Some 1) (Trace.final_value t "y");
  (* aborted writes don't count *)
  let t2 = mk ~locs:[ "x" ] [ b 0; w 0 "x" 9 5; a 0 ] in
  Alcotest.(check (option int)) "aborted ignored" (Some 0) (Trace.final_value t2 "x")

let test_contiguity () =
  let contiguous = paper_trace () in
  Alcotest.(check bool) "paper trace contiguous" true (Trace.all_txns_contiguous contiguous);
  let interleaved =
    mk ~locs:[ "x"; "y" ]
      [ b 0; w 0 "y" 1 1; w 1 "x" 7 1; w 0 "x" 1 2; c 0 ]
  in
  Alcotest.(check bool) "foreign write inside span" false
    (Trace.all_txns_contiguous interleaved);
  (* a trailing live transaction with the owner silent afterwards is fine *)
  let trailing =
    mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; w 1 "x" 2 2 ]
  in
  Alcotest.(check bool) "live trailing txn contiguous" true
    (Trace.all_txns_contiguous trailing)

let test_drop_aborted () =
  let t = paper_trace () in
  let t' = Trace.drop_aborted t in
  Alcotest.(check int) "aborted txn removed" (Trace.length t - 3) (Trace.length t');
  Alcotest.(check bool) "still well-formed" true (Wellformed.is_well_formed t')

let test_permute () =
  let t = paper_trace () in
  let n = Trace.length t in
  let identity = Array.init n Fun.id in
  Alcotest.(check bool) "identity order-preserving" true
    (Trace.is_order_preserving t identity);
  (* swap the two adjacent cross-thread events: Ry1's txn and the plain
     Wx2 — both thread 1, so swapping them is NOT order-preserving *)
  let bad = Array.init n Fun.id in
  bad.(n - 1) <- n - 2;
  bad.(n - 2) <- n - 1;
  Alcotest.(check bool) "same-thread swap not order-preserving" false
    (Trace.is_order_preserving t bad);
  (* move the aborted transaction before b: cross-thread, order-preserving *)
  let base = 4 in
  let perm = Array.of_list ([ 0; 1; 2; 3 ] @ [ base + 4; base + 5; base + 6 ] @ [ base; base + 1; base + 2; base + 3; base + 7 ]) in
  Alcotest.(check bool) "cross-thread reorder order-preserving" true
    (Trace.is_order_preserving t perm);
  let t' = Trace.permute t perm in
  Alcotest.(check int) "length preserved" n (Trace.length t')

let suite =
  [
    Alcotest.test_case "transaction membership" `Quick test_membership;
    Alcotest.test_case "statuses" `Quick test_status;
    Alcotest.test_case "live transactions" `Quick test_live;
    Alcotest.test_case "base relations" `Quick test_relations;
    Alcotest.test_case "rw excludes aborted targets" `Quick test_rw_excludes_aborted_target;
    Alcotest.test_case "final values" `Quick test_final_value;
    Alcotest.test_case "contiguity" `Quick test_contiguity;
    Alcotest.test_case "drop aborted (Thm 4.2 support)" `Quick test_drop_aborted;
    Alcotest.test_case "permutations" `Quick test_permute;
  ]
