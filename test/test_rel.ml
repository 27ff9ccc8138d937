open Tmx_core

let gen_rel n density =
  QCheck.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let r = Rel.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Random.State.float st 1.0 < density then Rel.add r i j
        done
      done;
      r)
    QCheck.small_int

let test_basic () =
  let r = Rel.create 4 in
  Alcotest.(check bool) "empty" true (Rel.is_empty r);
  Rel.add r 0 1;
  Rel.add r 1 2;
  Alcotest.(check bool) "mem 0 1" true (Rel.mem r 0 1);
  Alcotest.(check bool) "not mem 0 2" false (Rel.mem r 0 2);
  Alcotest.(check int) "cardinal" 2 (Rel.cardinal r);
  let c = Rel.transitive_closure r in
  Alcotest.(check bool) "closure adds 0 2" true (Rel.mem c 0 2);
  Alcotest.(check bool) "closure keeps 0 1" true (Rel.mem c 0 1);
  Alcotest.(check bool) "original unchanged" false (Rel.mem r 0 2)

let test_compose () =
  let a = Rel.of_pred 4 (fun i j -> i = 0 && j = 1) in
  let b = Rel.of_pred 4 (fun i j -> i = 1 && j = 3) in
  let c = Rel.compose a b in
  Alcotest.(check (list (pair int int))) "a;b" [ (0, 3) ] (Rel.to_list c)

let test_acyclic () =
  let dag = Rel.of_pred 5 (fun i j -> i < j) in
  Alcotest.(check bool) "total order acyclic" true (Rel.is_acyclic dag);
  let cyc = Rel.of_pred 3 (fun i j -> (i + 1) mod 3 = j) in
  Alcotest.(check bool) "3-cycle cyclic" false (Rel.is_acyclic cyc);
  let selfloop = Rel.of_pred 3 (fun i j -> i = 1 && j = 1) in
  Alcotest.(check bool) "self loop cyclic" false (Rel.is_acyclic selfloop)

let test_irreflexive () =
  let r = Rel.of_pred 3 (fun i j -> i < j) in
  Alcotest.(check bool) "strictly upper irreflexive" true (Rel.irreflexive r);
  Rel.add r 2 2;
  Alcotest.(check bool) "after self edge" false (Rel.irreflexive r)

let test_large () =
  (* crosses the one-word bitset boundary *)
  let n = 130 in
  let r = Rel.of_pred n (fun i j -> j = i + 1) in
  let c = Rel.transitive_closure r in
  Alcotest.(check bool) "long chain closed" true (Rel.mem c 0 (n - 1));
  Alcotest.(check bool) "acyclic" true (Rel.is_acyclic r)

let test_union_restrict () =
  let a = Rel.of_pred 4 (fun i j -> i = 0 && j = 1) in
  let b = Rel.of_pred 4 (fun i j -> i = 2 && j = 3) in
  let u = Rel.union a b in
  Alcotest.(check int) "union cardinal" 2 (Rel.cardinal u);
  let restricted = Rel.restrict ~src:(fun i -> i < 2) ~dst:(fun i -> i < 2) u in
  Alcotest.(check (list (pair int int))) "restricted" [ (0, 1) ] (Rel.to_list restricted);
  Alcotest.(check (list (pair int int))) "targets only" [ (2, 3) ]
    (Rel.to_list (Rel.restrict ~dst:(fun j -> j > 2) u));
  Alcotest.(check (list (pair int int))) "inter" [ (0, 1) ]
    (Rel.to_list (Rel.inter u (Rel.of_pred 4 (fun i _ -> i = 0))));
  Alcotest.(check bool) "a subset u" true (Rel.subset a u);
  Alcotest.(check bool) "u not subset a" false (Rel.subset u a)

(* naive reachability oracle *)
let reachable r i j =
  let n = Rel.size r in
  let visited = Array.make n false in
  let rec dfs k acc =
    List.fold_left
      (fun acc next -> if visited.(next) then acc else (visited.(next) <- true; dfs next (next :: acc)))
      acc
      (List.filter_map (fun m -> if Rel.mem r k m then Some m else None) (List.init n Fun.id))
  in
  List.mem j (dfs i [])

let prop_closure_correct =
  QCheck.Test.make ~name:"transitive closure matches DFS reachability" ~count:100
    (gen_rel 8 0.2) (fun r ->
      let c = Rel.transitive_closure r in
      let ok = ref true in
      for i = 0 to 7 do
        for j = 0 to 7 do
          if Rel.mem c i j <> reachable r i j then ok := false
        done
      done;
      !ok)

let prop_compose_assoc =
  QCheck.Test.make ~name:"composition associative" ~count:100
    (QCheck.triple (gen_rel 6 0.3) (gen_rel 6 0.3) (gen_rel 6 0.3))
    (fun (a, b, c) ->
      Rel.equal (Rel.compose (Rel.compose a b) c) (Rel.compose a (Rel.compose b c)))

let prop_union_monotone =
  QCheck.Test.make ~name:"closure of union contains closures" ~count:100
    (QCheck.pair (gen_rel 6 0.3) (gen_rel 6 0.3)) (fun (a, b) ->
      let cu = Rel.transitive_closure (Rel.union a b) in
      Rel.subset (Rel.transitive_closure a) cu
      && Rel.subset (Rel.transitive_closure b) cu)

let suite =
  [
    Alcotest.test_case "basics and closure" `Quick test_basic;
    Alcotest.test_case "composition" `Quick test_compose;
    Alcotest.test_case "acyclicity" `Quick test_acyclic;
    Alcotest.test_case "irreflexivity" `Quick test_irreflexive;
    Alcotest.test_case "multi-word bitsets" `Quick test_large;
    Alcotest.test_case "union/restrict/subset" `Quick test_union_restrict;
    Tb.qcheck prop_closure_correct;
    Tb.qcheck prop_compose_assoc;
    Tb.qcheck prop_union_monotone;
  ]
