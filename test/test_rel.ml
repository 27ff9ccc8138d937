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

(* -- every operation against a pairs-list model, across word boundaries --- *)

(* Rows are 63-bit words, so these sizes put edges on both sides of the
   first and second word boundary, plus the degenerate 0 and 1. *)
let model_sizes = [| 0; 1; 62; 63; 64; 65; 127; 130 |]

(* A relation's model is its sorted, duplicate-free list of pairs —
   the order [Rel.iter] promises. *)
let norm l = List.sort_uniq compare l

let set_of l =
  let h = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace h p ()) l;
  h

let model_closure n l =
  let succ = Array.make n [] in
  List.iter (fun (i, j) -> succ.(i) <- j :: succ.(i)) l;
  List.concat_map
    (fun i ->
      let seen = Array.make n false in
      let rec go = function
        | [] -> ()
        | k :: rest ->
            let fresh = List.filter (fun j -> not seen.(j)) succ.(k) in
            List.iter (fun j -> seen.(j) <- true) fresh;
            go (fresh @ rest)
      in
      go [ i ];
      List.filter_map (fun j -> if seen.(j) then Some (i, j) else None) (List.init n Fun.id))
    (List.init n Fun.id)

let model_compose n a b =
  let succ = Array.make n [] in
  List.iter (fun (j, k) -> succ.(j) <- k :: succ.(j)) b;
  norm (List.concat_map (fun (i, j) -> List.map (fun k -> (i, k)) succ.(j)) a)

let model_lift n classes l =
  let cross = set_of (List.map (fun (a, b) -> (classes.(a), classes.(b))) l) in
  let extra = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if classes.(i) <> classes.(j) && Hashtbl.mem cross (classes.(i), classes.(j))
      then extra := (i, j) :: !extra
    done
  done;
  norm (l @ !extra)

type case = {
  n : int;
  a : (int * int) list;
  b : (int * int) list;
  c : (int * int) list;
  classes : int array;
  src : bool array;
  dst : bool array;
  edge : int * int;
}

(* positions near the word boundaries are drawn as often as uniform ones *)
let gen_case (k, seed) =
  let n = model_sizes.(k) in
  let st = Random.State.make [| 0x7e1; k; seed |] in
  let near = List.filter (fun i -> 0 <= i && i < n) [ 0; 1; 61; 62; 63; 64; 125; 126; 127; n - 1 ] in
  let pos () =
    if Random.State.bool st then Random.State.int st n
    else List.nth near (Random.State.int st (List.length near))
  in
  let pairs () =
    if n = 0 then []
    else norm (List.init (Random.State.int st ((3 * n) + 1)) (fun _ -> (pos (), pos ())))
  in
  let a = pairs () and b = pairs () and c = pairs () in
  (* classes named by positions, so that a class's members and the
     classes it reaches span words *)
  let reps = Array.init (if n = 0 then 0 else 1 + Random.State.int st n) (fun _ -> pos ()) in
  let classes = Array.init n (fun _ -> reps.(Random.State.int st (Array.length reps))) in
  let bits () = Array.init n (fun _ -> Random.State.int st 3 > 0) in
  let src = bits () and dst = bits () in
  let edge = if n = 0 then (0, 0) else (pos (), pos ()) in
  { n; a; b; c; classes; src; dst; edge }

let rel_of n l =
  let r = Rel.create n in
  List.iter (fun (i, j) -> Rel.add r i j) l;
  r

let prop_model =
  QCheck.Test.make
    ~name:"every operation matches a pairs-list model at n around word boundaries"
    ~count:240
    QCheck.(pair (int_bound (Array.length model_sizes - 1)) small_nat)
    (fun ks ->
      let { n; a; b; c; classes; src; dst; edge = u, v } = gen_case ks in
      let ra = rel_of n a and rb = rel_of n b and rc = rel_of n c in
      let is l r = Rel.to_list r = l && Rel.cardinal r = List.length l in
      let fail what = QCheck.Test.fail_reportf "n = %d: %s" n what in
      let check what ok = if not ok then fail what in
      let sa = set_of a and sb = set_of b in
      (* construction, membership, iteration order *)
      check "size" (Rel.size ra = n);
      check "to_list" (is a ra);
      check "of_pred"
        (Rel.equal ra (Rel.of_pred n (fun i j -> Hashtbl.mem sa (i, j))));
      check "mem"
        (List.for_all (fun p -> Rel.mem ra (fst p) (snd p) = Hashtbl.mem sa p) (a @ b));
      let seen = ref [] in
      Rel.iter ra (fun i j -> seen := (i, j) :: !seen);
      check "iter order" (List.rev !seen = a);
      check "fold" (Rel.fold ra (fun i j acc -> (i, j) :: acc) [] = List.rev a);
      check "pp"
        (Fmt.str "%a" Rel.pp ra
        = Fmt.str "{%a}" Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any "->") int int)) a);
      check "is_empty" (Rel.is_empty ra = (a = []));
      (* copies are independent *)
      let ca = Rel.copy ra in
      if n > 0 then Rel.add ca u v;
      check "copy" (n = 0 || (is a ra && is (norm ((u, v) :: a)) ca));
      check "equal" (Rel.equal ra (Rel.copy ra) && Rel.equal ra rb = (a = b));
      check "equal after add"
        (n = 0 || Rel.equal ra ca = Hashtbl.mem sa (u, v));
      (* set algebra *)
      check "union" (is (norm (a @ b)) (Rel.union ra rb));
      check "inter" (is (List.filter (Hashtbl.mem sb) a) (Rel.inter ra rb));
      check "union_many" (is (norm (a @ b @ c)) (Rel.union_many [ ra; rb; rc ]));
      let into = Rel.copy ra in
      let changed = Rel.union_into ~into rb in
      check "union_into" (is (norm (a @ b)) into && changed = (norm (a @ b) <> a));
      check "subset"
        (Rel.subset ra (Rel.union ra rb)
        && Rel.subset ra rb = List.for_all (Hashtbl.mem sb) a);
      check "converse" (is (norm (List.map (fun (i, j) -> (j, i)) a)) (Rel.converse ra));
      (* restriction: each predicate called once per position *)
      let calls = ref 0 in
      let counted f i = incr calls; f.(i) in
      let restricted = Rel.restrict ~src:(counted src) ~dst:(counted dst) ra in
      check "restrict"
        (is (List.filter (fun (i, j) -> src.(i) && dst.(j)) a) restricted
        && !calls = 2 * n);
      check "restrict dst only"
        (is (List.filter (fun (_, j) -> dst.(j)) a) (Rel.restrict ~dst:(fun j -> dst.(j)) ra));
      check "filter"
        (is (List.filter (fun (i, j) -> (i + j) mod 3 <> 0) a)
           (Rel.filter ra (fun i j -> (i + j) mod 3 <> 0)));
      (* composition and lifting *)
      check "compose" (is (model_compose n a b) (Rel.compose ra rb));
      check "compose3"
        (is (model_compose n (model_compose n a b) c) (Rel.compose3 ra rb rc));
      check "lift" (is (model_lift n classes a) (Rel.lift ~classes ra));
      (* closure and cycles *)
      let closed = model_closure n a in
      check "transitive_closure" (is closed (Rel.transitive_closure ra));
      let inplace = Rel.copy ra in
      Rel.transitive_closure_in_place inplace;
      check "transitive_closure_in_place" (is closed inplace);
      let refl l = List.exists (fun (i, j) -> i = j) l in
      check "has_reflexive" (Rel.has_reflexive ra = refl a && Rel.irreflexive ra = not (refl a));
      check "is_acyclic" (Rel.is_acyclic ra = not (refl closed));
      (* incremental closure on closed inputs *)
      if n > 0 then begin
        let r = Rel.transitive_closure ra in
        let fresh = Rel.add_edge_closed r u v in
        check "add_edge_closed"
          (is (model_closure n ((u, v) :: closed)) r
          && fresh = not (List.mem (u, v) closed))
      end;
      let r = Rel.transitive_closure ra in
      let changed = Rel.union_into_closed ~into:r rb in
      let expected = model_closure n (closed @ b) in
      check "union_into_closed" (is expected r && changed = (expected <> closed));
      true)

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
    Tb.qcheck prop_model;
  ]
