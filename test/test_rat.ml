open Tmx_core

let check_rat = Alcotest.testable Rat.pp Rat.equal

let test_normalization () =
  Alcotest.(check check_rat) "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.(check check_rat) "-1/-2 = 1/2" (Rat.make 1 2) (Rat.make (-1) (-2));
  Alcotest.(check check_rat) "2/-4 = -1/2" (Rat.make (-1) 2) (Rat.make 2 (-4));
  Alcotest.(check check_rat) "0/7 = 0" Rat.zero (Rat.make 0 7)

let test_zero_denominator () =
  Alcotest.check_raises "zero denominator" (Invalid_argument "Rat.make: zero denominator")
    (fun () -> ignore (Rat.make 1 0))

let test_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true (Rat.lt (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check bool) "not 2/3 < 1/2" false (Rat.lt (Rat.make 2 3) (Rat.make 1 2));
  Alcotest.(check bool) "-1 < 0" true (Rat.lt (Rat.of_int (-1)) Rat.zero);
  Alcotest.(check bool) "leq equal" true (Rat.leq Rat.one Rat.one)

let test_arith () =
  Alcotest.(check check_rat) "1/2 + 1/3 = 5/6" (Rat.make 5 6)
    (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.(check check_rat) "1/2 - 1/3 = 1/6" (Rat.make 1 6)
    (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.(check check_rat) "succ 1/2 = 3/2" (Rat.make 3 2) (Rat.succ (Rat.make 1 2));
  Alcotest.(check check_rat) "pred 1/2 = -1/2" (Rat.make (-1) 2) (Rat.pred (Rat.make 1 2))

let test_between () =
  let m = Rat.between Rat.zero Rat.one in
  Alcotest.(check check_rat) "midpoint 0 1 = 1/2" (Rat.make 1 2) m;
  Alcotest.(check bool) "0 < mid" true (Rat.lt Rat.zero m);
  Alcotest.(check bool) "mid < 1" true (Rat.lt m Rat.one)

let test_pp () =
  Alcotest.(check string) "int prints bare" "3" (Rat.to_string (Rat.of_int 3));
  Alcotest.(check string) "fraction" "3/2" (Rat.to_string (Rat.make 3 2));
  Alcotest.(check string) "negative fraction" "-3/2" (Rat.to_string (Rat.make 3 (-2)));
  Alcotest.(check string) "pp prints to_string" "-3/2" (Fmt.str "%a" Rat.pp (Rat.make (-3) 2))

let small_rat =
  QCheck.map
    (fun (n, d) -> Rat.make n (1 + abs d))
    QCheck.(pair (int_range (-50) 50) (int_range 0 20))

let prop_between_strict =
  QCheck.Test.make ~name:"between lies strictly between" ~count:500
    (QCheck.pair small_rat small_rat) (fun (a, b) ->
      QCheck.assume (Rat.lt a b);
      let m = Rat.between a b in
      Rat.lt a m && Rat.lt m b)

let prop_add_comm =
  QCheck.Test.make ~name:"addition commutes" ~count:500
    (QCheck.pair small_rat small_rat) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_compare_total =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    (QCheck.pair small_rat small_rat) (fun (a, b) ->
      Rat.compare a b = -Rat.compare b a)

let prop_roundtrip =
  QCheck.Test.make ~name:"sub then add roundtrips" ~count:500
    (QCheck.pair small_rat small_rat) (fun (a, b) ->
      Rat.equal a (Rat.add (Rat.sub a b) b))

let suite =
  [
    Alcotest.test_case "normalization" `Quick test_normalization;
    Alcotest.test_case "zero denominator" `Quick test_zero_denominator;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "between" `Quick test_between;
    Alcotest.test_case "printing" `Quick test_pp;
    Tb.qcheck prop_between_strict;
    Tb.qcheck prop_add_comm;
    Tb.qcheck prop_compare_total;
    Tb.qcheck prop_roundtrip;
  ]
