(* Exact rationals on native ints, used for the timestamps of S2.
   The paper takes timestamps in Q so that a write can always be inserted
   between two existing writes; [between] provides exactly that. *)

type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = sign * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

let compare a b =
  (* Safe at litmus scale: denominators stay tiny (they only ever double
     per coherence insertion), so the products do not overflow. *)
  Stdlib.compare (a.num * b.den) (b.num * a.den)

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let leq a b = compare a b <= 0

let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)

(* Strict midpoint: between a b is strictly between a and b when a < b. *)
let between a b =
  make ((a.num * b.den) + (b.num * a.den)) (2 * a.den * b.den)

let succ a = add a one
let pred a = sub a one

(* no formatter: this prints every timestamp of every cached event *)
let to_string a =
  if a.den = 1 then string_of_int a.num
  else string_of_int a.num ^ "/" ^ string_of_int a.den

let pp ppf a = Fmt.string ppf (to_string a)
