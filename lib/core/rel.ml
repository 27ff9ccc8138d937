(* Binary relations over trace positions 0..n-1, as bitset rows in one
   flat array: row i is words [i·w .. i·w + w - 1].  Litmus-scale traces
   have n < 64, so a row is usually one word, but the implementation is
   general.  One block per relation means a copy, a union or a compose
   allocates once, not once per row. *)

type t = { n : int; w : int; a : int array }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let create n =
  let w = max 1 ((n + bits_per_word - 1) / bits_per_word) in
  { n; w; a = Array.make (n * w) 0 }

let copy r = { r with a = Array.copy r.a }
let size r = r.n

(* A row is an offset into an array of words: [off] is [i·w] for row i
   of a relation, 0 for a one-row scratch array. *)
let[@inline] mem_at a off j =
  a.(off + (j / bits_per_word)) land (1 lsl (j mod bits_per_word)) <> 0

let[@inline] set_at a off j =
  let k = off + (j / bits_per_word) in
  a.(k) <- a.(k) lor (1 lsl (j mod bits_per_word))

let mem r i j = mem_at r.a (i * r.w) j
let add r i j = set_at r.a (i * r.w) j

let of_pred n f =
  let r = create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if f i j then add r i j
    done
  done;
  r

let map2 name f a b =
  if a.n <> b.n then invalid_arg ("Rel." ^ name ^ ": size mismatch");
  { a with a = Array.map2 f a.a b.a }

let union a b = map2 "union" ( lor ) a b
let inter a b = map2 "inter" ( land ) a b

let union_many = function
  | [] -> invalid_arg "Rel.union_many: empty"
  | r :: rs -> List.fold_left union r rs

(* [or_into dst doff src soff w] ors [w] words of [src] into [dst];
   true if any bit was new *)
let or_into dst doff src soff w =
  let changed = ref false in
  for k = 0 to w - 1 do
    let d = dst.(doff + k) in
    let v = d lor src.(soff + k) in
    if v <> d then begin
      dst.(doff + k) <- v;
      changed := true
    end
  done;
  !changed

let union_into ~into b =
  if into.n <> b.n then invalid_arg "Rel.union_into: size mismatch";
  or_into into.a 0 b.a 0 (Array.length into.a)

let equal a b = a.n = b.n && Array.for_all2 Int.equal a.a b.a
let is_empty r = Array.for_all (fun v -> v = 0) r.a

(* [iter_at a off w f] calls [f j] for each bit [j] set in the [w]-word
   row at [off], in increasing order; the cost follows the set bits,
   not [n]. *)
let iter_at a off w f =
  for k = 0 to w - 1 do
    let v = ref a.(off + k) and j = ref (k * bits_per_word) in
    while !v <> 0 do
      if !v land 1 <> 0 then f !j;
      v := !v lsr 1;
      incr j
    done
  done

(* In-place reflexive-free transitive closure (Warshall with bitset rows). *)
let transitive_closure_in_place r =
  let w = r.w in
  for k = 0 to r.n - 1 do
    for i = 0 to r.n - 1 do
      if mem r i k then ignore (or_into r.a (i * w) r.a (k * w) w)
    done
  done

(* Incremental closure maintenance.  [r] must already be transitively
   closed; adding u->v creates exactly the paths i ~> u -> v ~> j, so the
   rows of u and of everything reaching u gain v's row plus the bit for v
   itself.  v's row is read in place: when v reaches u it is among the
   updated rows, but its update adds only v, which every updated row
   gains anyway, so rows updated before and after it get the same set.
   O(n·w) per new edge, with no allocation, against O(n²·w + n³/w) for a
   from-scratch Warshall. *)
let add_edge_closed r u v =
  if mem r u v then false
  else begin
    let w = r.w in
    for i = 0 to r.n - 1 do
      if i = u || mem r i u then begin
        ignore (or_into r.a (i * w) r.a (v * w) w);
        add r i v
      end
    done;
    true
  end

(* Union a delta into a closed relation, restoring closure edge by edge.
   Returns [true] if anything was added. *)
let union_into_closed ~into delta =
  if into.n <> delta.n then invalid_arg "Rel.union_into_closed: size mismatch";
  let w = delta.w in
  let changed = ref false in
  for i = 0 to delta.n - 1 do
    for k = 0 to w - 1 do
      let fresh = delta.a.((i * w) + k) land lnot into.a.((i * w) + k) in
      if fresh <> 0 then
        for b = 0 to bits_per_word - 1 do
          if fresh land (1 lsl b) <> 0 then
            if add_edge_closed into i ((k * bits_per_word) + b) then
              changed := true
        done
    done
  done;
  !changed

let transitive_closure r =
  let c = copy r in
  transitive_closure_in_place c;
  c

let compose a b =
  if a.n <> b.n then invalid_arg "Rel.compose: size mismatch";
  let r = create a.n in
  let w = a.w in
  for i = 0 to a.n - 1 do
    iter_at a.a (i * w) w (fun j -> ignore (or_into r.a (i * w) b.a (j * w) w))
  done;
  r

let compose3 a b c = compose (compose a b) c

let has_reflexive r =
  let rec go i = i < r.n && (mem r i i || go (i + 1)) in
  go 0

let irreflexive r = not (has_reflexive r)

let is_acyclic r =
  let c = transitive_closure r in
  irreflexive c

let iter r f =
  for i = 0 to r.n - 1 do
    iter_at r.a (i * r.w) r.w (f i)
  done

let fold r f init =
  let acc = ref init in
  iter r (fun i j -> acc := f i j !acc);
  !acc

let to_list r = fold r (fun i j acc -> (i, j) :: acc) [] |> List.rev

let cardinal r =
  let count = ref 0 in
  Array.iter
    (fun v ->
      let v = ref v in
      while !v <> 0 do
        v := !v land (!v - 1);
        incr count
      done)
    r.a;
  !count

let restrict ?(src = fun _ -> true) ?(dst = fun _ -> true) r =
  let w = r.w in
  let mask = Array.make w 0 in
  for j = 0 to r.n - 1 do
    if dst j then set_at mask 0 j
  done;
  let out = create r.n in
  for i = 0 to r.n - 1 do
    if src i then
      for k = 0 to w - 1 do
        out.a.((i * w) + k) <- r.a.((i * w) + k) land mask.(k)
      done
  done;
  out

let converse r =
  let c = create r.n in
  iter r (fun i j -> add c j i);
  c

(* Lifting by an equivalence, one class at a time: a class reaches the
   union of its members' rows, widened to whole classes; every member
   gains that set minus its own class.  Row c of [members] holds class
   c's members (empty unless c names a class).  O(n·w) plus O(w) per set
   bit of the class rows, against O(n²) for a per-pair lift. *)
let lift ~classes r =
  let n = r.n and w = r.w in
  if Array.length classes <> n then invalid_arg "Rel.lift: size mismatch";
  let members = Array.make (n * w) 0 in
  Array.iteri (fun i c -> set_at members (c * w) i) classes;
  let out = copy r in
  let reach = Array.make w 0 and wide = Array.make w 0 in
  for c = 0 to n - 1 do
    let m = c * w in
    let nonempty = ref false in
    for k = 0 to w - 1 do
      if members.(m + k) <> 0 then nonempty := true
    done;
    if !nonempty then begin
      Array.fill reach 0 w 0;
      iter_at members m w (fun a -> ignore (or_into reach 0 r.a (a * w) w));
      Array.fill wide 0 w 0;
      iter_at reach 0 w (fun b ->
          if not (mem_at wide 0 b) then
            ignore (or_into wide 0 members (classes.(b) * w) w));
      for k = 0 to w - 1 do
        wide.(k) <- wide.(k) land lnot members.(m + k)
      done;
      iter_at members m w (fun a -> ignore (or_into out.a (a * w) wide 0 w))
    end
  done;
  out

let filter r keep_pair = of_pred r.n (fun i j -> mem r i j && keep_pair i j)

let subset a b =
  if a.n <> b.n then invalid_arg "Rel.subset: size mismatch";
  let ok = ref true in
  Array.iteri (fun k v -> if v land lnot b.a.(k) <> 0 then ok := false) a.a;
  !ok

let pp ppf r =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any "->") int int))
    (to_list r)
