(* Binary relations over trace positions 0..n-1, as bitset rows.
   Litmus-scale traces have n < 64, so a row is usually one word, but the
   implementation is general. *)

type t = { n : int; words : int; rows : int array array }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let create n =
  let words = (n + bits_per_word - 1) / bits_per_word in
  let words = max words 1 in
  { n; words; rows = Array.init n (fun _ -> Array.make words 0) }

let copy r = { r with rows = Array.map Array.copy r.rows }
let size r = r.n

let[@inline] mem_row row j = row.(j / bits_per_word) land (1 lsl (j mod bits_per_word)) <> 0

let[@inline] add_row row j =
  let w = j / bits_per_word in
  row.(w) <- row.(w) lor (1 lsl (j mod bits_per_word))

let mem r i j = mem_row r.rows.(i) j
let add r i j = add_row r.rows.(i) j

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
  { a with rows = Array.map2 (Array.map2 f) a.rows b.rows }

let union a b = map2 "union" ( lor ) a b
let inter a b = map2 "inter" ( land ) a b

let union_many = function
  | [] -> invalid_arg "Rel.union_many: empty"
  | r :: rs -> List.fold_left union r rs

let union_into ~into b =
  let changed = ref false in
  for i = 0 to into.n - 1 do
    for w = 0 to into.words - 1 do
      let v = into.rows.(i).(w) lor b.rows.(i).(w) in
      if v <> into.rows.(i).(w) then begin
        into.rows.(i).(w) <- v;
        changed := true
      end
    done
  done;
  !changed

let equal a b =
  a.n = b.n
  && Array.for_all2 (fun ra rb -> Array.for_all2 Int.equal ra rb) a.rows b.rows

let is_empty r =
  Array.for_all (fun row -> Array.for_all (fun w -> w = 0) row) r.rows

let or_row dst src =
  let changed = ref false in
  for w = 0 to Array.length src - 1 do
    let v = dst.(w) lor src.(w) in
    if v <> dst.(w) then begin
      dst.(w) <- v;
      changed := true
    end
  done;
  !changed

(* [iter_row row f] calls [f j] for each bit [j] set in [row], in
   increasing order; the cost follows the set bits, not [n]. *)
let iter_row row f =
  for w = 0 to Array.length row - 1 do
    let v = ref row.(w) and j = ref (w * bits_per_word) in
    while !v <> 0 do
      if !v land 1 <> 0 then f !j;
      v := !v lsr 1;
      incr j
    done
  done

(* the row holding the positions that satisfy [keep] *)
let row_of r keep =
  let row = Array.make r.words 0 in
  for j = 0 to r.n - 1 do
    if keep j then add_row row j
  done;
  row

(* In-place reflexive-free transitive closure (Warshall with bitset rows). *)
let transitive_closure_in_place r =
  for k = 0 to r.n - 1 do
    for i = 0 to r.n - 1 do
      if mem r i k then ignore (or_row r.rows.(i) r.rows.(k))
    done
  done

(* Incremental closure maintenance.  [r] must already be transitively
   closed; adding u->v creates exactly the paths i ~> u -> v ~> j, so the
   rows of u and of everything reaching u gain v's row plus the bit for v
   itself.  v's own row is snapshotted first: if v reaches u the update
   makes the relation cyclic through v, and the snapshot keeps the loop
   from reading its own partial writes.  O(n·w) per new edge, against
   O(n²·w + n³/w) for a from-scratch Warshall. *)
let add_edge_closed r u v =
  if mem r u v then false
  else begin
    let row_v = Array.copy r.rows.(v) in
    let wv = v / bits_per_word and bv = v mod bits_per_word in
    row_v.(wv) <- row_v.(wv) lor (1 lsl bv);
    for i = 0 to r.n - 1 do
      if i = u || mem r i u then ignore (or_row r.rows.(i) row_v)
    done;
    true
  end

(* Union a delta into a closed relation, restoring closure edge by edge.
   Returns [true] if anything was added. *)
let union_into_closed ~into delta =
  if into.n <> delta.n then invalid_arg "Rel.union_into_closed: size mismatch";
  let changed = ref false in
  for i = 0 to delta.n - 1 do
    for w = 0 to delta.words - 1 do
      let fresh = delta.rows.(i).(w) land lnot into.rows.(i).(w) in
      if fresh <> 0 then
        for b = 0 to bits_per_word - 1 do
          if fresh land (1 lsl b) <> 0 then
            if add_edge_closed into i ((w * bits_per_word) + b) then
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
  for i = 0 to a.n - 1 do
    iter_row a.rows.(i) (fun j -> ignore (or_row r.rows.(i) b.rows.(j)))
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
    iter_row r.rows.(i) (f i)
  done

let fold r f init =
  let acc = ref init in
  iter r (fun i j -> acc := f i j !acc);
  !acc

let to_list r = fold r (fun i j acc -> (i, j) :: acc) [] |> List.rev

let cardinal r = fold r (fun _ _ acc -> acc + 1) 0

let restrict ?(src = fun _ -> true) ?(dst = fun _ -> true) r =
  let mask = row_of r dst in
  {
    r with
    rows =
      Array.mapi
        (fun i row ->
          if src i then Array.map2 ( land ) row mask else Array.make r.words 0)
        r.rows;
  }

let converse r =
  let c = create r.n in
  iter r (fun i j -> add c j i);
  c

(* Lifting by an equivalence, one class at a time: a class reaches the
   union of its members' rows, widened to whole classes; every member
   gains that set minus its own class.  O(n·w) plus O(w) per set bit of
   the class rows, against O(n²) for a per-pair lift. *)
let lift ~classes r =
  if Array.length classes <> r.n then invalid_arg "Rel.lift: size mismatch";
  let members = Array.make r.n [||] in
  Array.iteri
    (fun i c ->
      if Array.length members.(c) = 0 then members.(c) <- Array.make r.words 0;
      add_row members.(c) i)
    classes;
  let out = copy r in
  Array.iter
    (fun m ->
      if Array.length m > 0 then begin
        let reach = Array.make r.words 0 in
        iter_row m (fun a -> ignore (or_row reach r.rows.(a)));
        let wide = Array.make r.words 0 in
        iter_row reach (fun b ->
            if not (mem_row wide b) then ignore (or_row wide members.(classes.(b))));
        Array.iteri (fun w v -> wide.(w) <- v land lnot m.(w)) wide;
        iter_row m (fun a -> ignore (or_row out.rows.(a) wide))
      end)
    members;
  out

let filter r keep_pair = of_pred r.n (fun i j -> mem r i j && keep_pair i j)

let subset a b =
  if a.n <> b.n then invalid_arg "Rel.subset: size mismatch";
  let ok = ref true in
  for i = 0 to a.n - 1 do
    for w = 0 to a.words - 1 do
      if a.rows.(i).(w) land lnot b.rows.(i).(w) <> 0 then ok := false
    done
  done;
  !ok

let pp ppf r =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any "->") int int))
    (to_list r)
