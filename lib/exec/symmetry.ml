(* Symmetry reduction for the enumerator: detect thread permutations
   that map the unfolded program onto itself (up to a bijective renaming
   of locations), group the thread-path combinations into orbits under
   the generated group, and enumerate only one representative per orbit.

   A permutation π of threads is an automorphism when, for every thread
   i and path index a, the a-th path of thread i and the a-th path of
   thread π(i) have positionally identical proto lists modulo one global
   location bijection σ (values must match exactly — reads-from and
   coherence depend on them).  Such a π lifts to an isomorphism of
   candidate execution graphs that preserves program order, reads-from,
   coherence and transaction structure, hence every consistency axiom:
   the candidates of the image combo are exactly the renamed candidates
   of the representative, with identical verdicts.  The enumerator
   therefore replays the representative's consistent selections onto the
   image combo (transporting the selection keys through π) instead of
   re-searching its candidate space.

   Registers never need unification: a path's register environment is
   pinned by its own protos (loads carry their values), and outcomes are
   rebuilt from the image combo's own paths. *)

(* -- automorphism search -------------------------------------------------- *)

(* shape of a path with locations abstracted away: candidate π must at
   least preserve shapes, which prunes the permutation search *)
let shape (p : Proto.path) =
  String.concat ";"
    (List.map
       (function
         | Proto.PWrite (_, v) -> "W" ^ string_of_int v
         | Proto.PRead (_, v) -> "R" ^ string_of_int v
         | Proto.PBegin -> "B"
         | Proto.PCommit -> "C"
         | Proto.PAbort -> "A"
         | Proto.PQfence _ -> "Q")
       p.protos)

let signature paths = String.concat "|" (List.map shape paths)

(* verify candidate π by unifying paths pointwise under one location
   bijection, built incrementally *)
let verify (tp : Proto.path array array) (pi : int array) =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  let unify_loc x y =
    match Hashtbl.find_opt fwd x with
    | Some y' -> String.equal y' y
    | None -> (
        match Hashtbl.find_opt bwd y with
        | Some _ -> false
        | None ->
            Hashtbl.add fwd x y;
            Hashtbl.add bwd y x;
            true)
  in
  let unify_proto a b =
    match (a, b) with
    | Proto.PWrite (x, v), Proto.PWrite (y, w) -> v = w && unify_loc x y
    | Proto.PRead (x, v), Proto.PRead (y, w) -> v = w && unify_loc x y
    | Proto.PBegin, Proto.PBegin
    | Proto.PCommit, Proto.PCommit
    | Proto.PAbort, Proto.PAbort ->
        true
    | Proto.PQfence x, Proto.PQfence y -> unify_loc x y
    | _ -> false
  in
  try
    Array.iteri
      (fun i paths ->
        let paths' = tp.(pi.(i)) in
        if Array.length paths <> Array.length paths' then raise Exit;
        Array.iteri
          (fun a (p : Proto.path) ->
            let q = paths'.(a) in
            if List.length p.protos <> List.length q.protos then raise Exit;
            List.iter2
              (fun pa pb -> if not (unify_proto pa pb) then raise Exit)
              p.protos q.protos)
          paths)
      tp;
    true
  with Exit -> false

let is_identity pi =
  let ok = ref true in
  Array.iteri (fun i p -> if p <> i then ok := false) pi;
  !ok

(* Non-identity automorphisms of the unfolded program.  The search
   enumerates signature-compatible permutations with backtracking; for
   pathologically many threads it bails out and reports none (symmetry
   reduction degrades to plain reduction, soundly). *)
let find (thread_paths : Proto.path list list) : int array list =
  let tp = Array.of_list (List.map Array.of_list thread_paths) in
  let t = Array.length tp in
  if t < 2 || t > 8 then []
  else begin
    let sigs = Array.map (fun ps -> signature (Array.to_list ps)) tp in
    let found = ref [] in
    let pi = Array.make t (-1) in
    let used = Array.make t false in
    let rec go i =
      if i = t then begin
        if (not (is_identity pi)) && verify tp pi then
          found := Array.copy pi :: !found
      end
      else
        for j = 0 to t - 1 do
          if (not used.(j)) && String.equal sigs.(i) sigs.(j) then begin
            pi.(i) <- j;
            used.(j) <- true;
            go (i + 1);
            used.(j) <- false;
            pi.(i) <- -1
          end
        done
    in
    go 0;
    List.rev !found
  end

(* -- orbits of combo indices under the generated group -------------------- *)

(* Combos are indexed in mixed radix over per-thread path choices,
   thread 0 most significant — the enumeration order of the product.
   Applying generator π to selection s yields s' with s'(π i) = s(i).
   Orbits come from union-find over the edges s → π·s, with each set's
   representative the smallest index (so representatives precede their
   images in enumeration order); alongside the representative we track
   the permutation that maps it to each member. *)

type t = {
  rep : int array; (* combo -> orbit representative (smallest index) *)
  perm : int array array; (* combo c = π applied to its representative *)
}

let compose p q = Array.init (Array.length p) (fun i -> p.(q.(i)))

let invert p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i pi -> inv.(pi) <- i) p;
  inv

let decode_with ~weights ~radices idx =
  Array.mapi (fun i w -> idx / w mod radices.(i)) weights

let encode_with ~weights sel =
  let acc = ref 0 in
  Array.iteri (fun i s -> acc := !acc + (s * weights.(i))) sel;
  !acc

(* beyond this many combos the orbit tables are not worth their memory;
   symmetry reduction is skipped (plain reduction still applies) *)
let orbit_limit = 200_000

let orbits ~(radices : int array) (autos : int array list) : t option =
  let t = Array.length radices in
  let total = Array.fold_left (fun acc r -> acc * r) 1 radices in
  if autos = [] || total <= 0 || total > orbit_limit then None
  else begin
    let weights = Array.make t 1 in
    for i = t - 2 downto 0 do
      weights.(i) <- weights.(i + 1) * radices.(i + 1)
    done;
    let identity = Array.init t Fun.id in
    let parent = Array.init total Fun.id in
    let pperm = Array.make total identity in
    (* find with path compression; x = pperm(x) applied to its root *)
    let rec find x =
      if parent.(x) = x then (x, pperm.(x))
      else begin
        let r, pr = find parent.(x) in
        let px = compose pperm.(x) pr in
        parent.(x) <- r;
        pperm.(x) <- px;
        (r, px)
      end
    in
    let union a b gen =
      (* b = gen applied to a *)
      let ra, pa = find a and rb, pb = find b in
      if ra <> rb then
        if ra < rb then begin
          parent.(rb) <- ra;
          pperm.(rb) <- compose (invert pb) (compose gen pa)
        end
        else begin
          parent.(ra) <- rb;
          pperm.(ra) <- compose (invert pa) (compose (invert gen) pb)
        end
    in
    let apply gen sel =
      let out = Array.make t 0 in
      Array.iteri (fun i s -> out.(gen.(i)) <- s) sel;
      out
    in
    for idx = 0 to total - 1 do
      let sel = decode_with ~weights ~radices idx in
      List.iter
        (fun gen ->
          let img = encode_with ~weights (apply gen sel) in
          union idx img gen)
        autos
    done;
    let rep = Array.make total 0 and perm = Array.make total identity in
    for idx = 0 to total - 1 do
      let r, p = find idx in
      rep.(idx) <- r;
      perm.(idx) <- p
    done;
    Some { rep; perm }
  end

let rep t idx = t.rep.(idx)
let perm t idx = t.perm.(idx)

(* -- transporting a selection from a representative to an image ----------- *)

let loc_of_write (combo : Combo.t) e =
  match combo.ev.(e).Combo.proto with
  | Proto.PWrite (x, _) -> x
  | _ -> assert false

(* Rename a representative combo's selection into the image combo's
   event indices: event (thread i, offset o) maps to (thread π i, o);
   location keys are re-read off the image's own events, so σ never
   needs materializing. *)
let map_selection ~(from : Combo.t) ~(to_ : Combo.t) (pi : int array)
    (sel : Combo.selection) : Combo.selection =
  let off_f = from.Combo.offsets and off_t = to_.Combo.offsets in
  let m e =
    if e < 0 then e
    else
      let th = from.ev.(e).Combo.thread in
      off_t.(pi.(th)) + (e - off_f.(th))
  in
  {
    rf_sel = List.map (fun (r, w) -> (m r, m w)) sel.rf_sel;
    ww_sel =
      List.map
        (fun (x, perm) ->
          let perm' = List.map m perm in
          let x' =
            match perm' with e :: _ -> loc_of_write to_ e | [] -> x
          in
          (x', perm'))
        sel.ww_sel;
    fence_sel =
      List.map (fun ((q, b), ch) -> ((m q, m b), ch)) sel.fence_sel;
  }
