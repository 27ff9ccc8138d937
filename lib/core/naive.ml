(* A definition-faithful reference implementation of the model.

   Everything here is written by direct quantification over the trace,
   transcribing the paper's definitions as literally as possible — no
   bit-matrices, no precomputed lifting contexts, no fixpoint engineering.
   It is deliberately slow and deliberately independent of the optimized
   implementation in [Lift]/[Hb]/[Consistency]; the test suite checks the
   two agree on every execution the enumerator produces and on random
   traces.  A disagreement means one of the two transcriptions of the
   paper is wrong. *)

let positions t = List.init (Trace.length t) Fun.id

let pairs t =
  List.concat_map (fun i -> List.map (fun j -> (i, j)) (positions t)) (positions t)

(* -- base relations, straight from §2 ------------------------------------- *)

let index _ a b = a < b
let init t a b = Trace.is_init t a && not (Trace.is_init t b)
let po t a b = a < b && Trace.thread t a = Trace.thread t b

let ww t a b =
  match (Trace.act t a, Trace.act t b) with
  | Action.Write wa, Action.Write wb ->
      String.equal wa.loc wb.loc && Rat.lt wa.ts wb.ts
  | _ -> false

let wr t a b =
  match (Trace.act t a, Trace.act t b) with
  | Action.Write wa, Action.Read rb ->
      String.equal wa.loc rb.loc && wa.value = rb.value && Rat.equal wa.ts rb.ts
  | _ -> false

(* b rw c iff a wr b and a ww c for some a, and c is plain or nonaborted *)
let rw t b c =
  Trace.is_nonaborted t c
  && List.exists (fun a -> wr t a b && ww t a c) (positions t)

(* -- lifting --------------------------------------------------------------- *)

let tx_sim t a b = Trace.same_txn t a b

(* a lR b iff a R b, or a' R b' for some a' tx~ a !tx~ b tx~ b' *)
let lift t r a b =
  r a b
  || ((not (tx_sim t a b))
     && List.exists
          (fun a' ->
            tx_sim t a a'
            && List.exists (fun b' -> tx_sim t b b' && r a' b') (positions t))
          (positions t))

let lww t = lift t (ww t)
let lwr t = lift t (wr t)
let lrw t = lift t (rw t)

let x_of t r a b = r a b && Trace.is_transactional t a && Trace.is_transactional t b

let c_of t r a b =
  r a b && Trace.is_committed_or_live_txn t a && Trace.is_committed_or_live_txn t b

let xrw t = x_of t (lrw t)
let cww t = c_of t (lww t)
let cwr t = c_of t (lwr t)
let crw t = c_of t (lrw t)

(* -- happens-before, as a literal least fixed point ------------------------ *)

let hb (model : Model.t) t =
  let n = Trace.length t in
  let rel = Hashtbl.create 64 in
  let mem a b = Hashtbl.mem rel (a, b) in
  let add a b = if not (mem a b) then Hashtbl.replace rel (a, b) true in
  (* HBdef *)
  List.iter
    (fun (a, b) ->
      if init t a b || po t a b || cwr t a b || cww t a b then add a b)
    (pairs t);
  (* fence rules (§5) *)
  if model.quiescence then
    List.iter
      (fun (a, c) ->
        (match (Trace.act t a, Trace.act t c) with
        | Action.Commit, Action.Qfence x ->
            let b = Trace.txn_of t a in
            if b >= 0 && a < c && Trace.txn_touches t b x then add a c
        | _ -> ());
        match (Trace.act t a, Trace.act t c) with
        | Action.Qfence x, Action.Begin ->
            if a < c && Trace.txn_touches t c x then add a c
        | _ -> ())
      (pairs t);
  (* close under HBtrans and the enabled HB rules until nothing changes *)
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if mem a b then
          for c = 0 to n - 1 do
            if mem b c && not (mem a c) then begin
              add a c;
              changed := true
            end
          done
      done
    done;
    let unprimed enabled lxx =
      if enabled then
        List.iter
          (fun (a, c) ->
            if
              (not (mem a c))
              && Trace.is_plain t c && lxx a c
              && List.exists (fun b -> crw t a b && mem b c) (positions t)
            then begin
              add a c;
              changed := true
            end)
          (pairs t)
    in
    let primed enabled lxx =
      if enabled then
        List.iter
          (fun (a, c) ->
            if
              (not (mem a c))
              && Trace.is_plain t a && lxx a c
              && List.exists (fun b -> mem a b && crw t b c) (positions t)
            then begin
              add a c;
              changed := true
            end)
          (pairs t)
    in
    unprimed model.hb_ww (lww t);
    unprimed model.hb_wr (lwr t);
    unprimed model.hb_rw (lrw t);
    primed model.hb_ww' (lww t);
    primed model.hb_wr' (lwr t);
    primed model.hb_rw' (lrw t)
  done;
  mem

(* -- consistency ------------------------------------------------------------ *)

let acyclic n r =
  (* brute-force: repeated DFS *)
  let rec visit path v =
    if List.mem v path then false
    else
      List.for_all
        (fun w -> if r v w then visit (v :: path) w else true)
        (List.init n Fun.id)
  in
  List.for_all (fun v -> visit [] v) (List.init n Fun.id)

let irreflexive_comp n r s =
  not
    (List.exists
       (fun a -> List.exists (fun b -> r a b && s b a) (List.init n Fun.id))
       (List.init n Fun.id))

let irreflexive_comp3 n r s u =
  not
    (List.exists
       (fun a ->
         List.exists
           (fun b ->
             r a b
             && List.exists (fun c -> s b c && u c a) (List.init n Fun.id))
           (List.init n Fun.id))
       (List.init n Fun.id))

let consistent_axioms (model : Model.t) t =
  let n = Trace.length t in
  let hb = hb model t in
  let lww = lww t and lwr = lwr t and lrw = lrw t in
  let xrw = xrw t and crw = crw t in
  let causality_edge a b = hb a b || lwr a b || xrw a b in
  acyclic n causality_edge
  && irreflexive_comp n hb lww
  && irreflexive_comp n hb lrw
  && ((not model.anti_ww) || irreflexive_comp3 n crw hb lww)
  && ((not model.anti_rw) || irreflexive_comp3 n crw hb lrw)
  && ((not model.anti_ww') || irreflexive_comp3 n hb crw lww)
  && ((not model.anti_rw') || irreflexive_comp3 n hb crw lrw)

let consistent model t = Wellformed.is_well_formed t && consistent_axioms model t
