(* The suborders of §5 / appendix C, and the hbe decomposition of
   happens-before in the implementation model (Lemma C.1).

   The suborders range over non-boundary actions (Act \ TAct):
     po-T    a po b, a !tx~ b, b transactional, b's txn writes
     poT-    a po b, a !tx~ b, a transactional
     poTT    poT- ∩ po-T
     poRW    a po b, a read, b write
     poCon   a po b, a and b conflict
     swe     (cwr ∪ cww) \ po
     hbe     (po-T)? ; (swe ; poTT)* ; swe ; (poT-)?

   The paper writes hbe = po-T ; (swe;poTT)* ; swe ; poT-; we take the
   pre/post program-order steps as optional, which is forced by the
   claimed inclusion cwr ⊆ hbe ∪ po in the proof of Lemma C.1 (a bare
   external cwr edge has no surrounding po steps). *)

let boundary t i =
  match Trace.act t i with
  | Action.Begin | Action.Commit | Action.Abort -> true
  | _ -> false

let nonboundary_po (ctx : Lift.ctx) =
  let t = ctx.trace in
  Rel.filter ctx.po (fun a b -> (not (boundary t a)) && not (boundary t b))

let txn_writes t i =
  let b = Trace.txn_of t i in
  b >= 0
  && List.exists (fun m -> Action.is_write (Trace.act t m)) (Trace.txn_members t b)

let po_to_t (ctx : Lift.ctx) =
  let t = ctx.trace in
  Rel.filter (nonboundary_po ctx) (fun a b ->
      (not (Trace.same_txn t a b)) && Trace.is_transactional t b && txn_writes t b)

let po_t_from (ctx : Lift.ctx) =
  let t = ctx.trace in
  Rel.filter (nonboundary_po ctx) (fun a b ->
      (not (Trace.same_txn t a b)) && Trace.is_transactional t a)

let po_tt ctx = Rel.filter (po_to_t ctx) (fun a b -> Rel.mem (po_t_from ctx) a b)

let po_rw (ctx : Lift.ctx) =
  let t = ctx.trace in
  Rel.filter (nonboundary_po ctx) (fun a b ->
      Action.is_read (Trace.act t a) && Action.is_write (Trace.act t b))

let conflicts t a b =
  match (Action.loc_of (Trace.act t a), Action.loc_of (Trace.act t b)) with
  | Some x, Some y ->
      String.equal x y
      && (Action.is_write (Trace.act t a) || Action.is_write (Trace.act t b))
  | _ -> false

let po_con (ctx : Lift.ctx) =
  let t = ctx.trace in
  Rel.filter (nonboundary_po ctx) (fun a b -> conflicts t a b)

let swe (ctx : Lift.ctx) =
  Rel.filter (Rel.union ctx.cwr ctx.cww) (fun a b -> not (Rel.mem ctx.po a b))

(* R? ; S for an optional pre-step. *)
let opt_pre r s = Rel.union s (Rel.compose r s)
let opt_post s r = Rel.union s (Rel.compose s r)

let hbe (ctx : Lift.ctx) =
  let swe = swe ctx in
  let ptt = po_tt ctx in
  let step = Rel.compose swe ptt in
  let step_plus = Rel.transitive_closure step in
  (* (swe;poTT)* ; swe = swe ∪ (swe;poTT)+ ; swe *)
  let middle = Rel.union swe (Rel.compose step_plus swe) in
  opt_pre (po_to_t ctx) (opt_post middle (po_t_from ctx))

(* Lemma C.1: in the implementation model (restricted to non-boundary
   events, and for traces without explicit fences),
   hb = init ∪ hbe ∪ po. *)
let lemma_c1_holds (ctx : Lift.ctx) hb =
  let t = ctx.trace in
  let decomp = Rel.union_many [ ctx.init_; hbe ctx; ctx.po ] in
  let nb i = not (boundary t i) in
  Rel.equal (Rel.restrict ~src:nb ~dst:nb hb) (Rel.restrict ~src:nb ~dst:nb decomp)

(* wre and xrwe: the external portions of lwr and xrw (appendix C). *)
let wre (ctx : Lift.ctx) =
  Rel.filter ctx.lwr (fun a b -> not (Rel.mem ctx.po a b))

let xrwe (ctx : Lift.ctx) =
  Rel.filter ctx.xrw (fun a b -> not (Rel.mem ctx.po a b))

(* Lemma C.2: the alternative characterization of consistency in the
   implementation model. *)
let lemma_c2_consistent (ctx : Lift.ctx) =
  let hbe = hbe ctx in
  let acyclic =
    Rel.is_acyclic
      (Rel.union_many
         [ hbe; po_t_from ctx; po_to_t ctx; po_rw ctx; wre ctx; xrwe ctx ])
  in
  let sync = Rel.union_many [ ctx.init_; hbe; po_con ctx ] in
  acyclic
  && Rel.irreflexive (Rel.compose sync ctx.lww)
  && Rel.irreflexive (Rel.compose sync ctx.lrw)
