(* Happens-before (§2, §5).

   hb is the least relation closed under
     HBdef    a hb c  if  a (init ∪ po ∪ cwr ∪ cww) c
     HBtrans  a hb c  if  a hb b hb c
   plus the model's optional rules:
     HBww     a hb c  if  c plain, a lww c, a (crw ; hb) c
     HBwr/HBrw  likewise with lwr / lrw
     HB'ww    a hb c  if  a plain, a lww c, a (hb ; crw) c
     HB'wr/HB'rw likewise
   and, when the model has quiescence fences (§5):
     HBCQ     <Cb> hb <Qx>  if the commit precedes the fence in the trace
              and transaction b touches x
     HBQB     <Qx> hb <B b> if the fence precedes the begin in the trace
              and transaction b touches x. *)

let quiescence_edges (ctx : Lift.ctx) =
  let t = ctx.trace in
  let n = Trace.length t in
  let r = Rel.create n in
  for c = 0 to n - 1 do
    match Trace.act t c with
    | Action.Qfence x ->
        for i = 0 to n - 1 do
          match Trace.act t i with
          | Action.Commit ->
              let b = Trace.txn_of t i in
              if b >= 0 && i < c && Trace.txn_touches t b x then Rel.add r i c
          | Action.Begin ->
              if c < i && Trace.txn_touches t i x then Rel.add r c i
          | _ -> ()
        done
    | _ -> ()
  done;
  r

let base_rel (model : Model.t) (ctx : Lift.ctx) =
  let base = Rel.union_many [ ctx.init_; ctx.po; ctx.cwr; ctx.cww ] in
  if model.quiescence then Rel.union base (quiescence_edges ctx) else base

(* The model's rules as two candidate relations, fixed before the
   fixpoint: HBww/HBwr/HBrw can only add a lXX c with c plain, and the
   primed rules only with a plain.  A round then adds
     unprimed ∩ (crw ; hb)   and   primed ∩ (hb ; crw)
   as row intersections; [add] merges them into [hb] and says whether
   anything was new.  An empty candidate set skips its composition. *)
let rule_round (model : Model.t) ~plain ~crw ~lww ~lwr ~lrw ~add =
  let candidates keep rules =
    let c = Rel.create (Rel.size crw) in
    List.iter (fun (on, r) -> if on then ignore (Rel.union_into ~into:c r)) rules;
    keep c
  in
  let unprimed =
    candidates (Rel.restrict ~dst:plain)
      [ (model.hb_ww, lww); (model.hb_wr, lwr); (model.hb_rw, lrw) ]
  and primed =
    candidates (Rel.restrict ~src:plain)
      [ (model.hb_ww', lww); (model.hb_wr', lwr); (model.hb_rw', lrw) ]
  in
  fun hb ->
    let u =
      (not (Rel.is_empty unprimed))
      && add hb (Rel.inter unprimed (Rel.compose crw hb))
    in
    let p =
      (not (Rel.is_empty primed)) && add hb (Rel.inter primed (Rel.compose hb crw))
    in
    u || p

(* The fixpoint keeps [hb] transitively closed as an invariant: the base
   is closed once, and every rule-derived edge extends the closure
   incrementally ([Rel.union_into_closed]) rather than re-running
   Warshall per round.  The enumerator calls this once per candidate
   execution, so the per-round closure was the hot spot.

   [compute_from] runs the rule fixpoint over bare relations, without a
   trace: the reduced enumerator evaluates candidates as execution
   graphs before any linearization exists, so it supplies the plainness
   predicate and the lifted relations directly.  [hb] must be
   transitively closed on entry and is extended in place. *)
let compute_from (model : Model.t) ~plain ~crw ~lww ~lwr ~lrw hb =
  let round =
    rule_round model ~plain ~crw ~lww ~lwr ~lrw ~add:(fun hb d ->
        Rel.union_into_closed ~into:hb d)
  in
  while round hb do
    ()
  done;
  hb

let compute (model : Model.t) (ctx : Lift.ctx) =
  let hb = base_rel model ctx in
  Rel.transitive_closure_in_place hb;
  compute_from model
    ~plain:(Trace.is_plain ctx.trace)
    ~crw:ctx.crw ~lww:ctx.lww ~lwr:ctx.lwr ~lrw:ctx.lrw hb

(* The pre-cache implementation: re-close from scratch every round.
   Kept as an oracle for the incremental closure; the test suite asserts
   it agrees with [compute] (and both with [Naive.hb]) on enumerated
   executions and random traces. *)
let compute_reference (model : Model.t) (ctx : Lift.ctx) =
  let round =
    rule_round model
      ~plain:(Trace.is_plain ctx.trace)
      ~crw:ctx.crw ~lww:ctx.lww ~lwr:ctx.lwr ~lrw:ctx.lrw
      ~add:(fun hb d -> Rel.union_into ~into:hb d)
  in
  let hb = base_rel model ctx in
  Rel.transitive_closure_in_place hb;
  while round hb do
    Rel.transitive_closure_in_place hb
  done;
  hb
