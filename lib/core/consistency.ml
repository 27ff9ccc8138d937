(* Consistency of executions (§2 "Consistency", §2.3 variants, §5).

   An execution is consistent iff it is well-formed and
     Causality     (hb ∪ lwr ∪ xrw) acyclic
     Coherence     (hb ; lww) irreflexive
     Observation   (hb ; lrw) irreflexive
   plus the model's antidependency axioms:
     AntiWW        (crw ; hb ; lww) irreflexive
     AntiRW        (crw ; hb ; lrw) irreflexive
     Anti'WW       (hb ; crw ; lww) irreflexive
     Anti'RW       (hb ; crw ; lrw) irreflexive *)

type report = {
  well_formed : bool;
  causality : bool;
  coherence : bool;
  observation : bool;
  anti_ww : bool;
  anti_rw : bool;
  anti_ww' : bool;
  anti_rw' : bool;
}

let ok r =
  r.well_formed && r.causality && r.coherence && r.observation && r.anti_ww
  && r.anti_rw && r.anti_ww' && r.anti_rw'

let pp_report ppf r =
  let flag name b = if b then None else Some name in
  let failures =
    List.filter_map Fun.id
      [
        flag "wf" r.well_formed;
        flag "causality" r.causality;
        flag "coherence" r.coherence;
        flag "observation" r.observation;
        flag "anti-ww" r.anti_ww;
        flag "anti-rw" r.anti_rw;
        flag "anti-ww'" r.anti_ww';
        flag "anti-rw'" r.anti_rw';
      ]
  in
  if failures = [] then Fmt.string ppf "consistent"
  else Fmt.pf ppf "inconsistent: %a" Fmt.(list ~sep:comma string) failures

(* Axioms over bare relations: no trace, no lifting context.  The
   reduced enumerator judges candidate execution graphs before any
   linearization exists, so it hands the lifted relations over
   directly. *)
let check_axioms_rels (model : Model.t) ~hb ~lwr ~xrw ~crw ~lww ~lrw =
  {
    well_formed = true;
    causality = Rel.is_acyclic (Rel.union_many [ hb; lwr; xrw ]);
    coherence = Rel.irreflexive (Rel.compose hb lww);
    observation = Rel.irreflexive (Rel.compose hb lrw);
    anti_ww =
      (not model.anti_ww) || Rel.irreflexive (Rel.compose3 crw hb lww);
    anti_rw =
      (not model.anti_rw) || Rel.irreflexive (Rel.compose3 crw hb lrw);
    anti_ww' =
      (not model.anti_ww') || Rel.irreflexive (Rel.compose3 hb crw lww);
    anti_rw' =
      (not model.anti_rw') || Rel.irreflexive (Rel.compose3 hb crw lrw);
  }

(* Axioms only, on a precomputed context and hb (well-formedness assumed
   or checked separately). *)
let check_axioms (model : Model.t) (ctx : Lift.ctx) hb =
  check_axioms_rels model ~hb ~lwr:ctx.lwr ~xrw:ctx.xrw ~crw:ctx.crw
    ~lww:ctx.lww ~lrw:ctx.lrw

let check model t =
  let ctx = Lift.make t in
  let hb = Hb.compute model ctx in
  let r = check_axioms model ctx hb in
  { r with well_formed = Wellformed.is_well_formed t }

let consistent model t = ok (check model t)

(* Axiom check that skips well-formedness; used by the enumerator, which
   guarantees well-formedness by construction plus a final scan. *)
let consistent_axioms model ctx hb = ok (check_axioms model ctx hb)
