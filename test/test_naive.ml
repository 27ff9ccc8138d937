(* Oracle testing: the optimized implementation (bit-matrix relations,
   shared lifting context, engineered fixpoint) against the naive
   definition-faithful transcription of the paper. *)

open Tmx_core
open Tmx_exec

let models = [ Model.programmer; Model.implementation; Model.strongest; Model.bare ]

(* Every relation of the lifting context, with its definition.  Naive
   has no xww/xwr: their reference is lww/lwr with transactional ends. *)
let relations t =
  let ctx = Lift.make t in
  let x r a b = r a b && Trace.is_transactional t a && Trace.is_transactional t b in
  [
    ("index", ctx.Lift.index_, Naive.index t);
    ("init", ctx.Lift.init_, Naive.init t);
    ("po", ctx.Lift.po, Naive.po t);
    ("ww", ctx.Lift.ww, Naive.ww t);
    ("wr", ctx.Lift.wr, Naive.wr t);
    ("rw", ctx.Lift.rw, Naive.rw t);
    ("lww", ctx.Lift.lww, Naive.lww t);
    ("lwr", ctx.Lift.lwr, Naive.lwr t);
    ("lrw", ctx.Lift.lrw, Naive.lrw t);
    ("xww", ctx.Lift.xww, x (Naive.lww t));
    ("xwr", ctx.Lift.xwr, x (Naive.lwr t));
    ("xrw", ctx.Lift.xrw, Naive.xrw t);
    ("cww", ctx.Lift.cww, Naive.cww t);
    ("cwr", ctx.Lift.cwr, Naive.cwr t);
    ("crw", ctx.Lift.crw, Naive.crw t);
  ]

(* the first relation and pair where the context and Naive disagree *)
let relation_disagreement t =
  let n = Trace.length t in
  List.find_map
    (fun (rel_name, fast, naive) ->
      List.find_map
        (fun (i, j) ->
          if Rel.mem fast i j <> naive i j then Some (rel_name, i, j) else None)
        (List.concat_map (fun i -> List.init n (fun j -> (i, j))) (List.init n Fun.id)))
    (relations t)

let check_relations name t =
  match relation_disagreement t with
  | None -> ()
  | Some (rel_name, i, j) ->
      Alcotest.failf "%s: %s disagrees at (%d, %d)" name rel_name i j

let check_hb name t =
  List.iter
    (fun model ->
      let ctx = Lift.make t in
      let fast = Hb.compute model ctx in
      let naive = Naive.hb model t in
      for i = 0 to Trace.length t - 1 do
        for j = 0 to Trace.length t - 1 do
          if Rel.mem fast i j <> naive i j then
            Alcotest.failf "%s: hb under %s disagrees at (%d, %d)" name
              model.Model.name i j
        done
      done)
    models

let check_consistency name t =
  List.iter
    (fun model ->
      let fast =
        let ctx = Lift.make t in
        Consistency.consistent_axioms model ctx (Hb.compute model ctx)
      in
      let naive = Naive.consistent_axioms model t in
      if fast <> naive then
        Alcotest.failf "%s: consistency under %s disagrees (fast=%b)" name
          model.Model.name fast)
    models

let catalog_traces () =
  List.concat_map
    (fun name ->
      let p = (Option.get (Tmx_litmus.Catalog.find name)).Tmx_litmus.Litmus.program in
      List.map
        (fun (e : Enumerate.execution) -> (name, e.trace))
        (Enumerate.run Model.implementation p).executions)
    [ "privatization"; "aborted_pub"; "ex2_2"; "ex3_1"; "sb";
      "privatization_fence"; "d1_opaque_writes" ]

let test_on_catalog () =
  List.iter
    (fun (name, t) ->
      check_relations name t;
      check_hb name t;
      check_consistency name t)
    (catalog_traces ())

(* random raw traces: mostly ill-formed, which is the point — the two
   implementations must agree on the axioms for arbitrary traces *)
let gen_trace =
  let open QCheck.Gen in
  let gen_event =
    frequency
      [
        ( 4,
          map3
            (fun th loc (v, ts) -> Tb.w th loc v ts)
            (int_range 0 1)
            (oneofl [ "x"; "y" ])
            (pair (int_range 0 2) (int_range 1 3)) );
        ( 3,
          map3
            (fun th loc (v, ts) -> Tb.r th loc v ts)
            (int_range 0 1)
            (oneofl [ "x"; "y" ])
            (pair (int_range 0 2) (int_range 0 3)) );
        (1, map Tb.b (int_range 0 1));
        (1, map Tb.c (int_range 0 1));
        (1, map Tb.a (int_range 0 1));
        (1, map (fun th -> Tb.q th "x") (int_range 0 1));
      ]
  in
  map
    (fun events -> Trace.make ~locs:[ "x"; "y" ] events)
    (list_size (int_range 2 7) gen_event)

let arb_trace = QCheck.make ~print:(Fmt.str "%a" Trace.pp) gen_trace

let prop_random_traces =
  QCheck.Test.make ~name:"fast = naive on random traces" ~count:150 arb_trace
    (fun t ->
      List.for_all
        (fun model ->
          let fast =
            let ctx = Lift.make t in
            Consistency.consistent_axioms model ctx (Hb.compute model ctx)
          in
          fast = Naive.consistent_axioms model t)
        models)

let prop_random_relations =
  QCheck.Test.make ~name:"every lifted relation = naive on random traces"
    ~count:150 arb_trace (fun t -> relation_disagreement t = None)

let prop_random_hb =
  QCheck.Test.make ~name:"fast hb = naive hb on random traces" ~count:80
    arb_trace (fun t ->
      List.for_all
        (fun model ->
          let ctx = Lift.make t in
          let fast = Hb.compute model ctx in
          let naive = Naive.hb model t in
          let ok = ref true in
          for i = 0 to Trace.length t - 1 do
            for j = 0 to Trace.length t - 1 do
              if Rel.mem fast i j <> naive i j then ok := false
            done
          done;
          !ok)
        models)

let suite =
  [
    Alcotest.test_case "oracle agreement on enumerated executions" `Slow
      test_on_catalog;
    Tb.qcheck prop_random_traces;
    Tb.qcheck prop_random_relations;
    Tb.qcheck prop_random_hb;
  ]
