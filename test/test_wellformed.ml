open Tmx_core
open Tb

let has_violation pred t = List.exists pred (Wellformed.violations t)

let test_wf_ok () =
  let t =
    mk ~locs:[ "x"; "y" ]
      [ b 0; w 0 "x" 1 1; c 0; r 1 "x" 1 1; w 1 "y" 1 1 ]
  in
  Alcotest.(check (list (of_pp Wellformed.pp_violation))) "no violations" []
    (Wellformed.violations t)

let test_wf1 () =
  let t = Trace.of_events ~locs:[ "x" ] [ w 0 "x" 1 1 ] in
  Alcotest.(check bool) "missing init" true
    (has_violation (function Wellformed.WF1_no_init -> true | _ -> false) t)

let test_wf3 () =
  let t = mk ~locs:[ "x" ] [ w 0 "x" 1 1; w 1 "x" 2 1 ] in
  Alcotest.(check bool) "duplicate ts" true
    (has_violation (function Wellformed.WF3_duplicate_timestamp _ -> true | _ -> false) t)

let test_wf4 () =
  let t = mk ~locs:[ "x" ] [ c 0 ] in
  Alcotest.(check bool) "commit without begin" true
    (has_violation (function Wellformed.WF4_unmatched_resolution _ -> true | _ -> false) t)

let test_wf5 () =
  let t = mk ~locs:[ "x" ] [ b 0; b 0; c 0; c 0 ] in
  Alcotest.(check bool) "nested begin" true
    (has_violation (function Wellformed.WF5_nested_begin _ -> true | _ -> false) t)

let test_wf6 () =
  let t = mk ~locs:[ "x" ] [ r 0 "x" 7 3 ] in
  Alcotest.(check bool) "unfulfilled read" true
    (has_violation (function Wellformed.WF6_unfulfilled_read _ -> true | _ -> false) t);
  (* a write at the read's location and timestamp is not its source when
     it wrote another value *)
  let t = mk ~locs:[ "x" ] [ w 0 "x" 1 1; r 1 "x" 2 1 ] in
  Alcotest.(check bool) "read of a value no write wrote" true
    (has_violation (function Wellformed.WF6_unfulfilled_read _ -> true | _ -> false) t)

let test_wf7 () =
  (* plain read from an aborted transaction's write *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; a 0; r 1 "x" 1 1 ] in
  Alcotest.(check bool) "read from aborted" true
    (has_violation (function Wellformed.WF7_aborted_source _ -> true | _ -> false) t);
  (* a transaction may read its own pending write *)
  let own = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; r 0 "x" 1 1; a 0 ] in
  Alcotest.(check bool) "own pending write ok" false
    (has_violation (function Wellformed.WF7_aborted_source _ -> true | _ -> false) own)

let test_wf8 () =
  let t = mk ~locs:[ "x" ] [ r 0 "x" 1 1; w 1 "x" 1 1 ] in
  Alcotest.(check bool) "read sees future" true
    (has_violation (function Wellformed.WF8_read_from_future _ -> true | _ -> false) t)

let test_wf9 () =
  (* committed transactional write, then another transactional write with
     a smaller timestamp: forbidden *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 2 2; c 0; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "txn write behind committed txn write" true
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t);
  (* allowed when the earlier write is aborted (paper: 'we ignore aborted
     writes') *)
  let t2 = mk ~locs:[ "x" ] [ b 0; w 0 "x" 2 2; a 0; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "aborted earlier write ignored" false
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t2);
  (* allowed when the earlier write is plain (committed/live refer to
     transactions) *)
  let t3 = mk ~locs:[ "x" ] [ w 0 "x" 2 2; b 1; w 1 "x" 1 1; c 1 ] in
  Alcotest.(check bool) "plain earlier write not constrained by WF9" false
    (has_violation (function Wellformed.WF9_txn_write_order _ -> true | _ -> false) t3)

let test_wf10 () =
  (* ⟨aWx1⟩⟨cWx2⟩⟨bRx1⟩ all transactional: forbidden *)
  let t =
    mk ~locs:[ "x" ]
      [
        b 0; w 0 "x" 1 1; c 0;
        b 1; w 1 "x" 2 2; c 1;
        b 2; r 2 "x" 1 1; c 2;
      ]
  in
  Alcotest.(check bool) "obscured transactional read" true
    (has_violation (function Wellformed.WF10_txn_read_order _ -> true | _ -> false) t)

(* ⟨aWx1⟩⟨cWx2⟩⟨bRx1⟩ with c tx~ b: the transaction ignores its own
   newer write *)
let obscured_by_own_write =
  mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; b 1; w 1 "x" 2 2; r 1 "x" 1 1; c 1 ]

let test_wf11 () =
  Alcotest.(check bool) "read obscured by own write" true
    (has_violation
       (function Wellformed.WF11_same_txn_order _ -> true | _ -> false)
       obscured_by_own_write)

let test_wf12 () =
  (* a fence on x while a transaction touching x is unresolved *)
  let t = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; q 1 "x"; c 0 ] in
  Alcotest.(check bool) "fence inside open txn span" true
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t);
  (* fine if the transaction does not touch x *)
  let t2 = mk ~locs:[ "x"; "y" ] [ b 0; w 0 "y" 1 1; q 1 "x"; c 0 ] in
  Alcotest.(check bool) "fence with disjoint txn" false
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t2);
  (* fine if resolved before the fence *)
  let t3 = mk ~locs:[ "x" ] [ b 0; w 0 "x" 1 1; c 0; q 1 "x" ] in
  Alcotest.(check bool) "fence after resolution" false
    (has_violation (function Wellformed.WF12_fence_overlap _ -> true | _ -> false) t3)

(* --- the one-pass scan against the reference (wf_reference.ml) --- *)

(* Mutations that each break one condition, at the [k]-th applicable
   position (modulo their number); [None] when the trace has none.  They
   rebuild raw traces, so a mutation may also land in the initializing
   transaction and break WF1. *)
let events_of t = Array.to_list (Trace.events t)
let rebuild t evs = Trace.of_events ~locs:(Trace.locs t) evs

let positions t pred =
  List.filter (fun i -> pred (Trace.event t i)) (List.init (Trace.length t) Fun.id)

let pick l k = match l with [] -> None | _ -> Some (List.nth l (k mod List.length l))

let set t i act =
  rebuild t (List.mapi (fun j e -> if j = i then { e with Action.act } else e) (events_of t))
let remove t i = rebuild t (List.filteri (fun j _ -> j <> i) (events_of t))

let insert_before t i e =
  rebuild t
    (List.concat (List.mapi (fun j e' -> if j = i then [ e; e' ] else [ e' ]) (events_of t)))

let is_write (e : Action.event) = Action.is_write e.act
let is_read (e : Action.event) = Action.is_read e.act

(* a write takes the timestamp of another write to its location *)
let duplicate_timestamp t k =
  Option.bind (pick (positions t is_write) k) (fun i ->
      match Trace.act t i with
      | Action.Write { loc; value; _ } ->
          List.find_map
            (fun j ->
              match Trace.act t j with
              | Action.Write w when j <> i && String.equal w.loc loc ->
                  Some (set t i (Action.Write { loc; value; ts = w.ts }))
              | _ -> None)
            (positions t is_write)
      | _ -> None)

(* a read returns a value no write wrote *)
let unwritten_read t k =
  let top =
    Array.fold_left
      (fun m (e : Action.event) -> max m (Option.value (Action.value_of e.act) ~default:0))
      0 (Trace.events t)
  in
  Option.map
    (fun i ->
      match Trace.act t i with
      | Action.Read r -> set t i (Action.Read { r with value = top + 1 })
      | _ -> assert false)
    (pick (positions t is_read) k)

let dropped_commit t k =
  Option.map (remove t) (pick (positions t (fun e -> e.act = Action.Commit)) k)

(* a second Begin of the same thread right after a Begin *)
let nested_begin t k =
  Option.map
    (fun i -> insert_before t (i + 1) (Trace.event t i))
    (pick (positions t (fun e -> Action.is_begin e.act)) k)

let read_before_source t k =
  let moved =
    List.filter
      (fun i -> match Trace.wr_source t i with Some a -> a < i | None -> false)
      (positions t is_read)
  in
  Option.map
    (fun i ->
      let a = Option.get (Trace.wr_source t i) in
      insert_before (remove t i) a (Trace.event t i))
    (pick moved k)

(* a fence of another thread on the location of a transactional access,
   right after the access, before the transaction resolves *)
let fence_in_txn t k =
  Option.map
    (fun i ->
      let e = Trace.event t i in
      let loc = Option.get (Action.loc_of e.act) in
      insert_before t (i + 1) { Action.thread = e.thread + 1; act = Action.Qfence loc })
    (pick
       (List.filter (Trace.is_transactional t) (positions t (fun e -> Action.is_memory e.act)))
       k)

let mutations =
  [
    duplicate_timestamp;
    unwritten_read;
    dropped_commit;
    nested_begin;
    read_before_source;
    fence_in_txn;
  ]

let agrees t = Wellformed.violations t = Wf_reference.violations t

let check_agrees what t =
  if not (agrees t) then
    Alcotest.failf "%s: one-pass scan [%a] <> reference [%a]@ %a" what
      Fmt.(list ~sep:comma Wellformed.pp_violation)
      (Wellformed.violations t)
      Fmt.(list ~sep:comma Wellformed.pp_violation)
      (Wf_reference.violations t) Trace.pp t

let prop_reference =
  QCheck.Test.make ~name:"one-pass scan = reference on random and mutated traces"
    ~count:500
    (QCheck.triple Test_naive.arb_trace
       (QCheck.int_bound (List.length mutations - 1))
       QCheck.small_nat)
    (fun (t, m, k) ->
      agrees t
      && match (List.nth mutations m) t k with Some t' -> agrees t' | None -> true)

(* "WF3" of "WF3: duplicate timestamp at 1,2" *)
let constructor v = List.hd (String.split_on_char ':' (Fmt.str "%a" Wellformed.pp_violation v))

(* Enumerated executions of the catalog (well-formed) and a fixed
   sample of random traces, each also under every mutation at a few
   positions, plus the WF11 example above (random traces almost never
   obscure a read by its own transaction): the scans agree on every
   one, and between them the cases produce every violation
   constructor. *)
let test_reference_cases () =
  let seen = Hashtbl.create 16 in
  let case what t =
    check_agrees what t;
    List.iter (fun v -> Hashtbl.replace seen (constructor v) ()) (Wellformed.violations t)
  in
  let with_mutations what t =
    case what t;
    List.iteri
      (fun m mutate ->
        for k = 0 to 2 do
          Option.iter (case (Fmt.str "%s, mutation %d at %d" what m k)) (mutate t k)
        done)
      mutations
  in
  List.iter
    (fun (lit : Tmx_litmus.Litmus.t) ->
      let executions = (Tmx_exec.Enumerate.run Model.implementation lit.program).executions in
      List.iteri
        (fun n (e : Tmx_exec.Enumerate.execution) ->
          if n < 12 then with_mutations lit.name e.trace)
        executions)
    Tmx_litmus.Catalog.all;
  List.iter (with_mutations "random")
    (QCheck.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:300 Test_naive.gen_trace);
  with_mutations "WF11 example" obscured_by_own_write;
  let all =
    [ "WF1"; "WF3"; "WF4"; "WF5"; "WF6"; "WF7"; "WF8"; "WF9"; "WF10"; "WF11"; "WF12" ]
  in
  Alcotest.(check (list string)) "every constructor produced" all
    (List.filter (Hashtbl.mem seen) all)

let suite =
  [
    Alcotest.test_case "well-formed trace accepted" `Quick test_wf_ok;
    Alcotest.test_case "WF1 initialization" `Quick test_wf1;
    Alcotest.test_case "WF3 timestamp uniqueness" `Quick test_wf3;
    Alcotest.test_case "WF4 resolution matching" `Quick test_wf4;
    Alcotest.test_case "WF5 no nesting" `Quick test_wf5;
    Alcotest.test_case "WF6 reads fulfilled" `Quick test_wf6;
    Alcotest.test_case "WF7 aborted writes invisible" `Quick test_wf7;
    Alcotest.test_case "WF8 no reads from the future" `Quick test_wf8;
    Alcotest.test_case "WF9 transactional write order" `Quick test_wf9;
    Alcotest.test_case "WF10 obscured transactional reads" `Quick test_wf10;
    Alcotest.test_case "WF11 own-write obscuring" `Quick test_wf11;
    Alcotest.test_case "WF12 fence overlap" `Quick test_wf12;
    Alcotest.test_case "one-pass scan = reference, every constructor" `Quick
      test_reference_cases;
    Tb.qcheck prop_reference;
  ]
