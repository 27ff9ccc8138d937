(* Reduced enumeration of one combo's candidate graphs.

   The unreduced enumerator iterates the full selection product —
   reads-from sources × per-location coherence permutations × fence
   sides — and evaluates every leaf by building a trace, lifting its
   relations and checking the axioms.  Here the same product is walked
   as a prefix tree whose nodes carry an incrementally maintained
   execution-graph state:

     h    the definite part of happens-before (init ∪ po ∪ cwr ∪ cww
          ∪ quiescence edges pinned by the WF12 fence choices), kept
          transitively closed;
     k    closure(h ∪ lwr ∪ xrw) — the Causality axiom's relation;
     c    the WF-derived linearization constraints (po, WF8–WF12);
     lww/lwr/lrw/xrw/crw — the lifted relations, accumulated edge by
          edge as choices pin them down.

   Every relation grows monotonically along a branch: each choice adds
   edges and never removes any, and the rule-derived happens-before
   extensions at a leaf only add more.  A prefix is therefore *doomed* —
   no leaf below it can be consistent or linearizable — as soon as

     · c acquires a cycle (no linearization exists: WF violation),
     · k acquires a cycle (Causality fails at every leaf), or
     · a new lww/lrw edge (a, b) arrives with b already h-before a
       (Coherence/Observation fail at every leaf),

   and the whole subtree is skipped after bulk-counting its candidates,
   so the candidate-graph accounting matches the unreduced enumerator
   exactly.  A surviving leaf is decided from the invariants the walk
   keeps ([leaf_consistent]); only a leaf whose happens-before the
   model's rules extend ([Hb.compute_from]) gets the full axiom check
   over the accumulated relations — no trace, no [Lift.make]; only
   consistent candidates are then linearized.

   Indexing: candidates are judged in a fixed universe that prepends the
   initializing transaction (Begin, one write per location in [locs]
   order, Commit) to the combo's events, mirroring [Trace.make]'s
   layout.  Trace positions of an eventual linearization are a
   permutation of this universe, and every axiom is invariant under
   permutation, so verdicts transfer. *)

open Tmx_core

(* -- cheap per-selection feasibility -------------------------------------- *)

(* A combo enumerates zero candidates whenever some read's value has no
   selected writer (its reads-from candidate list is empty): the
   unreduced enumerator prepares the combo and then skips it.  This
   check spots most such combos from per-path summaries alone, so dead
   path selections are never prepared at all.  Only the "no writer
   anywhere" case is decided here — reads of 0 are always fed by the
   initializing write, and the finer rf filters (aborted-foreign,
   same-thread-later sources) are left to preparation. *)
module Feasible = struct
  type t = {
    writes : (string * int, unit) Hashtbl.t array array;
    reads_nz : (string * int) list array array;
  }

  let make (tp : Proto.path array array) =
    let writes =
      Array.map
        (Array.map (fun (p : Proto.path) ->
             let h = Hashtbl.create 8 in
             List.iter
               (function
                 | Proto.PWrite (x, v) -> Hashtbl.replace h (x, v) ()
                 | _ -> ())
               p.protos;
             h))
        tp
    in
    let reads_nz =
      Array.map
        (Array.map (fun (p : Proto.path) ->
             List.sort_uniq compare
               (List.filter_map
                  (function
                    | Proto.PRead (x, v) when v <> 0 -> Some (x, v)
                    | _ -> None)
                  p.protos)))
        tp
    in
    { writes; reads_nz }

  let check t (sel : int array) =
    let nt = Array.length sel in
    let ok = ref true in
    Array.iteri
      (fun i si ->
        if !ok then
          List.iter
            (fun key ->
              if !ok then begin
                let found = ref false in
                for j = 0 to nt - 1 do
                  if (not !found) && Hashtbl.mem t.writes.(j).(sel.(j)) key
                  then found := true
                done;
                if not !found then ok := false
              end)
            t.reads_nz.(i).(si))
      sel;
    !ok
end

type level =
  | Lrf of int * int array (* read, candidate sources (-1 = init) *)
  | Lco of string * int list array (* location, coherence permutations *)
  | Lfence of (int * int) * Combo.fence_choice array

type plan = {
  combo : Combo.t;
  locs : string list;
  model : Model.t;
  n : int; (* combo events *)
  base : int; (* universe offset of combo events = #locs + 2 *)
  nu : int; (* universe size *)
  init_w : (string, int) Hashtbl.t; (* location -> universe init write *)
  cls : int array; (* universe -> transaction-class representative *)
  members : int list array; (* universe -> members of its class *)
  tx : bool array; (* universe -> transactional *)
  ctxv : bool array; (* universe -> committed-or-live transactional *)
  resolution : (int, int * bool) Hashtbl.t;
      (* begin -> (resolution event, is a commit) *)
  levels : level array;
  widths : int array;
  suffix : int array; (* suffix.(i) = Π_{j≥i} widths.(j), saturating *)
}

let sat_mul a b =
  let cap = max_int / 4 in
  if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b

let make_plan ~model ~locs (combo : Combo.t) =
  let ev = combo.Combo.ev in
  let n = Array.length ev in
  let nl = List.length locs in
  let base = nl + 2 in
  let nu = base + n in
  let init_w = Hashtbl.create 8 in
  List.iteri (fun j x -> Hashtbl.add init_w x (1 + j)) locs;
  (* classes: the init events form one committed transaction (class 0);
     combo events in a transaction share their Begin's class; plain
     events are singletons *)
  let cls =
    Array.init nu (fun u ->
        if u < base then 0
        else
          let e = ev.(u - base) in
          if e.Combo.txn >= 0 then base + e.txn else u)
  in
  let by_rep = Hashtbl.create 16 in
  for u = nu - 1 downto 0 do
    Hashtbl.replace by_rep cls.(u)
      (u :: Option.value (Hashtbl.find_opt by_rep cls.(u)) ~default:[])
  done;
  let members = Array.init nu (fun u -> Hashtbl.find by_rep cls.(u)) in
  let tx = Array.init nu (fun u -> u < base || ev.(u - base).Combo.txn >= 0) in
  let ctxv =
    Array.init nu (fun u ->
        u < base
        || (ev.(u - base).Combo.txn >= 0 && not ev.(u - base).Combo.aborted))
  in
  let resolution = Hashtbl.create 8 in
  Array.iteri
    (fun b e ->
      if e.Combo.proto = Proto.PBegin then
        match Combo.resolution_of combo b with
        | Some r -> Hashtbl.add resolution b (r, ev.(r).Combo.proto = Proto.PCommit)
        | None -> ())
    ev;
  let locs_written = Combo.locs_written combo in
  let levels =
    Array.of_list
      (List.map
         (fun r -> Lrf (r, Array.of_list (Combo.rf_candidates combo r)))
         combo.Combo.reads
      @ List.map
          (fun x ->
            Lco (x, Array.of_list (Combo.permutations (Combo.writes_of combo x))))
          locs_written
      @ List.map
          (fun (key, opts) -> Lfence (key, Array.of_list opts))
          (Combo.fence_pairs combo))
  in
  let widths =
    Array.map
      (function
        | Lrf (_, a) -> Array.length a
        | Lco (_, a) -> Array.length a
        | Lfence (_, a) -> Array.length a)
      levels
  in
  let nlv = Array.length levels in
  let suffix = Array.make (nlv + 1) 1 in
  for i = nlv - 1 downto 0 do
    suffix.(i) <- sat_mul widths.(i) suffix.(i + 1)
  done;
  {
    combo;
    locs;
    model;
    n;
    base;
    nu;
    init_w;
    cls;
    members;
    tx;
    ctxv;
    resolution;
    levels;
    widths;
    suffix;
  }

(* -- the incremental state ------------------------------------------------ *)

type rstate = {
  h : Rel.t; (* definite happens-before, closed *)
  k : Rel.t; (* closure(h ∪ lwr ∪ xrw): Causality *)
  c : Rel.t; (* linearization constraints, closed *)
  lww : Rel.t;
  lwr : Rel.t;
  lrw : Rel.t;
  xrw : Rel.t;
  crw : Rel.t;
  rf : int array; (* read -> chosen source; -2 = not yet chosen *)
}

let copy_state st =
  {
    h = Rel.copy st.h;
    k = Rel.copy st.k;
    c = Rel.copy st.c;
    lww = Rel.copy st.lww;
    lwr = Rel.copy st.lwr;
    lrw = Rel.copy st.lrw;
    xrw = Rel.copy st.xrw;
    crw = Rel.copy st.crw;
    rf = Array.copy st.rf;
  }

let initial_state plan =
  let nu = plan.nu and base = plan.base in
  let ev = plan.combo.Combo.ev in
  let h = Rel.create nu in
  (* initialization: every init event before every combo event, and the
     init block internally ordered (its own program order) *)
  for u = 0 to base - 1 do
    for v = u + 1 to base - 1 do
      Rel.add h u v
    done;
    for b = base to nu - 1 do
      Rel.add h u b
    done
  done;
  (* program order within the combo, for h and for the linearization
     constraints; all same-thread pairs at once keeps h closed *)
  let c = Rel.create nu in
  for i = 0 to plan.n - 1 do
    for j = i + 1 to plan.n - 1 do
      if ev.(i).Combo.thread = ev.(j).Combo.thread then begin
        Rel.add h (base + i) (base + j);
        Rel.add c (base + i) (base + j)
      end
    done
  done;
  {
    h;
    k = Rel.copy h;
    c;
    lww = Rel.create nu;
    lwr = Rel.create nu;
    lrw = Rel.create nu;
    xrw = Rel.create nu;
    crw = Rel.create nu;
    rf = Array.make (max plan.n 1) (-2);
  }

exception Doomed

(* constraint edge: prune when it closes a cycle (no linearization) *)
let add_c st a b =
  if Rel.mem st.c b a then raise Doomed
  else ignore (Rel.add_edge_closed st.c a b)

(* causality edge (lwr/xrw): prune on a k-cycle *)
let add_k st a b =
  if Rel.mem st.k b a then raise Doomed
  else ignore (Rel.add_edge_closed st.k a b)

(* Coherence/Observation against the definite happens-before: a
   violation — some (u, v) ∈ lww ∪ lrw with h(v, u) — is monotone in the
   growing relations, so the subtree dies the moment either side of the
   reversal completes.  Checked when an l-edge is added (against the h
   so far) and re-checked when h grows (against the l-edges so far). *)
let check_reversals st =
  Rel.iter st.lww (fun u v -> if Rel.mem st.h v u then raise Doomed);
  Rel.iter st.lrw (fun u v -> if Rel.mem st.h v u then raise Doomed)

(* definite happens-before edge: h ⊆ k, so the cycle check on k covers
   both *)
let add_h st a b =
  if Rel.mem st.k b a then raise Doomed;
  if Rel.add_edge_closed st.h a b then check_reversals st;
  ignore (Rel.add_edge_closed st.k a b)

(* the l-lifted pairs of one base edge: the edge itself, or the full
   cross-class block when the classes differ *)
let lift_pairs plan a b =
  if plan.cls.(a) = plan.cls.(b) then [ (a, b) ]
  else
    List.concat_map
      (fun u -> List.map (fun v -> (u, v)) plan.members.(b))
      plan.members.(a)

(* one wr base edge: lwr everywhere, k (Causality includes lwr), and h
   for the committed-or-live pairs (cwr is in the happens-before base) *)
let add_wr plan st a b =
  List.iter
    (fun (u, v) ->
      Rel.add st.lwr u v;
      add_k st u v;
      if plan.ctxv.(u) && plan.ctxv.(v) then add_h st u v)
    (lift_pairs plan a b)

(* one ww base edge: lww (spot-check Coherence against h), and h for the
   committed-or-live pairs (cww) *)
let add_ww plan st a b =
  List.iter
    (fun (u, v) ->
      Rel.add st.lww u v;
      if Rel.mem st.h v u then raise Doomed;
      if plan.ctxv.(u) && plan.ctxv.(v) then add_h st u v)
    (lift_pairs plan a b)

(* one rw base edge: lrw (spot-check Observation), xrw into k for the
   transactional pairs, crw for the committed-or-live ones *)
let add_rw plan st a b =
  List.iter
    (fun (u, v) ->
      Rel.add st.lrw u v;
      if Rel.mem st.h v u then raise Doomed;
      if plan.tx.(u) && plan.tx.(v) then begin
        Rel.add st.xrw u v;
        add_k st u v;
        if plan.ctxv.(u) && plan.ctxv.(v) then Rel.add st.crw u v
      end)
    (lift_pairs plan a b)

let loc_of_read (combo : Combo.t) r =
  match combo.ev.(r).Combo.proto with
  | Proto.PRead (x, _) -> x
  | _ -> assert false

(* apply one level's choice to a copied state; raises Doomed when the
   whole subtree below is dead *)
let apply plan st level choice =
  let ev = plan.combo.Combo.ev in
  let base = plan.base in
  match level with
  | Lrf (r, cands) ->
      let w = cands.(choice) in
      st.rf.(r) <- w;
      let ur = base + r in
      let uw =
        if w = -1 then Hashtbl.find plan.init_w (loc_of_read plan.combo r)
        else base + w
      in
      (* WF8 linearization constraint *)
      if w >= 0 then add_c st (base + w) ur;
      add_wr plan st uw ur
  | Lco (x, perms) ->
      let parr = Array.of_list perms.(choice) in
      let m = Array.length parr in
      let uw_init = Hashtbl.find plan.init_w x in
      (* coherence: init before every write, then the chosen order *)
      for i = 0 to m - 1 do
        add_ww plan st uw_init (base + parr.(i))
      done;
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let b = parr.(i) and c = parr.(j) in
          add_ww plan st (base + b) (base + c);
          (* WF9: transactional write before any coherence-later
             committed transactional write *)
          if ev.(b).Combo.txn >= 0 && ev.(c).Combo.txn >= 0 && not ev.(c).Combo.aborted
          then add_c st (base + b) (base + c)
        done
      done;
      (* position of each write of x in the chosen order, 1-based (the
         init write sits at 0) *)
      let pos = Hashtbl.create 8 in
      Array.iteri (fun i wv -> Hashtbl.replace pos wv (i + 1)) parr;
      (* reads of x: from-read edges and the WF10/WF11 constraints, now
         that the coherence order fixes the timestamps *)
      List.iter
        (fun r ->
          if String.equal (loc_of_read plan.combo r) x then begin
            let w = st.rf.(r) in
            let src_ts = if w = -1 then 0 else Hashtbl.find pos w in
            let src_is_txn = w = -1 || ev.(w).Combo.txn >= 0 in
            for j = src_ts to m - 1 do
              let c = parr.(j) in
              if not ev.(c).Combo.aborted then add_rw plan st (base + r) (base + c);
              if ev.(r).Combo.txn >= 0 then begin
                if src_is_txn && ev.(c).Combo.txn >= 0 && not ev.(c).Combo.aborted
                then add_c st (base + r) (base + c);
                if Combo.same_txn ev r c then add_c st (base + r) (base + c)
              end
            done
          end)
        plan.combo.Combo.reads
  | Lfence ((q, b), opts) -> (
      match opts.(choice) with
      | Combo.Commit_before -> (
          match Hashtbl.find_opt plan.resolution b with
          | Some (res, is_commit) ->
              (* WF12: resolution before the fence; a committed
                 resolution pins the HBCQ quiescence edge *)
              add_c st (base + res) (base + q);
              if plan.model.Model.quiescence && is_commit then
                add_h st (base + res) (base + q)
          | None -> ())
      | Combo.Fence_before ->
          (* WF12: fence before the begin; pins the HBQB edge *)
          add_c st (base + q) (base + b);
          if plan.model.Model.quiescence then add_h st (base + q) (base + b))

(* -- leaves --------------------------------------------------------------- *)

exception Found

(* [Coherence]/[Observation] without materializing the compose:
   (hb ; r) irreflexive ⟺ no (u, v) ∈ r has hb(v, u) — r is a handful
   of lifted edges, so edge iteration beats an n² compose *)
let compose_hits r hb =
  try
    Rel.iter r (fun u v -> if Rel.mem hb v u then raise Found);
    false
  with Found -> true

(* (pre ; hb ; r) irreflexive ⟺ no (b, x) ∈ r has a with pre(x, a) and
   hb(a, b) *)
let anti_hits ~nu ~pre ~hb r =
  try
    Rel.iter r (fun b x ->
        for a = 0 to nu - 1 do
          if Rel.mem pre x a && Rel.mem hb a b then raise Found
        done);
    false
  with Found -> true

(* (hb ; mid ; r) irreflexive ⟺ no (b, x) ∈ r has a with hb(x, a) and
   mid(a, b) *)
let anti_hits' ~nu ~hb ~mid r =
  try
    Rel.iter r (fun b x ->
        for a = 0 to nu - 1 do
          if Rel.mem hb x a && Rel.mem mid a b then raise Found
        done);
    false
  with Found -> true

(* The walk keeps three invariants at every surviving node:
     · k = closure(h ∪ lwr ∪ xrw) is acyclic ([add_k], [add_h]);
     · no lww or lrw edge is reversed by h ([add_ww], [add_rw],
       [check_reversals]);
     · every hb rule premise is crw ; hb or hb ; crw, and every anti
       axiom composes with crw.
   So while hb = h, Causality, Coherence and Observation hold by
   construction, and with crw = ∅ no rule fires and no anti axiom can
   fail: the leaf is consistent under every model.  Otherwise the rules
   run; if they add no edge only the anti axioms are left to check, and
   only a grown hb needs the full check. *)
let leaf_consistent plan st =
  Rel.is_empty st.crw
  ||
  let model = plan.model in
  let nu = plan.nu in
  let has_rules =
    model.Model.hb_ww || model.hb_wr || model.hb_rw || model.hb_ww'
    || model.hb_wr' || model.hb_rw'
  in
  let hb, grew =
    if has_rules then begin
      let before = Rel.cardinal st.h in
      (* leaf states are single-use: extend h in place *)
      let hb =
        Hb.compute_from model
          ~plain:(fun u -> not plan.tx.(u))
          ~crw:st.crw ~lww:st.lww ~lwr:st.lwr ~lrw:st.lrw st.h
      in
      (hb, Rel.cardinal hb <> before)
    end
    else (st.h, false)
  in
  ((not grew)
  || Rel.is_acyclic (Rel.union_many [ hb; st.lwr; st.xrw ])
     && (not (compose_hits st.lww hb))
     && not (compose_hits st.lrw hb))
  && ((not model.anti_ww) || not (anti_hits ~nu ~pre:st.crw ~hb st.lww))
  && ((not model.anti_rw) || not (anti_hits ~nu ~pre:st.crw ~hb st.lrw))
  && ((not model.anti_ww') || not (anti_hits' ~nu ~hb ~mid:st.crw st.lww))
  && ((not model.anti_rw') || not (anti_hits' ~nu ~hb ~mid:st.crw st.lrw))

let selection_of plan choices =
  let rf = ref [] and ww = ref [] and fe = ref [] in
  List.iteri
    (fun li ch ->
      match plan.levels.(li) with
      | Lrf (r, cands) -> rf := (r, cands.(ch)) :: !rf
      | Lco (x, perms) -> ww := (x, perms.(ch)) :: !ww
      | Lfence (key, opts) -> fe := (key, opts.(ch)) :: !fe)
    choices;
  {
    Combo.rf_sel = List.rev !rf;
    ww_sel = List.rev !ww;
    fence_sel = List.rev !fe;
  }

(* -- the walker ----------------------------------------------------------- *)

(* Enumerate [plan]'s candidates in product order, optionally pinning
   the first level's choice (the parallel task split).  [claim k]
   accounts for [k] candidates and returns the ordinal of the first if
   it is to be processed; pruned subtrees are bulk-claimed, so ordinals
   and totals coincide with the unreduced enumerator.  A pinned walk
   first bulk-claims the subtrees of the choices before its pin, so its
   ordinals are those of the unpinned walk.  [emit] receives each
   consistent execution's ordinal, selection and trace.  Returns the
   number of candidates whose leaf check actually ran. *)
let enumerate ?pin ~claim ~emit plan =
  let nlv = Array.length plan.levels in
  let explored = ref 0 in
  if Array.exists (fun w -> w = 0) plan.widths then ()
  else begin
    Option.iter (fun k -> ignore (claim (sat_mul k plan.suffix.(1)))) pin;
    let rec go li st choices =
      if li = nlv then begin
        match claim 1 with
        | None -> ()
        | Some ordinal ->
            incr explored;
            if leaf_consistent plan st then begin
              let sel = selection_of plan (List.rev choices) in
              match Combo.linearize ~locs:plan.locs plan.combo sel with
              | Some trace -> emit ordinal sel trace
              | None -> ()
            end
      end
      else begin
        let lo, hi =
          match pin with
          | Some k when li = 0 -> (k, k)
          | _ -> (0, plan.widths.(li) - 1)
        in
        for ch = lo to hi do
          (* [go] owns [st] and may destroy it, so the last choice takes
             the original and only earlier siblings pay for a copy — a
             width-1 level (very common: a single write to a location, a
             read with one source) costs no copy at all *)
          let st' = if ch = hi then st else copy_state st in
          match apply plan st' plan.levels.(li) ch with
          | () -> go (li + 1) st' (ch :: choices)
          | exception Doomed -> ignore (claim plan.suffix.(li + 1))
        done
      end
    in
    go 0 (initial_state plan) []
  end;
  !explored
