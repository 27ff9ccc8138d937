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
          edge as choices pin them down;
     lt   (lww ∪ lrw)ᵀ, which the reversal check reads by rows.

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
   consistent candidates are then linearized.  On request, a consistent
   leaf also records its hb on the combo's conflicting pairs, from which
   [races] reads the execution's races ([Enumerate.run ~races:true]).

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

(* Every table [apply] reads is built here, once per plan, so that a
   choice hashes nothing, compares no string and builds no list. *)
type level =
  | Lrf of { r : int; cands : int array; init : int }
      (* read, candidate sources (-1 = init), its location's init write *)
  | Lco of {
      x : string;
      perms : int list array; (* the coherence permutations, for selections *)
      parr : int array array; (* the same as arrays *)
      pos : int array array;
          (* pos.(ch).(rank w): w's 1-based position in permutation ch *)
      init : int; (* the location's init write *)
      reads : int array; (* the reads of x *)
    }
  | Lfence of {
      key : int * int; (* (fence, Begin) *)
      opts : Combo.fence_choice array;
      res : int; (* the Begin's resolution, or -1 *)
      is_commit : bool; (* ... and it is a commit *)
    }

type plan = {
  combo : Combo.t;
  locs : string list;
  model : Model.t;
  n : int; (* combo events *)
  base : int; (* universe offset of combo events = #locs + 2 *)
  nu : int; (* universe size *)
  cls : int array; (* universe -> transaction-class representative *)
  members : int array array; (* universe -> members of its class *)
  tx : bool array; (* universe -> transactional *)
  ctxv : bool array; (* universe -> committed-or-live transactional *)
  rank : int array; (* write -> its index in its location's write list *)
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
  let locs_a = Array.of_list locs in
  let init_w x =
    let rec find j = if String.equal locs_a.(j) x then 1 + j else find (j + 1) in
    find 0
  in
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
  let by_rep = Array.make nu [] in
  for u = nu - 1 downto 0 do
    by_rep.(cls.(u)) <- u :: by_rep.(cls.(u))
  done;
  let by_rep = Array.map Array.of_list by_rep in
  let members = Array.init nu (fun u -> by_rep.(cls.(u))) in
  let tx = Array.init nu (fun u -> u < base || ev.(u - base).Combo.txn >= 0) in
  let ctxv =
    Array.init nu (fun u ->
        u < base
        || (ev.(u - base).Combo.txn >= 0 && not ev.(u - base).Combo.aborted))
  in
  let loc_of_read r =
    match ev.(r).Combo.proto with Proto.PRead (x, _) -> x | _ -> assert false
  in
  let rank = Array.make n 0 in
  let co_level x =
    let writes = Combo.writes_of combo x in
    List.iteri (fun k w -> rank.(w) <- k) writes;
    let perms = Array.of_list (Combo.permutations writes) in
    let parr = Array.map Array.of_list perms in
    let pos =
      Array.map
        (fun p ->
          let a = Array.make (Array.length p) 0 in
          Array.iteri (fun i w -> a.(rank.(w)) <- i + 1) p;
          a)
        parr
    in
    let reads =
      Array.of_list
        (List.filter (fun r -> String.equal (loc_of_read r) x) combo.Combo.reads)
    in
    Lco { x; perms; parr; pos; init = init_w x; reads }
  in
  let fence_level ((_, b) as key) opts =
    let res = combo.Combo.resolution.(b) in
    let is_commit = res >= 0 && ev.(res).Combo.proto = Proto.PCommit in
    Lfence { key; opts = Array.of_list opts; res; is_commit }
  in
  let levels =
    Array.of_list
      (List.map
         (fun r ->
           Lrf
             {
               r;
               cands = Array.of_list (Combo.rf_candidates combo r);
               init = init_w (loc_of_read r);
             })
         combo.Combo.reads
      @ List.map co_level (Combo.locs_written combo)
      @ List.map (fun (key, opts) -> fence_level key opts) (Combo.fence_pairs combo))
  in
  let widths =
    Array.map
      (function
        | Lrf { cands; _ } -> Array.length cands
        | Lco { perms; _ } -> Array.length perms
        | Lfence { opts; _ } -> Array.length opts)
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
    cls;
    members;
    tx;
    ctxv;
    rank;
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
  lt : Rel.t; (* (lww ∪ lrw)ᵀ, the reversal check's view *)
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
    lt = Rel.copy st.lt;
    rf = Array.copy st.rf;
  }

let blit_state ~src ~dst =
  Rel.blit ~src:src.h ~dst:dst.h;
  Rel.blit ~src:src.k ~dst:dst.k;
  Rel.blit ~src:src.c ~dst:dst.c;
  Rel.blit ~src:src.lww ~dst:dst.lww;
  Rel.blit ~src:src.lwr ~dst:dst.lwr;
  Rel.blit ~src:src.lrw ~dst:dst.lrw;
  Rel.blit ~src:src.xrw ~dst:dst.xrw;
  Rel.blit ~src:src.crw ~dst:dst.crw;
  Rel.blit ~src:src.lt ~dst:dst.lt;
  Array.blit src.rf 0 dst.rf 0 (Array.length src.rf)

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
    lt = Rel.create nu;
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
   so far) and when h grows: a violation is a pair of h ∩ lt, and only
   the rows the new h edge touched can have gained one.  h ⊆ k, so the
   cycle check on k covers both. *)
let add_h st a b =
  if Rel.mem st.k b a then raise Doomed;
  if Rel.add_edge_closed_meets st.h a b st.lt then raise Doomed;
  ignore (Rel.add_edge_closed st.k a b)

(* The three base-edge kinds, lifted pair by pair. *)
type kind = Wr | Ww | Rw

let add_pair plan st kind u v =
  match kind with
  | Wr ->
      (* lwr everywhere, k (Causality includes lwr), and h for the
         committed-or-live pairs (cwr is in the happens-before base) *)
      Rel.add st.lwr u v;
      add_k st u v;
      if plan.ctxv.(u) && plan.ctxv.(v) then add_h st u v
  | Ww ->
      (* lww (spot-check Coherence against h), and h for the
         committed-or-live pairs (cww) *)
      Rel.add st.lww u v;
      Rel.add st.lt v u;
      if Rel.mem st.h v u then raise Doomed;
      if plan.ctxv.(u) && plan.ctxv.(v) then add_h st u v
  | Rw ->
      (* lrw (spot-check Observation), xrw into k for the transactional
         pairs, crw for the committed-or-live ones *)
      Rel.add st.lrw u v;
      Rel.add st.lt v u;
      if Rel.mem st.h v u then raise Doomed;
      if plan.tx.(u) && plan.tx.(v) then begin
        Rel.add st.xrw u v;
        add_k st u v;
        if plan.ctxv.(u) && plan.ctxv.(v) then Rel.add st.crw u v
      end

(* one base edge, l-lifted: the edge itself, or the full cross-class
   block when the classes differ *)
let add_lifted plan st kind a b =
  if plan.cls.(a) = plan.cls.(b) then add_pair plan st kind a b
  else begin
    let ma = plan.members.(a) and mb = plan.members.(b) in
    for i = 0 to Array.length ma - 1 do
      for j = 0 to Array.length mb - 1 do
        add_pair plan st kind ma.(i) mb.(j)
      done
    done
  end

(* apply one level's choice to a copied state; raises Doomed when the
   whole subtree below is dead *)
let apply plan st level choice =
  let ev = plan.combo.Combo.ev in
  let base = plan.base in
  match level with
  | Lrf { r; cands; init } ->
      let w = cands.(choice) in
      st.rf.(r) <- w;
      let ur = base + r in
      (* WF8 linearization constraint *)
      if w >= 0 then add_c st (base + w) ur;
      add_lifted plan st Wr (if w = -1 then init else base + w) ur
  | Lco { parr; pos; init; reads; _ } ->
      let parr = parr.(choice) and pos = pos.(choice) in
      let m = Array.length parr in
      (* coherence: init before every write, then the chosen order *)
      for i = 0 to m - 1 do
        add_lifted plan st Ww init (base + parr.(i))
      done;
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let b = parr.(i) and c = parr.(j) in
          add_lifted plan st Ww (base + b) (base + c);
          (* WF9: transactional write before any coherence-later
             committed transactional write *)
          if ev.(b).Combo.txn >= 0 && ev.(c).Combo.txn >= 0 && not ev.(c).Combo.aborted
          then add_c st (base + b) (base + c)
        done
      done;
      (* reads of x: from-read edges and the WF10/WF11 constraints, now
         that the coherence order fixes the timestamps (a write's is its
         1-based position; the init write sits at 0) *)
      for ri = 0 to Array.length reads - 1 do
        let r = reads.(ri) in
        let w = st.rf.(r) in
        let src_ts = if w = -1 then 0 else pos.(plan.rank.(w)) in
        let src_is_txn = w = -1 || ev.(w).Combo.txn >= 0 in
        for j = src_ts to m - 1 do
          let c = parr.(j) in
          if not ev.(c).Combo.aborted then add_lifted plan st Rw (base + r) (base + c);
          if ev.(r).Combo.txn >= 0 then begin
            if src_is_txn && ev.(c).Combo.txn >= 0 && not ev.(c).Combo.aborted
            then add_c st (base + r) (base + c);
            if Combo.same_txn ev r c then add_c st (base + r) (base + c)
          end
        done
      done
  | Lfence { key = q, b; opts; res; is_commit } -> (
      match opts.(choice) with
      | Combo.Commit_before ->
          if res >= 0 then begin
            (* WF12: resolution before the fence; a committed
               resolution pins the HBCQ quiescence edge *)
            add_c st (base + res) (base + q);
            if plan.model.Model.quiescence && is_commit then
              add_h st (base + res) (base + q)
          end
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
     · no lww or lrw edge is reversed by h ([add_pair], [add_h]);
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
  for li = Array.length plan.levels - 1 downto 0 do
    let ch = choices.(li) in
    match plan.levels.(li) with
    | Lrf { r; cands; _ } -> rf := (r, cands.(ch)) :: !rf
    | Lco { x; perms; _ } -> ww := (x, perms.(ch)) :: !ww
    | Lfence { key; opts; _ } -> fe := (key, opts.(ch)) :: !fe
  done;
  { Combo.rf_sel = !rf; ww_sel = !ww; fence_sel = !fe }

(* -- races at the leaf ---------------------------------------------------- *)

(* After [leaf_consistent] returns true, [st.h] is the leaf's whole
   happens-before: the base edges were added as the choices pinned them,
   and the model's rules extended it in place.  hb is a relation on the
   graph, so a race is a conflicting pair the trace orders one way and
   hb does not: only hb between the conflicting pairs is needed, in both
   directions, whichever linearization is then built — the
   representative's own, or an image's under the renaming. *)
let hb_on plan st conflicts =
  if Array.length conflicts = 0 then [||]
  else
    Array.map
      (fun (i, j) ->
        let u = plan.base + i and v = plan.base + j in
        Bool.to_int (Rel.mem st.h u v) lor (2 * Bool.to_int (Rel.mem st.h v u)))
      conflicts

let races ~base conflicts hb order =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let acc = ref [] in
  Array.iteri
    (fun k (i, j) ->
      let pi = pos.(i) and pj = pos.(j) in
      if pi < pj then begin
        if hb.(k) land 1 = 0 then acc := (base + pi, base + pj) :: !acc
      end
      else if hb.(k) land 2 = 0 then acc := (base + pj, base + pi) :: !acc)
    conflicts;
  List.sort
    (fun (a, b) (c, d) -> if a <> c then Int.compare a c else Int.compare b d)
    !acc

(* -- the walker ----------------------------------------------------------- *)

type leaf = {
  ordinal : int;
  sel : Combo.selection;
  trace : Trace.t;
  order : int array;
  hb : int array;
}

exception Past_cap

(* Enumerate [plan]'s candidates in product order, optionally pinning
   the first level's choice (the parallel task split).  [claim k]
   accounts for [k] candidates and returns the ordinal of the first, or
   -1 past the cap; pruned subtrees are bulk-claimed, so ordinals
   coincide with the unreduced enumerator's.  Ordinals only grow, so
   the walk stops at the first -1.  A pinned walk first bulk-claims the
   subtrees of the choices before its pin, so its ordinals are those of
   the unpinned walk.  [emit] receives each consistent execution.
   Returns the number of candidates whose leaf check actually ran.

   The walker passes state ownership down the last sibling, so only
   earlier siblings pay for a copy, and a width-1 level (a single write
   to a location, a read with one source: very common) costs none.  A
   copy goes into its depth's scratch state, created the first time
   that depth copies and refilled by blit after that: the subtree below
   a copy only ever writes deeper scratch states and the copy itself. *)
let enumerate ?pin ?(conflicts = [||]) ~claim ~emit plan =
  let nlv = Array.length plan.levels in
  let explored = ref 0 in
  if Array.exists (fun w -> w = 0) plan.widths then ()
  else begin
    let choices = Array.make nlv 0 in
    let scratch = Array.make nlv None in
    let copy li st =
      match scratch.(li) with
      | Some dst ->
          blit_state ~src:st ~dst;
          dst
      | None ->
          let dst = copy_state st in
          scratch.(li) <- Some dst;
          dst
    in
    let claim k =
      let ordinal = claim k in
      if ordinal < 0 then raise_notrace Past_cap else ordinal
    in
    let rec go li st =
      if li = nlv then begin
        let ordinal = claim 1 in
        incr explored;
        if leaf_consistent plan st then begin
          let sel = selection_of plan choices in
          match Combo.linearize ~locs:plan.locs plan.combo sel with
          | Some (trace, order) ->
              emit { ordinal; sel; trace; order; hb = hb_on plan st conflicts }
          | None -> ()
        end
      end
      else begin
        let lo = match pin with Some k when li = 0 -> k | _ -> 0 in
        let hi = match pin with Some k when li = 0 -> k | _ -> plan.widths.(li) - 1 in
        for ch = lo to hi do
          let st' = if ch = hi then st else copy li st in
          choices.(li) <- ch;
          match apply plan st' plan.levels.(li) ch with
          | () -> go (li + 1) st'
          | exception Doomed -> ignore (claim plan.suffix.(li + 1))
        done
      end
    in
    try
      Option.iter (fun k -> ignore (claim (sat_mul k plan.suffix.(1)))) pin;
      go 0 (initial_state plan)
    with Past_cap -> ()
  end;
  !explored
