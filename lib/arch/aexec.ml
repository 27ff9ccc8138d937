(* Architecture-level execution: judge the LTRF enumerator's candidate
   graphs under per-architecture axioms instead of linearizing them.

   Weak architectures (ARMv8 without dependency ordering) admit
   executions — load buffering — that no well-formed LTRF trace can
   witness, so the backends cannot ride the trace pipeline; they share
   the candidate space and the reference's candidate loop
   (Enumerate.unfold_combos, then Combo.iter_candidates) and judge each
   candidate as a graph: reads-from, coherence and from-reads from the
   selection, program order and barriers from the combo, transactions
   as atomic classes bounded by full fences, the quiescence fence Qx as
   the architecture's full barrier plus the runtime's WF12 ordering
   choice, and aborted transactions as invisible speculation
   (reads-from in, no coherence or antidependencies out).

   Axioms per architecture are in the .mli; the lattice fact the
   differential oracle leans on — tso-consistent ⊆ armv8-consistent and
   rc11-consistent ⊆ armv8-consistent — holds edge-wise by construction:
   armv8's ob is a subset of tso's ghb, and ob ⊆ hb ∪ eco. *)

open Tmx_core
open Tmx_exec

type fence_site = { thread : int; loc : string }

let pp_fence_site ppf s = Fmt.pf ppf "T%d:%s" s.thread s.loc
let compare_fence_site a b = compare (a.thread, a.loc) (b.thread, b.loc)

type result = {
  outcomes : Outcome.t list;
  truncated : bool;
  capped : bool;
  graphs : int;
}

(* -- event helpers ---------------------------------------------------------- *)

let thr (e : Combo.gevent) = e.thread
let txn (e : Combo.gevent) = e.txn
let ab (e : Combo.gevent) = e.aborted
let proto (e : Combo.gevent) = e.proto

let loc_of e =
  match proto e with
  | Proto.PRead (x, _) | Proto.PWrite (x, _) -> Some x
  | _ -> None

let is_read e = match proto e with Proto.PRead _ -> true | _ -> false
let is_write e = match proto e with Proto.PWrite _ -> true | _ -> false
let is_mem e = is_read e || is_write e
let is_fence e = match proto e with Proto.PQfence _ -> true | _ -> false

let write_value e = match proto e with Proto.PWrite (_, v) -> v | _ -> 0

(* -- per-combo static context ------------------------------------------------ *)

(* Everything that does not depend on the candidate's selection: program
   order (three restrictions of it) and the barrier edges — Qx full
   barriers, non-aborted transaction boundaries, inserted DMB LDs. *)
type ctx = {
  combo : Combo.t;
  n : int;
  cls : int array;  (* atomic-class id: the owning PBegin, or the event *)
  strong : Rel.t;  (* barrier-derived ordering, all architectures *)
  ppo_tso : Rel.t;  (* po minus W->R over memory/fence events *)
  po_mem : Rel.t;  (* full po over memory/fence events *)
  po_loc : Rel.t;  (* po restricted to same-location accesses *)
}

let make_ctx ~(fences : fence_site list) (combo : Combo.t) =
  let ev = combo.Combo.ev in
  let n = Array.length ev in
  let cls = Array.init n (fun i -> if txn ev.(i) >= 0 then txn ev.(i) else i) in
  let strong = Rel.create n in
  let ppo_tso = Rel.create n in
  let po_mem = Rel.create n in
  let po_loc = Rel.create n in
  let rel i = is_mem ev.(i) || is_fence ev.(i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if thr ev.(i) = thr ev.(j) && rel i && rel j then begin
        Rel.add po_mem i j;
        (* x86-TSO keeps R->M and W->W; only W->R may reorder *)
        if not (is_write ev.(i) && is_read ev.(j)) then Rel.add ppo_tso i j;
        (match (loc_of ev.(i), loc_of ev.(j)) with
        | Some x, Some y when String.equal x y -> Rel.add po_loc i j
        | _ -> ());
        (* Qx is a full local barrier on every architecture
           (MFENCE / DMB SY / seq_cst fence) *)
        if is_fence ev.(i) || is_fence ev.(j) then Rel.add strong i j
      end
    done
  done;
  (* non-aborted transactions are bounded by full fences (the locked
     region / HTM compilation): everything po-before the Begin is
     ordered before every member, every member before everything
     po-after the resolution *)
  for b = 0 to n - 1 do
    if proto ev.(b) = Proto.PBegin && not (ab ev.(b)) then begin
      let members =
        List.filter (fun m -> txn ev.(m) = b && is_mem ev.(m)) (List.init n Fun.id)
      in
      let res = Option.value (Combo.resolution_of combo b) ~default:(n - 1) in
      for i = 0 to n - 1 do
        if thr ev.(i) = thr ev.(b) && rel i then begin
          if i < b then List.iter (fun m -> Rel.add strong i m) members;
          if i > res then List.iter (fun m -> Rel.add strong m i) members
        end
      done
    end
  done;
  (* inserted anti-load-buffering fences: a DMB LD right after every
     plain load of the site's location orders every po-earlier load
     before everything po-later *)
  List.iter
    (fun site ->
      for r = 0 to n - 1 do
        if
          thr ev.(r) = site.thread && txn ev.(r) < 0 && is_read ev.(r)
          && loc_of ev.(r) = Some site.loc
        then
          for i = 0 to n - 1 do
            if thr ev.(i) = thr ev.(r) then begin
              if i <= r && is_read ev.(i) then
                for j = r + 1 to n - 1 do
                  if thr ev.(j) = thr ev.(r) && rel j then Rel.add strong i j
                done
            end
          done
      done)
    fences;
  { combo; n; cls; strong; ppo_tso; po_mem; po_loc }

(* -- one candidate ----------------------------------------------------------- *)

let lifted_acyclic ctx rel =
  let q = Rel.create ctx.n in
  Rel.iter rel (fun i j ->
      if ctx.cls.(i) <> ctx.cls.(j) then Rel.add q ctx.cls.(i) ctx.cls.(j));
  Rel.is_acyclic q

let judge arch ctx { Combo.rf_sel; ww_sel; fence_sel } =
  let ev = ctx.combo.Combo.ev in
  let n = ctx.n in
  (* reads-from; external part; transaction-to-transaction part *)
  let rf = Rel.create n and rfe = Rel.create n and sw = Rel.create n in
  List.iter
    (fun (r, w) ->
      if w >= 0 then begin
        Rel.add rf w r;
        if thr ev.(w) <> thr ev.(r) then Rel.add rfe w r;
        if
          txn ev.(w) >= 0 && (not (ab ev.(w)))
          && txn ev.(r) >= 0
          && (not (ab ev.(r)))
          && ctx.cls.(w) <> ctx.cls.(r)
        then Rel.add sw w r
      end)
    rf_sel;
  (* coherence over non-aborted writes, in the chosen order *)
  let co = Rel.create n and coe = Rel.create n in
  List.iter
    (fun (_x, perm) ->
      let live = List.filter (fun j -> not (ab ev.(j))) perm in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                Rel.add co a b;
                if thr ev.(a) <> thr ev.(b) then Rel.add coe a b)
              rest;
            pairs rest
      in
      pairs live)
    ww_sel;
  (* from-reads of non-aborted readers (aborted speculation imposes no
     antidependencies, mirroring crw in the LTRF anti axioms); a read of
     the initial value precedes every live write of its location *)
  let fr = Rel.create n and fre = Rel.create n in
  List.iter
    (fun (r, w) ->
      if not (ab ev.(r)) then begin
        let x =
          match proto ev.(r) with Proto.PRead (x, _) -> x | _ -> assert false
        in
        let live =
          List.filter (fun j -> not (ab ev.(j))) (Combo.writes_of ctx.combo x)
        in
        List.iter
          (fun j ->
            if (w = -1 || Rel.mem co w j) && j <> w then begin
              Rel.add fr r j;
              if thr ev.(r) <> thr ev.(j) then Rel.add fre r j
            end)
          live
      end)
    rf_sel;
  (* the runtime's quiescence ordering: the WF12 side chosen for each
     (fence, transaction) pair is enforced by waiting, so it is a hard
     ordering on every architecture *)
  let qc = Rel.create n in
  List.iter
    (fun ((q, b), choice) ->
      for m = 0 to n - 1 do
        if txn ev.(m) = b && is_mem ev.(m) then
          match (choice : Combo.fence_choice) with
          | Combo.Commit_before -> Rel.add qc m q
          | Combo.Fence_before -> Rel.add qc q m
      done)
    fence_sel;
  (* SC per location, all architectures *)
  Rel.is_acyclic (Rel.union_many [ ctx.po_loc; rf; co; fr ])
  &&
  match (arch : Arch.t) with
  | Arch.X86tso ->
      lifted_acyclic ctx
        (Rel.union_many [ ctx.ppo_tso; ctx.strong; qc; rfe; co; fr ])
  | Arch.Armv8 ->
      lifted_acyclic ctx (Rel.union_many [ ctx.strong; qc; rfe; coe; fre ])
  | Arch.Rc11 ->
      let hb_base = Rel.union_many [ ctx.po_mem; sw; ctx.strong; qc ] in
      let eco = Rel.transitive_closure (Rel.union_many [ rf; co; fr ]) in
      (* no-thin-air *)
      Rel.is_acyclic (Rel.union hb_base rf)
      (* coherence *)
      && Rel.irreflexive (Rel.compose (Rel.transitive_closure hb_base) eco)
      (* transactional atomicity *)
      && lifted_acyclic ctx (Rel.union hb_base eco)

let outcome ctx ~ww_sel ~locs =
  let ev = ctx.combo.Combo.ev in
  let mem =
    List.map
      (fun x ->
        let v =
          match List.assoc_opt x ww_sel with
          | None -> 0
          | Some perm ->
              (* coherence-last non-aborted write, like Trace.final_value *)
              List.fold_left
                (fun acc j -> if ab ev.(j) then acc else write_value ev.(j))
                0 perm
        in
        (x, v))
      locs
  in
  Outcome.make
    ~envs:(List.map (fun (p : Proto.path) -> p.env) ctx.combo.Combo.paths)
    ~mem

(* -- the driver --------------------------------------------------------------- *)

let run ?(config = Enumerate.default_config) ?(fences = []) arch program =
  let locs, thread_paths, truncated = Enumerate.unfold_combos config program in
  let outcomes = ref [] in
  let graphs, capped =
    Combo.iter_candidates ~max_graphs:config.max_graphs thread_paths (fun combo ->
        let ctx = make_ctx ~fences combo in
        fun sel ->
          if judge arch ctx sel then
            outcomes := outcome ctx ~ww_sel:sel.Combo.ww_sel ~locs :: !outcomes)
  in
  { outcomes = Outcome.dedup !outcomes; truncated; capped; graphs }

let plain_load_sites ?(config = Enumerate.default_config) program =
  let _, thread_paths, _ = Enumerate.unfold_combos config program in
  let sites = ref [] in
  List.iteri
    (fun t paths ->
      List.iter
        (fun (p : Proto.path) ->
          let in_txn = ref false in
          List.iter
            (fun pr ->
              match pr with
              | Proto.PBegin -> in_txn := true
              | Proto.PCommit | Proto.PAbort -> in_txn := false
              | Proto.PRead (x, _) when not !in_txn ->
                  let s = { thread = t; loc = x } in
                  if not (List.mem s !sites) then sites := s :: !sites
              | _ -> ())
            p.protos)
        paths)
    thread_paths;
  List.sort_uniq compare_fence_site !sites
