(* One choice of thread paths ("combo") and its candidate-graph
   machinery, shared by every enumeration strategy: the event list with
   transaction structure, the per-candidate choice points (reads-from
   sources, per-location coherence permutations, fence sides), and the
   WF-constraint linearizer that turns one selection of those choices
   into a concrete well-formed trace.

   The unreduced enumerator and the architecture backends iterate the
   full selection product through [iter_candidates]; the reduced
   enumerator walks the same product as a prefix tree, pruning
   subtrees, and only linearizes the survivors — both through the
   functions here, so a given selection yields bit-identical traces
   whichever strategy picked it. *)

open Tmx_core

type gevent = {
  thread : int;
  proto : Proto.proto;
  txn : int; (* index of owning PBegin, or -1 *)
  aborted : bool; (* in an aborted transaction *)
}

(* The flattened events, one block per thread in thread order, with
   transaction membership (the latest open Begin of the thread, WF5's
   matching) and aborted status; and the thread offsets: thread i's
   block is [offsets.(i), offsets.(i + 1)). *)
let build_events (paths : Proto.path list) =
  let offsets = Array.make (List.length paths + 1) 0 in
  List.iteri
    (fun i (p : Proto.path) -> offsets.(i + 1) <- offsets.(i) + List.length p.protos)
    paths;
  let events =
    Array.of_list
      (List.concat
         (List.mapi
            (fun thread (p : Proto.path) ->
              List.map (fun proto -> { thread; proto; txn = -1; aborted = false }) p.protos)
            paths))
  in
  let n = Array.length events in
  let open_txn = ref (-1) in
  for i = 0 to n - 1 do
    let e = events.(i) in
    if i = 0 || events.(i - 1).thread <> e.thread then open_txn := -1;
    match e.proto with
    | Proto.PBegin ->
        open_txn := i;
        events.(i) <- { e with txn = i }
    | Proto.PCommit | Proto.PAbort ->
        events.(i) <- { e with txn = !open_txn };
        open_txn := -1
    | _ -> events.(i) <- { e with txn = !open_txn }
  done;
  let aborted = Array.make n false in
  Array.iter
    (fun e ->
      match e.proto with Proto.PAbort when e.txn >= 0 -> aborted.(e.txn) <- true | _ -> ())
    events;
  (Array.map (fun e -> { e with aborted = e.txn >= 0 && aborted.(e.txn) }) events, offsets)

(* -- small combinatorics helpers ----------------------------------------- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* product over a list of choice lists, calling [k] with each selection
   (as a list aligned with the input). *)
let rec product choices k =
  match choices with
  | [] -> k []
  | c :: rest -> List.iter (fun x -> product rest (fun sel -> k (x :: sel))) c

let same_txn (ev : gevent array) i j = i = j || (ev.(i).txn >= 0 && ev.(i).txn = ev.(j).txn)

let txn_touches_loc (ev : gevent array) b x =
  let n = Array.length ev in
  let rec go i =
    i < n
    && ((ev.(i).txn = b
        &&
        match ev.(i).proto with
        | Proto.PWrite (y, _) | Proto.PRead (y, _) -> String.equal x y
        | _ -> false)
       || go (i + 1))
  in
  go 0

type fence_choice = Commit_before | Fence_before

(* -- per-combo preparation ------------------------------------------------ *)

type t = {
  paths : Proto.path list;
  ev : gevent array;
  reads : int list;
  fences : int list;
  writes_to : (string, int list) Hashtbl.t;
  offsets : int array; (* thread i's events: [offsets.(i), offsets.(i + 1)) *)
  po_pred : int array; (* program-order predecessor, -1 for a thread's first *)
  resolution : int array; (* per Begin: its PCommit/PAbort, else -1 *)
  loc_writes : int array array; (* per read: its location's writes; [||] else *)
  emitted : Action.event array array; (* per event, per timestamp: the trace event *)
  regs : (string * int) list array; (* Outcome.registers of the paths' envs *)
}

let prepare (paths : Proto.path list) =
  let ev, offsets = build_events paths in
  let n = Array.length ev in
  let reads = ref [] and fences = ref [] in
  let writes_to = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    match ev.(i).proto with
    | Proto.PRead _ -> reads := i :: !reads
    | Proto.PWrite (x, _) ->
        Hashtbl.replace writes_to x (i :: Option.value (Hashtbl.find_opt writes_to x) ~default:[])
    | Proto.PQfence _ -> fences := i :: !fences
    | _ -> ()
  done;
  let po_pred =
    Array.init n (fun i -> if i > 0 && ev.(i - 1).thread = ev.(i).thread then i - 1 else -1)
  in
  let resolution = Array.make n (-1) in
  Array.iteri
    (fun i e ->
      match e.proto with
      | (Proto.PCommit | Proto.PAbort) when e.txn >= 0 && resolution.(e.txn) < 0 ->
          resolution.(e.txn) <- i
      | _ -> ())
    ev;
  let loc_writes =
    Array.map
      (fun e ->
        match e.proto with
        | Proto.PRead (x, _) ->
            Array.of_list (Option.value (Hashtbl.find_opt writes_to x) ~default:[])
        | _ -> [||])
      ev
  in
  (* each event as a trace event, once per timestamp it can take: a
     write's position in its location's coherence order (1-based), a
     read's source's (0 for the initial value) *)
  let stamps = Array.init (n + 1) Rat.of_int in
  let emitted =
    Array.map
      (fun e ->
        let event act = { Action.thread = e.thread; act } in
        let per_stamp x mk =
          let m = List.length (Option.value (Hashtbl.find_opt writes_to x) ~default:[]) in
          Array.init (m + 1) (fun k -> event (mk stamps.(k)))
        in
        match e.proto with
        | Proto.PWrite (x, v) -> per_stamp x (fun ts -> Action.Write { loc = x; value = v; ts })
        | Proto.PRead (x, v) -> per_stamp x (fun ts -> Action.Read { loc = x; value = v; ts })
        | Proto.PBegin -> [| event Action.Begin |]
        | Proto.PCommit -> [| event Action.Commit |]
        | Proto.PAbort -> [| event Action.Abort |]
        | Proto.PQfence x -> [| event (Action.Qfence x) |])
      ev
  in
  {
    paths;
    ev;
    reads = !reads;
    fences = !fences;
    writes_to;
    offsets;
    po_pred;
    resolution;
    loc_writes;
    emitted;
    regs = Outcome.registers (List.map (fun (p : Proto.path) -> p.env) paths);
  }

let writes_of combo x = Option.value (Hashtbl.find_opt combo.writes_to x) ~default:[]

let locs_written combo =
  List.sort_uniq compare
    (Hashtbl.fold (fun x _ acc -> x :: acc) combo.writes_to [])

(* reads-from candidates: same location and value; an aborted source
   must be in the reader's own transaction; a same-thread source must
   precede the read in program order (else no linearization can put it
   before the read). [-1] encodes reading the initial value 0. *)
let rf_candidates combo i =
  let ev = combo.ev in
  match ev.(i).proto with
  | Proto.PRead (x, v) ->
      let from_writes =
        List.filter
          (fun j ->
            (match ev.(j).proto with
            | Proto.PWrite (_, w) -> w = v
            | _ -> false)
            && (not (ev.(j).aborted && not (same_txn ev i j)))
            && not (ev.(j).thread = ev.(i).thread && j > i))
          (writes_of combo x)
      in
      if v = 0 then -1 :: from_writes else from_writes
  | _ -> assert false

(* Reads-from candidates of the combo's first read — the top level of
   the candidate prefix tree, which the reduced enumerator fans pool tasks
   over.  [None] when the combo has no reads. *)
let first_read_width combo =
  match combo.reads with
  | [] -> None
  | r :: _ -> Some (List.length (rf_candidates combo r))

(* fence ordering choices per (fence, transaction touching its
   location): same-thread pairs are forced by program order. *)
let fence_pairs combo =
  let ev = combo.ev in
  let n = Array.length ev in
  List.concat_map
    (fun q ->
      let x = match ev.(q).proto with Proto.PQfence x -> x | _ -> assert false in
      List.filter_map
        (fun b ->
          if ev.(b).proto = Proto.PBegin && txn_touches_loc ev b x then
            if ev.(b).thread = ev.(q).thread then
              (* forced: the side matching program order *)
              if b < q then Some ((q, b), [ Commit_before ])
              else Some ((q, b), [ Fence_before ])
            else Some ((q, b), [ Commit_before; Fence_before ])
          else None)
        (List.init n Fun.id))
    combo.fences

(* A combo's candidate-graph count: Π |rf candidates| × Π |coherence
   permutations| × Π |fence sides|, the product of the reduced walk's
   level widths.  Exact below its saturation bound of 10^9, far above
   any graph cap; cheap arithmetic over the prepared indices. *)
let graph_count combo =
  let cap = 1_000_000_000 in
  let sat a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b in
  let rec fact k = if k <= 1 then 1 else sat k (fact (k - 1)) in
  let rf =
    List.fold_left
      (fun acc r -> sat acc (List.length (rf_candidates combo r)))
      1 combo.reads
  in
  let ww =
    Hashtbl.fold (fun _x ws acc -> sat acc (fact (List.length ws))) combo.writes_to 1
  in
  let fences =
    List.fold_left (fun acc (_, opts) -> sat acc (List.length opts)) 1 (fence_pairs combo)
  in
  sat (sat rf ww) fences

(* the resolution (Commit or Abort) of transaction [b], if any *)
let resolution_of combo b =
  if b >= 0 && combo.resolution.(b) >= 0 then Some combo.resolution.(b) else None

(* The combo's conflicting pairs (i, j), i < j: two
   accesses of one location, at least one a write, at least one plain,
   neither aborted — [Race.l_conflict] at L = Loc, which no selection
   changes.  Init writes are left out: they happen before every combo
   event, so they never race. *)
let conflicts combo =
  let ev = combo.ev in
  let access e =
    match e.proto with
    | Proto.PWrite (x, _) -> Some (x, true)
    | Proto.PRead (x, _) -> Some (x, false)
    | _ -> None
  in
  let acc = ref [] in
  for j = Array.length ev - 1 downto 1 do
    match access ev.(j) with
    | Some (y, wj) when not ev.(j).aborted ->
        for i = j - 1 downto 0 do
          match access ev.(i) with
          | Some (x, wi)
            when String.equal x y
                 && (wi || wj)
                 && (ev.(i).txn < 0 || ev.(j).txn < 0)
                 && not ev.(i).aborted ->
              acc := (i, j) :: !acc
          | _ -> ()
        done
    | _ -> ()
  done;
  Array.of_list !acc

(* -- one candidate graph, as the choices that pick it out ----------------- *)

(* A selection is keyed (read index, location, fence pair) rather than
   positional so that symmetry reduction can transport a representative
   combo's selection onto an isomorphic combo by renaming the keys. *)
type selection = {
  rf_sel : (int * int) list; (* read -> chosen source (-1 = initial value) *)
  ww_sel : (string * int list) list; (* location -> coherence permutation *)
  fence_sel : ((int * int) * fence_choice) list;
}

(* -- the candidate loop ----------------------------------------------------- *)

exception Capped

(* Every candidate graph in the reference's order: thread-path combos
   in product order, and within a combo its rf × coherence × fence
   product, rightmost varying fastest.  One global counter applies the
   cap: the loop stops at the first candidate past it. *)
let iter_candidates ~max_graphs thread_paths visit =
  let graphs = ref 0 in
  let capped =
    try
      product thread_paths (fun paths ->
          let combo = prepare paths in
          let rf_choices = List.map (rf_candidates combo) combo.reads in
          if not (List.mem [] rf_choices) then begin
            let judge = visit combo in
            let written = locs_written combo in
            let ww_choices = List.map (fun x -> permutations (writes_of combo x)) written in
            let fences = fence_pairs combo in
            let keys = List.map fst fences and sides = List.map snd fences in
            product rf_choices (fun rf ->
                product ww_choices (fun ww ->
                    product sides (fun fs ->
                        if !graphs >= max_graphs then raise_notrace Capped;
                        incr graphs;
                        judge
                          {
                            rf_sel = List.combine combo.reads rf;
                            ww_sel = List.combine written ww;
                            fence_sel = List.combine keys fs;
                          })))
          end);
      false
    with Capped -> true
  in
  (!graphs, capped)

(* -- linearization -------------------------------------------------------- *)

(* Build the one trace of a candidate graph: timestamps from the chosen
   coherence orders, the WF-derived ordering constraints
   (initialization, program order, WF8 reads-from, WF9–WF11 obscured
   accesses, WF12 fence sides), and a topological sort that prefers to
   keep the open transaction contiguous.  [None] when the constraints
   are cyclic (the candidate has no well-formed linearization).  Every
   produced trace is re-checked against the full well-formedness scan; a
   violation raises, as an enumerator-bug detector.

   Everything here is an int array indexed by combo event, filled from
   the selection and the per-combo tables of [prepare]; a write's
   timestamp is its 1-based position in its location's chosen coherence
   order, and a read's is its source's (0 for the initial value).  The
   trace comes with the order it was built from: combo event [order.(p)]
   sits at trace position [#locs + 2 + p]. *)
let linearize ~locs combo { rf_sel; ww_sel; fence_sel } =
  let ev = combo.ev in
  let n = Array.length ev in
  let co = Array.make n 0 in
  List.iter (fun (_x, perm) -> List.iteri (fun k j -> co.(j) <- k + 1) perm) ww_sel;
  let src = Array.make n (-1) in
  List.iter (fun (r, w) -> src.(r) <- w) rf_sel;
  let ts_of_read r = if src.(r) < 0 then 0 else co.(src.(r)) in
  (* WF-derived ordering constraints *)
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let edge a b =
    succs.(a) <- b :: succs.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  (* program order: consecutive events of each thread *)
  Array.iteri (fun i p -> if p >= 0 then edge p i) combo.po_pred;
  (* reads-from (WF8) *)
  List.iter (fun (r, w) -> if w >= 0 then edge w r) rf_sel;
  (* WF9: transactional write before any coherence-later committed
     transactional write *)
  let rec wf9 = function
    | [] -> ()
    | b :: later ->
        if ev.(b).txn >= 0 then
          List.iter (fun c -> if ev.(c).txn >= 0 && not ev.(c).aborted then edge b c) later;
        wf9 later
  in
  List.iter (fun (_x, perm) -> wf9 perm) ww_sel;
  (* WF10/WF11: a read before any write that obscures its source
     (committed-foreign for transactional sources, same-transaction
     always) *)
  List.iter
    (fun (r, w) ->
      if ev.(r).txn >= 0 then begin
        let src_ts = ts_of_read r in
        (* the initializing write is transactional (committed), like any
           other member of the initializing transaction *)
        let src_is_txn = w = -1 || ev.(w).txn >= 0 in
        Array.iter
          (fun c ->
            if src_ts < co.(c) then begin
              if src_is_txn && ev.(c).txn >= 0 && not ev.(c).aborted then edge r c;
              if same_txn ev r c then edge r c
            end)
          combo.loc_writes.(r)
      end)
    rf_sel;
  (* fence choices (WF12) *)
  List.iter
    (fun ((q, b), choice) ->
      match choice with
      | Commit_before ->
          (* resolution of txn b before fence q *)
          if combo.resolution.(b) >= 0 then edge combo.resolution.(b) q
      | Fence_before -> edge q b)
    fence_sel;
  (* topological sort: the first available event of the currently open
     transaction, else the first available event; every event below
     [lo] is placed *)
  let order = Array.make n 0 in
  let placed = Array.make n false in
  let rec release = function
    | [] -> ()
    | j :: rest ->
        indeg.(j) <- indeg.(j) - 1;
        release rest
  in
  let count = ref 0 and lo = ref 0 in
  let current_txn = ref (-1) in
  let ok = ref true in
  while !ok && !count < n do
    while placed.(!lo) do
      incr lo
    done;
    let pick = ref (-1) and i = ref !lo in
    while !i < n do
      let k = !i in
      if (not placed.(k)) && indeg.(k) = 0 then begin
        if !pick = -1 then pick := k;
        if !current_txn < 0 then i := n
        else if ev.(k).txn = !current_txn then begin
          pick := k;
          i := n
        end
      end;
      incr i
    done;
    if !pick = -1 then ok := false
    else begin
      let k = !pick in
      placed.(k) <- true;
      order.(!count) <- k;
      incr count;
      (match ev.(k).proto with
      | Proto.PBegin -> current_txn := k
      | Proto.PCommit | Proto.PAbort -> current_txn := -1
      | _ -> ());
      release succs.(k)
    end
  done;
  if not !ok then None
  else begin
    (* the trace: the WF1 initializing transaction, then the order *)
    let init = Trace.init_events locs in
    let ni = List.length init in
    let events = Array.make (ni + n) (List.hd init) in
    List.iteri (fun k e -> events.(k) <- e) init;
    Array.iteri
      (fun p i ->
        let stamp =
          match ev.(i).proto with
          | Proto.PWrite _ -> co.(i)
          | Proto.PRead _ -> ts_of_read i
          | _ -> 0
        in
        events.(ni + p) <- combo.emitted.(i).(stamp))
      order;
    let trace = Trace.of_array ~locs events in
    (match Wellformed.violations trace with
    | [] -> ()
    | vs ->
        Fmt.failwith
          "Enumerate: internal error, ill-formed linearization:@ %a@ trace:@ %a"
          Fmt.(list ~sep:comma Wellformed.pp_violation)
          vs Trace.pp trace);
    Some (trace, order)
  end

let outcome ~locs combo trace =
  Outcome.of_registers combo.regs ~mem:(Trace.final_memory trace locs)
