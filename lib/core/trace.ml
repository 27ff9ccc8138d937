(* Traces and the relations derived from them (§2).

   A trace is a finite sequence of events; the action id of the paper is
   the event's position.  From the sequence we derive the transaction
   structure (which events belong to which transaction, and each
   transaction's resolution status) and the base relations: index, init,
   po, ww, wr and rw. *)

type status = Committed | Aborted | Live

let pp_status ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted -> Fmt.string ppf "aborted"
  | Live -> Fmt.string ppf "live"

type t = {
  events : Action.event array;
  locs : string list;
  txn_of : int array; (* position of the owning Begin, or -1 for plain *)
  resolution_of : int array; (* per Begin position: resolution position or -1 *)
  txn_status : status array; (* per position, meaningful where txn_of >= 0 *)
}

let events t = t.events
let length t = Array.length t.events
let event t i = t.events.(i)
let act t i = t.events.(i).Action.act
let thread t i = t.events.(i).Action.thread
let locs t = t.locs

(* Scan the sequence assigning each event to the open transaction of its
   thread, WF5-style: a resolution closes the latest open begin.  The
   thread's open transaction before position i is read off its previous
   event p: p itself after a Begin, none after a resolution, else p's
   own transaction. *)
let rec previous events thread p =
  if p < 0 || events.(p).Action.thread = thread then p else previous events thread (p - 1)

let analyze events =
  let n = Array.length events in
  let txn_of = Array.make n (-1) in
  let resolution_of = Array.make n (-1) in
  for i = 0 to n - 1 do
    let { Action.thread; act } = events.(i) in
    let p = previous events thread (i - 1) in
    let current =
      if p < 0 then -1
      else
        match events.(p).Action.act with
        | Action.Begin -> p
        | Action.Commit | Action.Abort -> -1
        | Action.Write _ | Action.Read _ | Action.Qfence _ -> txn_of.(p)
    in
    match act with
    | Action.Begin -> txn_of.(i) <- i
    | Action.Commit | Action.Abort ->
        txn_of.(i) <- current;
        if current >= 0 then resolution_of.(current) <- i
    | Action.Write _ | Action.Read _ | Action.Qfence _ -> txn_of.(i) <- current
  done;
  let txn_status =
    Array.init n (fun i ->
        let b = txn_of.(i) in
        if b < 0 then Committed (* unused for plain events *)
        else
          let r = resolution_of.(b) in
          if r < 0 then Live
          else
            match events.(r).Action.act with
            | Action.Commit -> Committed
            | Action.Abort -> Aborted
            | _ -> assert false)
  in
  (txn_of, resolution_of, txn_status)

let of_array ~locs events =
  let txn_of, resolution_of, txn_status = analyze events in
  { events; locs; txn_of; resolution_of; txn_status }

let of_events ~locs events = of_array ~locs (Array.of_list events)

let init_events locs =
  ({ Action.thread = Action.init_thread; act = Action.Begin }
  :: List.map
       (fun loc ->
         {
           Action.thread = Action.init_thread;
           act = Action.Write { loc; value = 0; ts = Rat.zero };
         })
       locs)
  @ [ { Action.thread = Action.init_thread; act = Action.Commit } ]

let make ~locs body = of_events ~locs (init_events locs @ body)

(* -- per-event predicates ------------------------------------------------ *)

let txn_of t i = t.txn_of.(i)
let is_transactional t i = t.txn_of.(i) >= 0
let is_plain t i = t.txn_of.(i) < 0

let same_txn t i j = i = j || (t.txn_of.(i) >= 0 && t.txn_of.(i) = t.txn_of.(j))

let status t i = if t.txn_of.(i) < 0 then None else Some t.txn_status.(i)
let is_aborted t i = t.txn_of.(i) >= 0 && t.txn_status.(i) = Aborted
let is_nonaborted t i = not (is_aborted t i)

(* "committed or live" in WF9/WF10 and the c-lifted relations: a
   transactional action whose transaction is not aborted. *)
let is_committed_or_live_txn t i = t.txn_of.(i) >= 0 && t.txn_status.(i) <> Aborted

let is_init t i = (event t i).Action.thread = Action.init_thread

let resolution_of_txn t b = if t.resolution_of.(b) < 0 then None else Some t.resolution_of.(b)

let txn_touches t b x =
  let n = length t in
  let rec go i = i < n && ((t.txn_of.(i) = b && Action.touches x (act t i)) || go (i + 1)) in
  go 0

let txn_members t b =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if t.txn_of.(i) = b then acc := i :: !acc
  done;
  !acc

let txns t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if Action.is_begin (act t i) then acc := i :: !acc
  done;
  !acc

(* -- base relations ------------------------------------------------------ *)

let rel_index t = Rel.of_pred (length t) (fun i j -> i < j)

let rel_init t =
  Rel.of_pred (length t) (fun i j -> is_init t i && not (is_init t j))

let rel_po t =
  Rel.of_pred (length t) (fun i j -> i < j && thread t i = thread t j)

(* the writes of each location as (position, timestamp), in trace order *)
let writes_by_loc t =
  let by_loc = Hashtbl.create 8 in
  for i = length t - 1 downto 0 do
    match act t i with
    | Action.Write { loc; ts; _ } ->
        Hashtbl.replace by_loc loc
          ((i, ts) :: Option.value (Hashtbl.find_opt by_loc loc) ~default:[])
    | _ -> ()
  done;
  by_loc

let rel_ww t =
  let r = Rel.create (length t) in
  Hashtbl.iter
    (fun _ ws ->
      List.iter
        (fun (i, ti) -> List.iter (fun (j, tj) -> if Rat.lt ti tj then Rel.add r i j) ws)
        ws)
    (writes_by_loc t);
  r

(* a wr b: the read b returns the value the write a wrote, at a's
   location and timestamp.  The one definition of reads-from: [rel_wr],
   [wr_source] and with it WF6–WF11 all test it.  [is_source ~loc ~value
   ~ts a] holds when the action [a] is the write that a read of [value]
   from [loc] at [ts] reads from. *)
let is_source ~loc ~value ~ts = function
  | Action.Write w -> w.value = value && Rat.equal w.ts ts && String.equal w.loc loc
  | _ -> false

let reads_from t a b =
  match act t b with
  | Action.Read { loc; value; ts } -> is_source ~loc ~value ~ts (act t a)
  | _ -> false

let rel_wr t =
  let r = Rel.create (length t) in
  let by_loc = writes_by_loc t in
  for b = 0 to length t - 1 do
    match act t b with
    | Action.Read { loc; _ } ->
        List.iter
          (fun (a, _) -> if reads_from t a b then Rel.add r a b)
          (Option.value (Hashtbl.find_opt by_loc loc) ~default:[])
    | _ -> ()
  done;
  r

(* b rw c iff a wr b and a ww c for some a, and c is plain or nonaborted. *)
let rel_rw t ~wr ~ww =
  Rel.restrict ~dst:(is_nonaborted t) (Rel.compose (Rel.converse wr) ww)

let wr_source t b =
  match act t b with
  | Action.Read { loc; value; ts } ->
      let n = length t in
      let rec go a =
        if a >= n then None
        else if is_source ~loc ~value ~ts (act t a) then Some a
        else go (a + 1)
      in
      go 0
  | _ -> None

(* -- whole-trace queries ------------------------------------------------- *)

let writes_to t x =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    match act t i with
    | Action.Write { loc; _ } when String.equal loc x -> acc := i :: !acc
    | _ -> ()
  done;
  !acc

(* Final values, in one scan: per location of [xs], the position of the
   nonaborted write with the greatest timestamp (the first of equal
   ones), or -1 where no nonaborted write is; and the lookup from a
   location to its slot (its first occurrence in [xs]). *)
let final_writes t xs =
  let names = Array.of_list xs in
  let k = Array.length names in
  let slot x =
    let rec go j = if j >= k then -1 else if String.equal names.(j) x then j else go (j + 1) in
    go 0
  in
  let ts_at i = match act t i with Action.Write w -> w.ts | _ -> assert false in
  let best = Array.make k (-1) in
  for i = 0 to length t - 1 do
    match act t i with
    | Action.Write { loc; ts; _ } when is_nonaborted t i ->
        let j = slot loc in
        if j >= 0 && (best.(j) < 0 || Rat.lt (ts_at best.(j)) ts) then best.(j) <- i
    | _ -> ()
  done;
  (slot, best)

let value_at t i = match act t i with Action.Write w -> w.value | _ -> assert false

let final_value t x =
  let _, best = final_writes t [ x ] in
  if best.(0) < 0 then None else Some (value_at t best.(0))

let final_memory t xs =
  let slot, best = final_writes t xs in
  List.map
    (fun x ->
      let b = best.(slot x) in
      (x, if b < 0 then 0 else value_at t b))
    xs

(* Transaction b is contiguous (§4): a foreign event strictly inside the
   transaction's span forces either the resolution to occur before it, or
   the owner thread to never act again after it. *)
let txn_contiguous t b =
  let s = thread t b in
  let r = t.resolution_of.(b) in
  let n = length t in
  let owner_acts_after c =
    let rec go i = i < n && (thread t i = s || go (i + 1)) in
    go (c + 1)
  in
  let ok = ref true in
  let upper = if r >= 0 then r else n in
  for c = b + 1 to upper - 1 do
    if thread t c <> s && thread t c <> Action.init_thread then
      if owner_acts_after c then ok := false
  done;
  !ok

let all_txns_contiguous t = List.for_all (txn_contiguous t) (txns t)

let all_txns_resolved t =
  List.for_all (fun b -> t.resolution_of.(b) >= 0) (txns t)

(* -- surgery ------------------------------------------------------------- *)

let sub t keep =
  let body = ref [] in
  for i = length t - 1 downto 0 do
    if keep i then body := event t i :: !body
  done;
  of_events ~locs:t.locs !body

(* Theorem 4.2: drop all events of aborted transactions. *)
let drop_aborted t = sub t (fun i -> not (is_aborted t i))

let permute t perm = of_array ~locs:t.locs (Array.map (fun old -> t.events.(old)) perm)

let is_order_preserving t perm =
  (* po is preserved iff each thread's subsequence of events is unchanged. *)
  let pos_of = Array.make (Array.length perm) 0 in
  Array.iteri (fun newp old -> pos_of.(old) <- newp) perm;
  let ok = ref true in
  let n = length t in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if thread t i = thread t j && pos_of.(i) > pos_of.(j) then ok := false
    done
  done;
  !ok

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.iter_bindings ~sep:Fmt.cut
       (fun f t -> Array.iteri (fun i e -> f i e) t.events)
       (fun ppf (i, e) -> Fmt.pf ppf "%3d %a" i Action.pp_event e))
    t

let pp_compact ppf t =
  Fmt.pf ppf "%a"
    Fmt.(array ~sep:(any " ") Action.pp_event)
    t.events
