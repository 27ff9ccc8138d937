(* Well-formedness of traces: WF1–WF11 (§2) and WF12 (§5).

   WF2 (unique action names) holds by construction, since action ids are
   trace positions. *)

type violation =
  | WF1_no_init
  | WF3_duplicate_timestamp of int * int
  | WF4_unmatched_resolution of int
  | WF5_nested_begin of int
  | WF6_unfulfilled_read of int
  | WF7_aborted_source of int * int
  | WF8_read_from_future of int * int
  | WF9_txn_write_order of int * int
  | WF10_txn_read_order of int * int
  | WF11_same_txn_order of int * int
  | WF12_fence_overlap of int * int

let pp_violation ppf = function
  | WF1_no_init -> Fmt.string ppf "WF1: missing initializing transaction"
  | WF3_duplicate_timestamp (i, j) -> Fmt.pf ppf "WF3: duplicate timestamp at %d,%d" i j
  | WF4_unmatched_resolution i -> Fmt.pf ppf "WF4: resolution without begin at %d" i
  | WF5_nested_begin i -> Fmt.pf ppf "WF5: nested begin at %d" i
  | WF6_unfulfilled_read i -> Fmt.pf ppf "WF6: unfulfilled read at %d" i
  | WF7_aborted_source (a, b) -> Fmt.pf ppf "WF7: read %d from aborted/live foreign write %d" b a
  | WF8_read_from_future (a, b) -> Fmt.pf ppf "WF8: read %d sees future write %d" b a
  | WF9_txn_write_order (b, c) -> Fmt.pf ppf "WF9: txn write %d ww-before earlier %d" b c
  | WF10_txn_read_order (b, c) -> Fmt.pf ppf "WF10: txn read %d obscured by earlier %d" b c
  | WF11_same_txn_order (b, c) -> Fmt.pf ppf "WF11: read %d obscured by same-txn %d" b c
  | WF12_fence_overlap (b, q) -> Fmt.pf ppf "WF12: txn %d overlaps fence %d" b q

(* WF1: the trace opens with the initializing transaction — a Begin of
   the init thread, one write of 0 at timestamp 0 to each location, each
   location once, then a Commit — and the init thread never acts
   again. *)
let wf1_holds t =
  let locs = Trace.locs t in
  let nl = List.length locs in
  let n = Trace.length t in
  let init_write i =
    match Trace.act t i with
    | Action.Write { value = 0; ts; _ } -> Rat.equal ts Rat.zero
    | _ -> false
  in
  (* only read once positions 1..nl are known to be writes *)
  let loc_at i = match Trace.act t i with Action.Write { loc; _ } -> loc | _ -> "" in
  let rec writes i = i > nl || (init_write i && writes (i + 1)) in
  let rec distinct i =
    i > nl
    ||
    let x = loc_at i in
    let rec fresh k = k >= i || ((not (String.equal (loc_at k) x)) && fresh (k + 1)) in
    fresh 1 && distinct (i + 1)
  in
  let covered x =
    let rec go k = k <= nl && (String.equal (loc_at k) x || go (k + 1)) in
    go 1
  in
  let rec no_more i = i >= n || ((not (Trace.is_init t i)) && no_more (i + 1)) in
  n >= nl + 2
  && Action.is_begin (Trace.act t 0)
  && Trace.is_init t 0
  && writes 1
  && distinct 1
  && List.for_all covered locs
  && (match Trace.act t (nl + 1) with Action.Commit -> true | _ -> false)
  && no_more (nl + 2)

(* WF3–WF12 in one pass over the positions.  Each position checks the
   conditions it is the subject of: a write its later duplicates (WF3)
   and, when transactional, the earlier committed-or-live writes it is
   ww-before (WF9); a resolution or Begin its bracket (WF4/WF5); a read
   its source, found once (WF6–WF8), and, when transactional, the
   earlier writes that obscure it (WF10/WF11); a fence the transactions
   it overlaps (WF12).  Coherence is read off the timestamps (a ww c iff
   same location and ts a < ts c), not a materialized relation.  Each
   group of conditions keeps its own list, so the result has the order
   of a scan per group: WF1, WF3, WF4/WF5, WF6–WF8, WF9–WF11, WF12. *)
let violations t =
  let n = Trace.length t in
  (* WF4/WF5 are rescanned rather than read off [Trace]'s analysis,
     which silently repairs both defects: a thread has an open
     transaction before position i when its latest Begin or resolution
     before i is a Begin *)
  let open_before i =
    let th = Trace.thread t i in
    let rec go p =
      p >= 0
      &&
      if Trace.thread t p <> th then go (p - 1)
      else
        match Trace.act t p with
        | Action.Begin -> true
        | Action.Commit | Action.Abort -> false
        | Action.Write _ | Action.Read _ | Action.Qfence _ -> go (p - 1)
    in
    go (i - 1)
  in
  let wf3 = ref [] and brackets = ref [] and reads = ref [] in
  let interleavings = ref [] and wf12 = ref [] in
  for i = 0 to n - 1 do
    match Trace.act t i with
    | Action.Begin -> if open_before i then brackets := WF5_nested_begin i :: !brackets
    | Action.Commit | Action.Abort ->
        if not (open_before i) then brackets := WF4_unmatched_resolution i :: !brackets
    | Action.Write { loc; ts; _ } ->
        for j = i + 1 to n - 1 do
          match Trace.act t j with
          | Action.Write w when Rat.equal w.ts ts && String.equal w.loc loc ->
              wf3 := WF3_duplicate_timestamp (i, j) :: !wf3
          | _ -> ()
        done;
        (* WF9: a transactional write may not be ww-before an earlier
           committed-or-live transactional write *)
        if Trace.is_transactional t i then
          for c = 0 to i - 1 do
            match Trace.act t c with
            | Action.Write w
              when Rat.lt ts w.ts && String.equal w.loc loc
                   && Trace.is_committed_or_live_txn t c ->
                interleavings := WF9_txn_write_order (i, c) :: !interleavings
            | _ -> ()
          done
    | Action.Read { loc; ts; _ } -> (
        match Trace.wr_source t i with
        | None -> reads := WF6_unfulfilled_read i :: !reads
        | Some a ->
            if a > i then reads := WF8_read_from_future (a, i) :: !reads;
            let a_txn = Trace.is_transactional t a in
            if a_txn && Trace.status t a <> Some Trace.Committed && not (Trace.same_txn t a i)
            then reads := WF7_aborted_source (a, i) :: !reads;
            (* the source has the read's location and timestamp, so
               a ww c iff c writes there later in coherence *)
            if Trace.is_transactional t i then
              for c = 0 to i - 1 do
                match Trace.act t c with
                | Action.Write w when Rat.lt ts w.ts && String.equal w.loc loc ->
                    (* WF10: transactional source obscured by an earlier
                       committed-or-live write *)
                    if a_txn && Trace.is_committed_or_live_txn t c then
                      interleavings := WF10_txn_read_order (i, c) :: !interleavings;
                    (* WF11: source obscured by an earlier same-transaction
                       write *)
                    if Trace.same_txn t c i then
                      interleavings := WF11_same_txn_order (i, c) :: !interleavings
                | _ -> ()
              done)
    | Action.Qfence x ->
        for b = 0 to i - 1 do
          if Action.is_begin (Trace.act t b) && Trace.txn_touches t b x then
            match Trace.resolution_of_txn t b with
            | Some r when r < i -> ()
            | _ -> wf12 := WF12_fence_overlap (b, i) :: !wf12
        done
  done;
  (if wf1_holds t then [] else [ WF1_no_init ])
  @ List.rev !wf3 @ List.rev !brackets @ List.rev !reads @ List.rev !interleavings
  @ List.rev !wf12

let is_well_formed t = violations t = []
