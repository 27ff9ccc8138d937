(* Test-only reference implementation of the well-formedness scan
   ([Tmx_core.Wellformed.violations]) in its straightforward form: one
   pass per group of conditions, each read's source looked up afresh
   with [Trace.wr_source] every time a condition needs it, coherence
   from the materialized [Trace.rel_ww], and hash tables for the open
   transactions.  The one-pass scan in the library must return the same
   violations in the same order (test_wellformed.ml); nothing outside
   the tests may use it. *)

open Tmx_core

type violation = Wellformed.violation =
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

let check_wf1 t acc =
  let locs = Trace.locs t in
  let expected = List.length locs + 2 in
  let ok =
    Trace.length t >= expected
    && Action.is_begin (Trace.act t 0)
    && Trace.is_init t 0
    && (let seen = Hashtbl.create 8 in
        let rec writes i =
          if i > List.length locs then true
          else
            match Trace.act t i with
            | Action.Write { loc; value = 0; ts } when Rat.equal ts Rat.zero ->
                if Hashtbl.mem seen loc then false
                else begin
                  Hashtbl.add seen loc ();
                  writes (i + 1)
                end
            | _ -> false
        in
        writes 1 && List.for_all (Hashtbl.mem seen) locs)
    && Trace.act t (List.length locs + 1) = Action.Commit
    &&
    (* the init thread never acts again *)
    let rec no_more i =
      i >= Trace.length t || ((not (Trace.is_init t i)) && no_more (i + 1))
    in
    no_more expected
  in
  if ok then acc else WF1_no_init :: acc

let check_wf3 t acc =
  let acc = ref acc in
  let n = Trace.length t in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match (Trace.act t i, Trace.act t j) with
      | Action.Write a, Action.Write b
        when String.equal a.loc b.loc && Rat.equal a.ts b.ts ->
          acc := WF3_duplicate_timestamp (i, j) :: !acc
      | _ -> ()
    done
  done;
  !acc

(* WF4/WF5: resolutions match an open begin; begins do not nest.  We
   rescan rather than trusting [Trace]'s analysis, which silently repairs
   both defects. *)
let check_brackets t acc =
  let acc = ref acc in
  let open_txn = Hashtbl.create 8 in
  for i = 0 to Trace.length t - 1 do
    let th = Trace.thread t i in
    match Trace.act t i with
    | Action.Begin ->
        if Hashtbl.mem open_txn th then acc := WF5_nested_begin i :: !acc;
        Hashtbl.replace open_txn th i
    | Action.Commit | Action.Abort ->
        if not (Hashtbl.mem open_txn th) then
          acc := WF4_unmatched_resolution i :: !acc;
        Hashtbl.remove open_txn th
    | _ -> ()
  done;
  !acc

let check_reads t acc =
  let acc = ref acc in
  for b = 0 to Trace.length t - 1 do
    if Action.is_read (Trace.act t b) then
      match Trace.wr_source t b with
      | None -> acc := WF6_unfulfilled_read b :: !acc
      | Some a ->
          if a > b then acc := WF8_read_from_future (a, b) :: !acc;
          if
            Trace.is_transactional t a
            && Trace.status t a <> Some Trace.Committed
            && not (Trace.same_txn t a b)
          then acc := WF7_aborted_source (a, b) :: !acc
  done;
  !acc

let check_interleavings t acc =
  let acc = ref acc in
  let ww = Trace.rel_ww t in
  let n = Trace.length t in
  for b = 0 to n - 1 do
    if Trace.is_transactional t b then begin
      (* WF9: a transactional write may not be ww-before an earlier
         committed-or-live transactional write. *)
      if Action.is_write (Trace.act t b) then
        for c = 0 to b - 1 do
          if Rel.mem ww b c && Trace.is_committed_or_live_txn t c then
            acc := WF9_txn_write_order (b, c) :: !acc
        done;
      if Action.is_read (Trace.act t b) then
        match Trace.wr_source t b with
        | None -> ()
        | Some a ->
            for c = 0 to b - 1 do
              if Rel.mem ww a c then begin
                (* WF10: transactional source obscured by an earlier
                   committed-or-live write. *)
                if
                  Trace.is_transactional t a
                  && Trace.is_committed_or_live_txn t c
                then acc := WF10_txn_read_order (b, c) :: !acc;
                (* WF11: source obscured by an earlier same-transaction
                   write. *)
                if Trace.same_txn t c b && c <> b then
                  acc := WF11_same_txn_order (b, c) :: !acc
              end
            done
    end
  done;
  !acc

let check_wf12 t acc =
  let acc = ref acc in
  let n = Trace.length t in
  for q = 0 to n - 1 do
    match Trace.act t q with
    | Action.Qfence x ->
        for b = 0 to q - 1 do
          if Action.is_begin (Trace.act t b) && Trace.txn_touches t b x then
            match Trace.resolution_of_txn t b with
            | Some r when r < q -> ()
            | _ -> acc := WF12_fence_overlap (b, q) :: !acc
        done
    | _ -> ()
  done;
  !acc

let violations t =
  []
  |> check_wf1 t
  |> check_wf3 t
  |> check_brackets t
  |> check_reads t
  |> check_interleavings t
  |> check_wf12 t
  |> List.rev

