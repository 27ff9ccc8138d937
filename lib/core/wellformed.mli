(** Well-formedness of traces: WF1–WF11 of §2 and WF12 of §5.

    WF2 (unique action names) holds by construction since action ids are
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

val pp_violation : violation Fmt.t

val violations : Trace.t -> violation list
(** Every violation, grouped in this order — WF1; WF3; WF4/WF5; WF6–WF8;
    WF9–WF11; WF12 — and by position within each group.

    Cost: one pass over the [n] positions.  Each read's source is found
    once ({!Trace.wr_source}, O(n)); coherence is compared on the
    timestamps, so no relation is built; WF3, WF9 and WF10/WF11 scan the
    other writes of a write or transactional read, so the pass is O(n²)
    time in the worst case; WF4/WF5 look back from each Begin and
    resolution to its thread's previous one.  A well-formed trace
    allocates nothing but a few closures. *)

val is_well_formed : Trace.t -> bool
