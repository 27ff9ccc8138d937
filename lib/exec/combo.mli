(** One choice of thread paths (a "combo") and its candidate-graph
    machinery, shared by every enumeration strategy: the flattened event
    list with transaction structure, the per-candidate choice points
    (reads-from sources, per-location coherence permutations, fence
    sides), and the WF-constraint linearizer that turns one selection of
    those choices into a concrete well-formed trace.

    The unreduced enumerator and the architecture backends iterate the
    full selection product through {!iter_candidates}; the reduced
    enumerator ({!Tmx_exec.Reduce}) walks the same product as a prefix
    tree, pruning subtrees, and only linearizes the survivors — both
    through the functions here, so a given selection yields
    bit-identical traces whichever strategy picked it
    (docs/ENUMERATION.md). *)

open Tmx_core

type gevent = {
  thread : int;
  proto : Proto.proto;
  txn : int;  (** index of the owning PBegin, or -1 for plain events *)
  aborted : bool;  (** member of an aborted transaction *)
}

val permutations : 'a list -> 'a list list
(** All orderings, in a fixed deterministic order (the enumeration order
    of coherence permutations). *)

val product : 'a list list -> ('a list -> unit) -> unit
(** [product choices k] calls [k] with every selection of one element
    per choice list, rightmost varying fastest — the unreduced
    enumerator's iteration order, which the prefix-tree walk mirrors. *)

val same_txn : gevent array -> int -> int -> bool
(** Same event, or members of the same transaction. *)

type fence_choice = Commit_before | Fence_before
(** The two WF12 sides for an unordered (quiescence fence, transaction)
    pair: the transaction's resolution linearizes before the fence, or
    the fence before the Begin. *)

(** {1 Per-combo preparation}

    Everything about a combo that does not depend on the selection is
    computed once here, so that emitting one execution ({!linearize},
    {!outcome}) fills int arrays from these tables and hashes nothing. *)

type t = {
  paths : Proto.path list;  (** one path per thread, in thread order *)
  ev : gevent array;  (** the flattened events, per-thread blocks *)
  reads : int list;  (** event indices of reads, ascending *)
  fences : int list;  (** event indices of quiescence fences *)
  writes_to : (string, int list) Hashtbl.t;  (** location -> writes *)
  offsets : int array;
      (** thread [i]'s block is [[offsets.(i), offsets.(i + 1))] *)
  po_pred : int array;
      (** each event's program-order predecessor, [-1] for a thread's
          first event *)
  resolution : int array;
      (** per PBegin: the PCommit/PAbort resolving it, else [-1] *)
  loc_writes : int array array;
      (** per read: the writes of its location, ascending; [[||]] for
          other events *)
  emitted : Action.event array array;
      (** [emitted.(i).(k)]: event [i] as a trace event with timestamp
          [k] (memory events; others have the one entry [k = 0]).
          Every trace of the combo shares these values *)
  regs : (string * int) list array;
      (** the paths' normalized register bindings
          ({!Outcome.registers}), shared by every outcome of the combo *)
}

val prepare : Proto.path list -> t
(** O(n) in the combo's events, plus the per-read write tables. *)

val writes_of : t -> string -> int list
val locs_written : t -> string list

val rf_candidates : t -> int -> int list
(** Reads-from candidates of a read: same location and value, aborted
    sources only within the reader's transaction, same-thread sources
    only from earlier in program order.  [-1] encodes the initializing
    write (candidates of value-0 reads always include it). *)

val first_read_width : t -> int option
(** [Some (List.length (rf_candidates c first_read))] — the top level of
    the candidate prefix tree, which the reduced enumerator fans pool tasks
    over; [None] when the combo has no reads. *)

val fence_pairs : t -> ((int * int) * fence_choice list) list
(** The WF12 choice points: one ((fence, Begin), sides) entry per
    quiescence fence and transaction touching its location, with
    same-thread pairs forced to the single side program order allows. *)

val graph_count : t -> int
(** The combo's candidate-graph count:
    Π |rf candidates| × Π |coherence permutations| × Π |fence sides|,
    the product of the reduced walk's level widths, so exactly the
    candidates {!Tmx_exec.Reduce.enumerate} claims.  Exact below its
    saturation bound of 10^9, far above any graph cap.  Cheap arithmetic
    over the prepared indices: the reduced enumerator takes every
    representative's global offset from it. *)

val resolution_of : t -> int -> int option
(** The PCommit/PAbort event resolving transaction [b] (a PBegin), if
    any: a lookup in [resolution]. *)

(** {1 One candidate graph, as the choices that pick it out} *)

(** Keyed (read index, location, fence pair) rather than positional so
    that symmetry reduction can transport a representative combo's
    selection onto an isomorphic combo by renaming the keys
    ({!Tmx_exec.Symmetry.map_selection}). *)
type selection = {
  rf_sel : (int * int) list;
      (** read -> chosen source (-1 = initial value) *)
  ww_sel : (string * int list) list;
      (** location -> coherence permutation *)
  fence_sel : ((int * int) * fence_choice) list;
}

val iter_candidates :
  max_graphs:int -> Proto.path list list -> (t -> selection -> unit) -> int * bool
(** [iter_candidates ~max_graphs thread_paths visit]: the candidate
    loop of the unreduced reference and of the architecture backends.
    It walks the thread-path combos in {!product} order, prepares each
    one, and, when every read has a reads-from candidate, calls
    [visit combo] once and applies the result to each of the combo's
    selections: rf × coherence × fence sides, rightmost varying
    fastest.  One global counter applies the graph cap, and the loop
    stops at the first candidate past it.  Returns [(graphs, capped)]:
    the candidates visited, and whether the cap cut the space. *)

val conflicts : t -> (int * int) array
(** The combo's conflicting pairs [(i, j)], [i < j]: two accesses of
    one location, at least one a write, at least one plain, neither
    aborted ({!Tmx_core.Race.l_conflict} at L = every
    location).  No selection changes them.  Init writes are left out:
    they happen before every combo event, so they never race.  O(n²). *)

val linearize :
  locs:string list -> t -> selection -> (Trace.t * int array) option
(** The one trace of a candidate graph: timestamps from the chosen
    coherence orders, the WF-derived ordering constraints
    (initialization, program order, WF8 reads-from, WF9–WF11 obscured
    accesses, WF12 fence sides), and a topological sort preferring to
    keep the open transaction contiguous.  [None] when the constraints
    are cyclic (no well-formed linearization exists).  The trace comes
    with its order: combo event [order.(p)] sits at trace position
    [List.length locs + 2 + p].  Every produced
    trace is re-checked against the full well-formedness scan; a
    violation raises, as an enumerator-bug detector.

    Cost, for [n] combo events, [e] constraint edges and [l] locations:
    the constraints and the sort fill int arrays in O(e + n²) (the sort
    scans for the next available event), with one list cell per edge;
    the trace is one array of [n + l + 2] events, built through
    {!Trace.of_array}, whose combo events come from [emitted]; the
    well-formedness scan ({!Wellformed.violations}) is O(n²).  No hash
    table is built and no string is hashed. *)

val outcome : locs:string list -> t -> Trace.t -> Outcome.t
(** Final registers: the combo's [regs], shared.  Final memory:
    {!Trace.final_memory}, one scan of the trace. *)
