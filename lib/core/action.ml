(* Actions of the trace semantics (§2 syntax, extended with the quiescence
   fence of §5).  Locations are strings for readability; threads are ints
   with [init_thread] reserved for the initializing transaction.

   Commit and abort actions carry no transaction name: by WF5 a resolution
   matches the latest unresolved begin of its thread, so the association is
   structural.  This keeps traces stable under the order-preserving
   permutations of §4. *)

type loc = string
type value = int
type thread = int

let init_thread = -1

type t =
  | Write of { loc : loc; value : value; ts : Rat.t }
  | Read of { loc : loc; value : value; ts : Rat.t }
  | Begin
  | Commit
  | Abort
  | Qfence of loc

let is_write = function Write _ -> true | _ -> false
let is_read = function Read _ -> true | _ -> false
let is_memory = function Write _ | Read _ -> true | _ -> false
let is_begin = function Begin -> true | _ -> false
let is_qfence = function Qfence _ -> true | _ -> false

let loc_of = function
  | Write { loc; _ } | Read { loc; _ } -> Some loc
  | Qfence loc -> Some loc
  | Begin | Commit | Abort -> None

let value_of = function
  | Write { value; _ } | Read { value; _ } -> Some value
  | Begin | Commit | Abort | Qfence _ -> None

(* Memory footprint only: a fence is not a memory access (it has its own
   well-formedness and ordering rules). *)
let touches x = function
  | Write { loc; _ } | Read { loc; _ } -> String.equal loc x
  | Begin | Commit | Abort | Qfence _ -> false

let pp ppf = function
  | Write { loc; value; ts } -> Fmt.pf ppf "W%s%d@%a" loc value Rat.pp ts
  | Read { loc; value; ts } -> Fmt.pf ppf "R%s%d@%a" loc value Rat.pp ts
  | Begin -> Fmt.string ppf "B"
  | Commit -> Fmt.string ppf "C"
  | Abort -> Fmt.string ppf "A"
  | Qfence loc -> Fmt.pf ppf "Q%s" loc

type event = { thread : thread; act : t }

let pp_event ppf e = Fmt.pf ppf "<t%d %a>" e.thread pp e.act
