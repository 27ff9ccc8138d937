(** Static access summaries: every load/store of a program, per thread
    and per location, with the conservative facts the static race
    analysis needs.

    Computed-index cells ([z\[r\]]) are summarized by the wildcard
    footprint name [z\[*\]], as in {!Tmx_opt.Footprint}: the wildcard
    clashes with every declared cell of the array. *)

open Tmx_lang

type mode = Plain | Transactional
type kind = Read | Write

val pp_mode : mode Fmt.t
val pp_kind : kind Fmt.t

type t = {
  thread : int;
  kind : kind;
  mode : mode;
  loc : string;  (** footprint name; ["z[*]"] for computed cells *)
  path : string;  (** source path, e.g. ["t1.0.atomic.1.then.0"] *)
  stmt : Ast.stmt;  (** the load/store itself *)
  walk : int;
      (** static walk index within the thread (every statement consumes
          one); in a loop-free thread, executed statements execute in
          strictly increasing walk order *)
  in_loop : bool;  (** the access sits inside a [while] body *)
  nonzero_guards : string list;
      (** registers that every dominating branch condition pins nonzero
          whenever this access executes (e.g. the then-branch of
          [if r { ... }], or the else-branch of [if r = 0 { ... }]) *)
  must_abort : bool;
      (** every control path from this access to the end of its
          enclosing transaction hits an [abort], so no dynamic instance
          of the access is ever nonaborted — per-access, so a write in
          an always-aborting branch qualifies even when the transaction
          can also commit *)
  fences_before : string list;
      (** fence locations crossed on every path from the thread start to
          this access *)
  fences_after : string list;
      (** fence locations crossed on every path from this access to the
          thread end *)
  after_atomic : bool;
      (** some atomic block precedes this access in its thread (the
          privatization-shaped suffix of {!Tmx_opt.Fenceify}) *)
  txn_reads : string list;
      (** locations read by the enclosing transaction; empty when plain *)
  txn_writes : string list;
      (** locations written by the enclosing transaction; empty when
          plain *)
  prior_atomic_writes : string list;
      (** locations written by atomic blocks preceding this access in
          its thread *)
  prior_atomic_reads : string list;
      (** locations read by atomic blocks preceding this access in its
          thread *)
  later_atomic_writes : string list;
      (** locations written by atomic blocks following this access in
          its thread (publication-shaped prefix) *)
}

val pp : t Fmt.t

val txn_prefix : string -> string option
(** The path prefix of the enclosing atomic block, if any:
    [txn_prefix "t1.0.atomic.2.then.0" = Some "t1.0.atomic"].  Atomics
    never nest, so the prefix is unique. *)

(** {1 Program-wide context for {!Order}'s guard-dominance rule} *)

type def = {
  def_thread : int;
  reg : string;  (** the register defined *)
  from_load : string option;
      (** the footprint name loaded when the def is [r := x]; [None]
          for register-only assignments *)
  def_walk : int;
  def_txn : string option;
      (** enclosing atomic path when the def is transactional *)
  def_in_loop : bool;
}

type context = {
  ctx_accesses : t list;  (** every access of the program *)
  ctx_defs : def list;  (** every register definition of the program *)
  ctx_loops : bool array;  (** per thread: does it contain a [while]? *)
}

val context : Ast.program -> context

val body_must_abort : Ast.stmt list -> bool
(** Does every control path through a transaction body hit an [abort]?
    Conservative: loops stop the scan, so [false] may be returned for
    bodies that do always abort, never the converse. *)

val of_thread : int -> Ast.thread -> t list
val of_program : Ast.program -> t list

(** {1 Per-location classification} *)

type counts = {
  plain_reads : int;
  plain_writes : int;
  tx_reads : int;
  tx_writes : int;
}

val no_counts : counts

type class_ = Unused | Plain_only | Tx_only | Mixed

val pp_class : class_ Fmt.t
val class_of_counts : counts -> class_

type summary = {
  loc : string;
  class_ : class_;
  counts : counts;
  threads : int list;  (** threads touching the location *)
}

val summaries : Ast.program -> summary list
(** One summary per declared location (in declaration order), followed
    by any undeclared footprint names the program mentions. *)

