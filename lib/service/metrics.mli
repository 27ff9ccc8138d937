(** Server-side observability: per-verb request counters and latency
    histograms ({!Tmx_runtime.Stm.histogram}), plus the live queue
    depth. *)

type t

val verbs : string list
(** The verbs tracked per-verb; anything else lands in ["other"]. *)

val create : unit -> t
val record : t -> verb:string -> ok:bool -> latency_ns:int -> unit
val deadline_exceeded : t -> unit
val incr_inflight : t -> unit
val decr_inflight : t -> unit
val inflight : t -> int

val shed : t -> unit
(** Count one request refused by admission control. *)

type verb_stats = {
  requests : int;
  errors : int;
  latency_ns : Tmx_runtime.Stm.histogram;
}

type snapshot = {
  per_verb : (string * verb_stats) list;  (** in {!verbs} order *)
  total_requests : int;
  total_errors : int;
  deadlines_exceeded : int;
  sheds : int;  (** requests refused by admission control *)
  queue_depth : int;  (** requests in flight at snapshot time *)
}

val snapshot : t -> snapshot
val snapshot_to_json : snapshot -> Json.t
