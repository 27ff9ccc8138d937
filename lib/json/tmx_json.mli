(** The project's one JSON codec: the cache's on-disk entries, the
    serve/client wire protocol, the lint/SARIF/repair/fuzz reports and
    every [BENCH_*.json] witness (written here, read back by
    [bench/compare.ml]).

    Self-contained by design — the project deliberately avoids external
    runtime dependencies.  Numbers are parsed as floats, which is exact
    for every integer the program produces (well below 2{^53}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error. *)

val to_string : t -> string
(** Compact single-line rendering (objects keep field order); the
    NDJSON framing relies on the absence of raw newlines.  A number
    prints without a fraction when it is an integer below 10{^15}, else
    with 17 significant digits, so every finite float reads back
    exactly. *)

(** {1 Builders} *)

val int : int -> t
val str : string -> t
val bool : bool -> t

(** {1 Accessors} — [None] on shape mismatch, never an exception. *)

val mem : string -> t -> t option
val to_int : t -> int option
val to_float_opt : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
