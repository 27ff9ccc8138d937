(** The project's one JSON codec: the cache's on-disk entries, the
    serve/client wire protocol, the lint/SARIF/repair/fuzz reports and
    every [BENCH_*.json] witness (written here, read back by
    [bench/compare.ml]).

    Self-contained by design — the project deliberately avoids external
    runtime dependencies.  Numbers are parsed as floats, which is exact
    for every integer the program produces (well below 2{^53}).

    Number rules, in both directions:
    - a literal is read as [float_of_string] reads it (so [007] is 7
      and [-0] is [-0.]), and one that does not parse to a finite float
      ([1e400], a 400-digit integer) is an error;
    - an integral value below 10{^15} in magnitude prints as a bare
      integer ([-0.] as [-0]), any other finite value with 17
      significant digits, and a non-finite one as [null], so the output
      is always JSON another reader accepts;
    - {!to_int} answers only for integral values from -2{^62} up to but
      excluding 2{^62}, the floats that convert to an OCaml [int]
      exactly.

    The parser and printer scan by index and copy escape-free runs
    whole; their grammar, values, error messages and output bytes are
    those of the straightforward character-at-a-time codec they
    replaced, for every finite value (differentially tested against it
    in [test/]), so cache entries and cache keys are unchanged. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage and a number literal that
    overflows to infinity are errors. *)

val to_string : t -> string
(** Compact single-line rendering (objects keep field order); the
    NDJSON framing relies on the absence of raw newlines.  A number
    prints without a fraction when it is an integer below 10{^15}, else
    with 17 significant digits, so every finite float reads back
    exactly; a non-finite number prints as [null]. *)

(** {1 Builders} *)

val int : int -> t
val str : string -> t
val bool : bool -> t

(** {1 Accessors} — [None] on shape mismatch, never an exception. *)

val mem : string -> t -> t option

val to_int : t -> int option
(** [Some n] for an integral [Num] from -2{^62} up to but excluding
    2{^62}; [None] for a fraction or a value outside the [int] range
    (say [1e300]), which a caller treats like an absent field. *)

val to_float_opt : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
