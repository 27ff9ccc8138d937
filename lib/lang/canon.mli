(** Canonical program form: the serialization the verdict cache hashes.

    Two programs that are structurally equal — same threads, same
    statements, same declared locations up to order and duplication —
    must produce byte-identical canonical text, so that reformatting a
    litmus file (whitespace, comments, loc order) never causes a cache
    miss.  The canonical text is itself valid litmus syntax, and
    [parse (to_string p) = normalize p] (property-tested).

    The digest deliberately excludes the program {e name}: a renamed
    copy of a program asks the same semantic question and should share
    a cache entry. *)

val normalize : Ast.program -> Ast.program
(** Sort and dedupe the location list, and rewrite negative integer
    literals [Int n] (n < 0) to [Sub (Int 0, Int (-n))] — the form the
    parser produces for unary minus — so the printed text re-parses to
    the normalized AST exactly.  Idempotent. *)

val render : Ast.program -> string
(** Litmus text of [p] as given, without [normalize]: the [name] line,
    the [locs] line in the given order, then each thread with fixed
    two-space indentation, one statement per line, no comments.  This
    is the project's one program printer: [Tmx_litmus.Export] prints
    through it, so [tmx export], the fuzz corpus and the loadgen's
    by-source requests share its text. *)

val to_string : Ast.program -> string
(** Canonical litmus text: [render (normalize p)]. *)

val structural : Ast.program -> string
(** [to_string] without the [name] line: the hashed representation.
    Every verdict-cache key hashes this text, so its bytes are pinned:
    a change to any printed form would silently orphan every stored
    entry.  Tests hold the printer byte-identical to the [Ast.pp_expr] /
    [Ast.pp_stmt] text and pin the digests of catalog programs. *)

val digest : Ast.program -> string
(** Hex MD5 of [structural p].  Equal for structurally equal programs
    regardless of source formatting, loc order, or name. *)
