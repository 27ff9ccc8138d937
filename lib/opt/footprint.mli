(** Static read/write footprints of statements, used to decide when two
    program fragments are independent.  Computed-index cells ("z[r]") are
    approximated by a wildcard that conflicts with every cell of the same
    array. *)

type t = { reads : string list; writes : string list; has_atomic : bool }

val empty : t
val merge : t -> t -> t

val lval_name : Tmx_lang.Ast.lval -> string
(** The footprint name of an lvalue: the location itself, or
    ["base[*]"] for a computed cell. *)

val of_stmt : Tmx_lang.Ast.stmt -> t
val of_stmts : Tmx_lang.Ast.stmt list -> t

val base_of : string -> string option
(** The array base of a cell name ([Some "z"] for ["z[0]"] or ["z[*]"]),
    [None] for plain names. *)

val name_clash : string -> string -> bool
(** Equal names, or one is the wildcard cell of the other's array. *)

val expand_name : locs:string list -> string -> string list
(** The declared locations a footprint name may denote: every declared
    cell of the base for a wildcard ["z[*]"], the name itself otherwise. *)

val conflicts : t -> t -> bool
(** Same location, at least one write (conservatively, via wildcards). *)

val is_read_only : t -> bool
val is_write_only : t -> bool
