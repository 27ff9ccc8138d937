(** Export programs to the litmus text format of {!Parse} (the checks are
    OCaml closures and cannot be exported).  Round-trip tested:
    [Parse.parse (program_to_string p)] has the same behaviours as
    [p]. *)

val program_to_string : Tmx_lang.Ast.program -> string
(** {!Tmx_lang.Canon.render}: the program as given, not normalized. *)
