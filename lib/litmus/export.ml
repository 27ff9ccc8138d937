(* Export programs to the litmus text format of [Parse] — the inverse of
   parsing, used by `tmx export` and round-trip tested.  The printer is
   [Canon]'s, without its normalization. *)

let program_to_string = Tmx_lang.Canon.render
