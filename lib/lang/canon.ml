(* Canonical program form — the cache-key serialization.  The text is
   the litmus format of [Tmx_litmus.Parse] (whose [Export] prints
   through [render]), with every degree of freedom pinned: sorted
   deduped locs, two-space indentation, one statement per line.

   Negative literals are the one AST form the parser cannot produce
   (unary minus parses as [Sub (Int 0, x)]), so [normalize] rewrites
   them into that shape and printing stays parse-invertible. *)

let rec norm_expr (e : Ast.expr) : Ast.expr =
  match e with
  | Int n when n < 0 -> Sub (Int 0, Int (-n))
  | Int _ | Reg _ -> e
  | Add (a, b) -> Add (norm_expr a, norm_expr b)
  | Sub (a, b) -> Sub (norm_expr a, norm_expr b)
  | Mul (a, b) -> Mul (norm_expr a, norm_expr b)
  | Eq (a, b) -> Eq (norm_expr a, norm_expr b)
  | Ne (a, b) -> Ne (norm_expr a, norm_expr b)
  | Lt (a, b) -> Lt (norm_expr a, norm_expr b)
  | Not a -> Not (norm_expr a)
  | And (a, b) -> And (norm_expr a, norm_expr b)
  | Or (a, b) -> Or (norm_expr a, norm_expr b)

let norm_lval ({ base; index } : Ast.lval) : Ast.lval =
  { base; index = Option.map norm_expr index }

let rec norm_stmt (s : Ast.stmt) : Ast.stmt =
  match s with
  | Load (r, lv) -> Load (r, norm_lval lv)
  | Store (lv, e) -> Store (norm_lval lv, norm_expr e)
  | Assign (r, e) -> Assign (r, norm_expr e)
  | Atomic body -> Atomic (List.map norm_stmt body)
  | Abort | Skip | Fence _ -> s
  | If (c, t, e) -> If (norm_expr c, List.map norm_stmt t, List.map norm_stmt e)
  | While (c, b) -> While (norm_expr c, List.map norm_stmt b)

let normalize (p : Ast.program) : Ast.program =
  {
    p with
    locs = List.sort_uniq String.compare p.locs;
    threads = List.map (List.map norm_stmt) p.threads;
  }

(* The emitter writes straight into the buffer: it runs on every cache
   lookup (the key hashes [structural]), so it avoids a formatter per
   statement.  Its text is what [Ast.pp_expr] and [Ast.pp_stmt] print. *)
let add = Buffer.add_string

let rec emit_expr buf (e : Ast.expr) =
  match e with
  | Int n -> add buf (string_of_int n)
  | Reg r -> add buf r
  | Add (a, b) -> emit_bin buf a " + " b
  | Sub (a, b) -> emit_bin buf a " - " b
  | Mul (a, b) -> emit_bin buf a " * " b
  | Eq (a, b) -> emit_bin buf a " = " b
  | Ne (a, b) -> emit_bin buf a " != " b
  | Lt (a, b) -> emit_bin buf a " < " b
  | Not a ->
      Buffer.add_char buf '!';
      emit_expr buf a
  | And (a, b) -> emit_bin buf a " && " b
  | Or (a, b) -> emit_bin buf a " || " b

and emit_bin buf a op b =
  Buffer.add_char buf '(';
  emit_expr buf a;
  add buf op;
  emit_expr buf b;
  Buffer.add_char buf ')'

let emit_lval buf ({ base; index } : Ast.lval) =
  add buf base;
  match index with
  | None -> ()
  | Some e ->
      Buffer.add_char buf '[';
      emit_expr buf e;
      Buffer.add_char buf ']'

let pad buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

(* one statement per line; a block's body is indented two more spaces *)
let rec emit_stmt buf indent (s : Ast.stmt) =
  pad buf indent;
  match s with
  | Atomic body ->
      add buf "atomic {\n";
      emit_block buf indent body
  | If (c, t, []) ->
      emit_head buf "if " c;
      emit_block buf indent t
  | If (c, t, e) ->
      emit_head buf "if " c;
      emit_body buf indent t;
      pad buf indent;
      add buf "} else {\n";
      emit_block buf indent e
  | While (c, b) ->
      emit_head buf "while " c;
      emit_block buf indent b
  | Load (r, lv) ->
      add buf r;
      add buf " := ";
      emit_lval buf lv;
      Buffer.add_char buf '\n'
  | Store (lv, e) ->
      emit_lval buf lv;
      add buf " := ";
      emit_expr buf e;
      Buffer.add_char buf '\n'
  | Assign (r, e) ->
      add buf r;
      add buf " := ";
      emit_expr buf e;
      Buffer.add_char buf '\n'
  | Abort -> add buf "abort\n"
  | Fence x ->
      add buf "fence(";
      add buf x;
      add buf ")\n"
  | Skip -> add buf "skip\n"

and emit_head buf keyword c =
  add buf keyword;
  emit_expr buf c;
  add buf " {\n"

and emit_body buf indent body = List.iter (emit_stmt buf (indent + 2)) body

(* the body, then the closing brace at the opening line's indent *)
and emit_block buf indent body =
  emit_body buf indent body;
  pad buf indent;
  add buf "}\n"

let emit ~with_name buf (p : Ast.program) =
  if with_name then (
    add buf "name ";
    add buf p.name;
    Buffer.add_char buf '\n');
  add buf "locs ";
  add buf (String.concat " " p.locs);
  Buffer.add_char buf '\n';
  List.iteri
    (fun i thread ->
      add buf "\nthread ";
      add buf (string_of_int i);
      add buf ":\n";
      List.iter (emit_stmt buf 2) thread)
    p.threads

let render p =
  let buf = Buffer.create 256 in
  emit ~with_name:true buf p;
  Buffer.contents buf

let to_string p = render (normalize p)

let structural p =
  let buf = Buffer.create 256 in
  emit ~with_name:false buf (normalize p);
  Buffer.contents buf

let digest p = Digest.to_hex (Digest.string (structural p))
