(* Test-only reference implementations of the three text kernels behind
   the verdict service, in their straightforward form: the JSON codec
   read a character at a time through [char option] peeks and printed
   numbers with [Printf], and the program printer formatted each
   statement with [Fmt].  The fast versions in [Tmx_json] and
   [Tmx_lang.Canon] must agree with these byte for byte (test_codec.ml);
   nothing outside the tests may use them. *)

open Tmx_lang

module Json = struct
  type t = Tmx_json.t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let fail fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail "expected %C at offset %d, found %C" c !pos c'
      | None -> fail "expected %C, found end of input" c
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' ->
                Buffer.add_char buf '\n';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char buf '\t';
                advance ();
                go ()
            | Some 'r' ->
                Buffer.add_char buf '\r';
                advance ();
                go ()
            | Some 'b' ->
                Buffer.add_char buf '\b';
                advance ();
                go ()
            | Some 'f' ->
                Buffer.add_char buf '\012';
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (* exactly four hex digits; int_of_string would take '_' *)
                let digit = function
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape %S" hex
                in
                let code = String.fold_left (fun acc c -> (acc * 16) + digit c) 0 hex in
                (* service strings are ASCII; keep the escape lossless for
                   the BMP by encoding UTF-8 by hand *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then (
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
                else (
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))));
                go ()
            | Some c ->
                Buffer.add_char buf c;
                advance ();
                go ()
            | None -> fail "unterminated escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> f
      | None -> fail "bad number %S at offset %d" lit start
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}' at offset %d" !pos
            in
            Obj (fields [])
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']' at offset %d" !pos
            in
            Arr (elems [])
      | Some '"' -> Str (parse_string ())
      | Some 't' ->
          pos := !pos + 4;
          if !pos > n || String.sub s (!pos - 4) 4 <> "true" then
            fail "bad literal";
          Bool true
      | Some 'f' ->
          pos := !pos + 5;
          if !pos > n || String.sub s (!pos - 5) 5 <> "false" then
            fail "bad literal";
          Bool false
      | Some 'n' ->
          pos := !pos + 4;
          if !pos > n || String.sub s (!pos - 4) 4 <> "null" then
            fail "bad literal";
          Null
      | Some ('-' | '0' .. '9') -> Num (parse_number ())
      | Some c -> fail "unexpected %C at offset %d" c !pos
      | None -> fail "unexpected end of input"
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage at offset %d" !pos;
      Ok v
    with Parse_error m -> Error m

  let escape_to buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.0f" f)
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      | Str s ->
          Buffer.add_char buf '"';
          escape_to buf s;
          Buffer.add_char buf '"'
      | Arr vs ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char buf ',';
              go v)
            vs;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              escape_to buf k;
              Buffer.add_string buf "\":";
              go v)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf
end

(* -- the Fmt program printer -------------------------------------------------- *)

let rec emit_stmt buf indent (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Ast.Atomic body ->
      Buffer.add_string buf (pad ^ "atomic {\n");
      List.iter (emit_stmt buf (indent + 2)) body;
      Buffer.add_string buf (pad ^ "}\n")
  | Ast.If (c, t, []) ->
      Buffer.add_string buf (Fmt.str "%sif %a {\n" pad Ast.pp_expr c);
      List.iter (emit_stmt buf (indent + 2)) t;
      Buffer.add_string buf (pad ^ "}\n")
  | Ast.If (c, t, e) ->
      Buffer.add_string buf (Fmt.str "%sif %a {\n" pad Ast.pp_expr c);
      List.iter (emit_stmt buf (indent + 2)) t;
      Buffer.add_string buf (pad ^ "} else {\n");
      List.iter (emit_stmt buf (indent + 2)) e;
      Buffer.add_string buf (pad ^ "}\n")
  | Ast.While (c, b) ->
      Buffer.add_string buf (Fmt.str "%swhile %a {\n" pad Ast.pp_expr c);
      List.iter (emit_stmt buf (indent + 2)) b;
      Buffer.add_string buf (pad ^ "}\n")
  | s -> Buffer.add_string buf (Fmt.str "%s%a\n" pad Ast.pp_stmt s)

let emit ~with_name buf (p : Ast.program) =
  if with_name then Buffer.add_string buf (Fmt.str "name %s\n" p.name);
  Buffer.add_string buf
    (Fmt.str "locs %a\n" Fmt.(list ~sep:(any " ") string) p.locs);
  List.iteri
    (fun i thread ->
      Buffer.add_string buf (Fmt.str "\nthread %d:\n" i);
      List.iter (emit_stmt buf 2) thread)
    p.threads

let text ~with_name p =
  let buf = Buffer.create 256 in
  emit ~with_name buf p;
  Buffer.contents buf

(* [Canon.render], [Canon.to_string] and [Canon.structural] *)
let render = text ~with_name:true
let to_string p = text ~with_name:true (Canon.normalize p)
let structural p = text ~with_name:false (Canon.normalize p)
