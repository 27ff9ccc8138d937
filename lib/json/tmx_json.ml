(* Minimal recursive-descent JSON: the one reader and writer behind the
   cache entries, the wire protocol, the lint/repair/fuzz reports and
   every benchmark witness.

   Both directions sit on the verdict service's hot path (every request
   line, every cache entry decoded or written), so they scan by index
   and copy runs of plain bytes whole; the rare cases (escapes, numbers
   that are not short integers) take the general loop. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* An integer of at most this many digits is below 10^15 < 2^53, so
   accumulating it in an int and converting is exact, as strtod is. *)
let max_fast_digits = 15

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos >= n then fail "expected %C, found end of input" c
    else if s.[!pos] = c then incr pos
    else fail "expected %C at offset %d, found %C" c !pos s.[!pos]
  in
  (* the general loop, entered at the first backslash with the plain
     prefix already in [buf] *)
  let rec unescape buf =
    if !pos >= n then fail "unterminated string"
    else
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          incr pos;
          (match c with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
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
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
          | c -> Buffer.add_char buf c);
          unescape buf
      | c ->
          Buffer.add_char buf c;
          incr pos;
          unescape buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = ref start in
    while !i < n && (match s.[!i] with '"' | '\\' -> false | _ -> true) do
      incr i
    done;
    if !i >= n then fail "unterminated string"
    else if s.[!i] = '"' then (
      pos := !i + 1;
      String.sub s start (!i - start))
    else
      let buf = Buffer.create (!i - start + 16) in
      Buffer.add_substring buf s start (!i - start);
      pos := !i;
      unescape buf;
      Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    (* fast path: an optional minus and at most [max_fast_digits]
       digits, with no other number character after them *)
    let neg = s.[start] = '-' in
    let first = if neg then start + 1 else start in
    let i = ref first and acc = ref 0 in
    while
      !i < n
      && !i - first <= max_fast_digits
      && match s.[!i] with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + Char.code s.[!i] - Char.code '0';
      incr i
    done;
    let digits = !i - first in
    if digits > 0 && digits <= max_fast_digits && not (!i < n && is_num_char s.[!i])
    then (
      pos := !i;
      (* negate as a float, so that "-0" is -0. as strtod reads it *)
      if neg then -.float_of_int !acc else float_of_int !acc)
    else (
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f when Float.is_finite f -> f
      | Some _ -> fail "number %S out of range at offset %d" lit start
      | None -> fail "bad number %S at offset %d" lit start)
  in
  let literal word v =
    let p = !pos and len = String.length word in
    pos := p + len;
    if !pos > n then fail "bad literal";
    for k = 0 to len - 1 do
      if s.[p + k] <> word.[k] then fail "bad literal"
    done;
    v
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match if !pos < n then s.[!pos] else '\000' with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          Obj (fields [])
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then (
          incr pos;
          Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match if !pos < n then s.[!pos] else '\000' with
            | ',' ->
                incr pos;
                elems (v :: acc)
            | ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          Arr (elems [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> Num (parse_number ())
    | c -> fail "unexpected %C at offset %d" c !pos
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at offset %d" !pos;
    Ok v
  with Parse_error m -> Error m

let hex_digits = "0123456789abcdef"

(* Copies each run of bytes that need no escape with one blit. *)
let rec escape_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match s.[i] with
    | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 0xF]);
        escape_from buf s (i + 1) (i + 1)
    | _ -> escape_from buf s start (i + 1)

let add_quoted buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))

(* An integral value below 10^15 prints as an integer, keeping the sign
   of -0.; any other finite value with 17 significant digits, so that it
   reads back exactly; a non-finite one as null, which every JSON reader
   accepts. *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then (
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (int_of_float (Float.abs f)))
  else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else Buffer.add_string buf "null"

let rec add_value buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_quoted buf s
  | Arr vs ->
      Buffer.add_char buf '[';
      add_elems buf true vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_fields buf true fields;
      Buffer.add_char buf '}'

and add_elems buf first = function
  | [] -> ()
  | v :: vs ->
      if not first then Buffer.add_char buf ',';
      add_value buf v;
      add_elems buf false vs

and add_fields buf first = function
  | [] -> ()
  | (k, v) :: fields ->
      if not first then Buffer.add_char buf ',';
      add_quoted buf k;
      Buffer.add_char buf ':';
      add_value buf v;
      add_fields buf false fields

let to_string v =
  let buf = Buffer.create 256 in
  add_value buf v;
  Buffer.contents buf

let int n = Num (float_of_int n)
let str s = Str s
let bool b = Bool b
let mem k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* [-2^62, 2^62) is exactly the floats that convert to an OCaml int *)
let to_int = function
  | Num f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
