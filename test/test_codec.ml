(* The text kernels behind the verdict service — the JSON codec and the
   program printer that cache keys hash — held byte for byte to the
   straightforward reference versions in text_oracle.ml, plus the
   number rules the fast codec adds: an overflowing literal is an
   error, a non-finite number prints as null, and to_int stays inside
   the int range. *)

open Tmx_lang
module Json = Tmx_json
module Oracle = Text_oracle

(* structural equality that tells -0. from 0. *)
let rec same (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal same xs ys
  | Obj xs, Obj ys ->
      List.equal (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error f -> String.equal e f
  | _ -> false

let show = function
  | Ok v -> "Ok " ^ Oracle.Json.to_string v
  | Error e -> "Error " ^ e

let rec finite (v : Json.t) =
  match v with
  | Num f -> Float.is_finite f
  | Arr vs -> List.for_all finite vs
  | Obj fs -> List.for_all (fun (_, v) -> finite v) fs
  | Null | Bool _ | Str _ -> true

(* The one intended difference from the reference parser: a literal it
   reads as an infinity is now an error. *)
let agrees_with_oracle text =
  match (Json.of_string text, Oracle.Json.of_string text) with
  | Error _, Ok v when not (finite v) -> true
  | ours, theirs -> same_result ours theirs

(* -- random values ------------------------------------------------------------ *)

(* numbers at the printer's boundaries: -0, the edges of the integer
   form, 2^53, the edges of the int range, and Json.int of any int *)
let gen_num =
  let open QCheck.Gen in
  let edges =
    [
      0.; -0.; 1.; -1.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e15 +. 1.;
      0x1p53; -0x1p53; 0x1p53 +. 2.; 0x1p62; -0x1p62; 0.5; -0.5; 0.1; 1e-7;
      5e-324; Float.max_float; -.Float.max_float; 1e300;
    ]
  in
  frequency
    [
      (3, oneofl edges);
      (3, map float_of_int int);
      (3, map float_of_int (-1000 -- 1000));
      (2, map (fun f -> if Float.is_finite f then f else 0.25) float);
    ]

(* strings with and without escapes: plain ASCII, the characters the
   printer escapes (quote, backslash, every control character, NUL),
   DEL and bytes >= 0x80 *)
let gen_text =
  let open QCheck.Gen in
  let plain = map Char.chr (32 -- 126) in
  let special = oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127'; '\xc3'; '\xa9' ] in
  frequency
    [
      (3, string_size ~gen:plain (0 -- 12));
      (2, string_size ~gen:(frequency [ (4, plain); (1, special) ]) (0 -- 12));
      (1, string_size ~gen:char (0 -- 12));
    ]

let gen_json =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map Json.bool bool);
        (4, map (fun f -> Json.Num f) gen_num);
        (3, map Json.str gen_text);
      ]
  in
  sized_size (0 -- 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map (fun vs -> Json.Arr vs) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map
                   (fun fs -> Json.Obj fs)
                   (list_size (0 -- 4) (pair gen_text (self (n - 1)))) );
             ])

let arb_json = QCheck.make ~print:Oracle.Json.to_string gen_json

let prop_print =
  QCheck.Test.make ~name:"json printer = reference" ~count:1000
    arb_json (fun v ->
      let ours = Json.to_string v and theirs = Oracle.Json.to_string v in
      String.equal ours theirs
      || QCheck.Test.fail_reportf "ours %S, reference %S" ours theirs)

let prop_parse =
  QCheck.Test.make ~name:"json parser = reference" ~count:1000
    arb_json (fun v ->
      let text = Oracle.Json.to_string v in
      let ours = Json.of_string text in
      (same_result ours (Oracle.Json.of_string text) && same_result ours (Ok v))
      || QCheck.Test.fail_reportf "%S read as %s" text (show ours))

(* near-misses of valid text: a rendered value cut short, with one byte
   dropped, or with one byte inserted; both parsers must give the same
   value or the same error message *)
let prop_parse_damaged =
  let open QCheck.Gen in
  let gen =
    gen_json >>= fun v ->
    let text = Oracle.Json.to_string v in
    let n = String.length text in
    0 -- n >>= fun i ->
    oneofl [ '"'; '\\'; ','; ':'; '-'; '0'; '9'; 'e'; '.'; 'u'; ']'; '}'; ' '; 't' ]
    >>= fun c ->
    oneofl
      [
        String.sub text 0 i;
        (if i < n then String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
         else text);
        String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
      ]
  in
  QCheck.Test.make ~name:"json parser, damaged text"
    ~count:2000 (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun text ->
      agrees_with_oracle text
      || QCheck.Test.fail_reportf "ours %s, reference %s"
           (show (Json.of_string text))
           (show (Oracle.Json.of_string text)))

(* -- hand-written literals ---------------------------------------------------- *)

let test_literals () =
  List.iter
    (fun text ->
      if not (same_result (Json.of_string text) (Oracle.Json.of_string text)) then
        Alcotest.failf "%S: ours %s, reference %s" text
          (show (Json.of_string text))
          (show (Oracle.Json.of_string text)))
    [
      "0"; "-0"; "007"; "-007"; "1e2"; "1E2"; "1e+2"; "1e-2"; "1.5"; "-1.5";
      "1."; "-.5"; "0.1e1"; "1e-400"; "-"; "--1"; "1-2"; "1e"; "+1"; "0x1";
      "12a"; "1.5.5"; "999999999999999"; "-999999999999999";
      "1000000000000000"; "1234567890123456"; "-1234567890123456";
      "123456789012345678"; "-123456789012345678"; "9007199254740993";
      "00000000000000001"; "[1,-0,007]"; "{\"a\":-0}"; "[1 ,2]"; "[-]";
      "\"\""; "\"abc\""; "\"a\\\"b\""; "\"caf\xc3\xa9\""; "\"\\u00e9\"";
      "true"; "tru"; "nul"; "falsy"; "  null  ";
    ]

let test_overflow () =
  List.iter
    (fun text ->
      (match Json.of_string text with
      | Ok v -> Alcotest.failf "%S accepted as %s" text (Json.to_string v)
      | Error _ -> ());
      match Oracle.Json.of_string text with
      | Ok v when not (finite v) -> ()
      | r -> Alcotest.failf "%S: the reference gave %s, not an infinity" text (show r))
    [
      "1e400"; "-1e400"; "1e999"; "[1e309]"; "{\"id\":1e999}";
      "1" ^ String.make 400 '0';
    ];
  Alcotest.(check (option string))
    "the error names the literal"
    (Some "number \"1e999\" out of range at offset 5")
    (match Json.of_string {|{"a":1e999}|} with Error e -> Some e | Ok _ -> None)

let test_non_finite_prints_null () =
  List.iter
    (fun (what, f) ->
      Alcotest.(check string) what "null" (Json.to_string (Json.Num f)))
    [ ("inf", Float.infinity); ("-inf", Float.neg_infinity); ("nan", Float.nan) ];
  let v = Json.Obj [ ("id", Json.Num Float.infinity); ("a", Json.Arr [ Json.Num Float.nan ]) ] in
  Alcotest.(check string) "inside a value" {|{"id":null,"a":[null]}|} (Json.to_string v);
  match Json.of_string (Json.to_string v) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the rendering does not parse: %s" e

let test_to_int_range () =
  List.iter
    (fun (what, f, expected) ->
      Alcotest.(check (option int)) what expected (Json.to_int (Json.Num f)))
    [
      ("1e300", 1e300, None);
      ("2^62", 0x1p62, None);
      ("-1e300", -1e300, None);
      ("-2^62 - 1024", -0x1p62 -. 1024., None);
      ("-2^62", -0x1p62, Some min_int);
      ("largest float below 2^62", 0x1p62 -. 512., Some (max_int - 511));
      ("-0", -0., Some 0);
      ("1.5", 1.5, None);
      ("inf", Float.infinity, None);
      ("nan", Float.nan, None);
      ("42", 42., Some 42);
    ]

(* -- the program printer ------------------------------------------------------ *)

let check_printer what (p : Ast.program) =
  let eq kind ours theirs =
    if not (String.equal ours theirs) then
      Alcotest.failf "%s: %s differs from the reference@.ours:@.%s@.reference:@.%s"
        what kind ours theirs
  in
  eq "render" (Canon.render p) (Oracle.render p);
  eq "to_string" (Canon.to_string p) (Oracle.to_string p);
  eq "structural" (Canon.structural p) (Oracle.structural p);
  eq "export" (Tmx_litmus.Export.program_to_string p) (Oracle.render p)

(* every statement and expression form, negative literals (which only
   [render] prints) and nesting three blocks deep *)
let every_form =
  let open Ast in
  let open Ast.Infix in
  let r = reg "r" and q = reg "q" in
  program ~name:"every_form" ~locs:[ "y"; "x"; "z[0]"; "z[1]"; "x" ]
    [
      [
        store (loc "x") (int (-3));
        load "r" (cell "z" ((r * int 2) - int 1));
        assign "q" (not_ ((r = q) && (r <> int 0) || (q < int (-1))));
        atomic [ store (loc "y") (r + q); abort ];
        fence "x";
        skip;
      ];
      [
        while_ (r < int 3)
          [
            if_ (r = int 1)
              [ atomic [ load "q" (loc "y") ]; when_ (q = int 0) [ skip ] ]
              [ store (cell "z" r) (int 7) ];
            assign "r" (r + int 1);
          ];
      ];
      [];
    ]

let test_printer_catalog () =
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) -> check_printer l.name l.program)
    Tmx_litmus.Catalog.all;
  check_printer "every form" every_form

let test_printer_generated () =
  let configs = Tmx_fuzz.Gen.[| mixed; theorems; analysis |] in
  for i = 0 to 999 do
    let st = Tmx_fuzz.Gen.state_of_seed ~seed:1601 ~index:i in
    let p = Tmx_fuzz.Gen.program ~name:"g" configs.(i mod 3) st in
    check_printer (Fmt.str "generated %d" i) p
  done

(* Every cache key hashes [Canon.structural]; a change that moves these
   digests orphans every stored verdict and must be deliberate (bump
   Cache.format_version with it). *)
let test_golden_digests () =
  List.iter
    (fun (name, digest) ->
      let l = Option.get (Tmx_litmus.Catalog.find name) in
      Alcotest.(check string) name digest (Canon.digest l.program))
    [
      ("sb", "3f2787d9af059537f0b0ee2ce897893b");
      ("privatization", "635511efbdf3e8c68d67e95425cb8a67");
      ("iriw_z", "4abd34c4ee0617e39f537a27054d185e");
    ]

let suite =
  [
    Tb.qcheck prop_print;
    Tb.qcheck prop_parse;
    Tb.qcheck prop_parse_damaged;
    Alcotest.test_case "json literals = reference" `Quick test_literals;
    Alcotest.test_case "json overflow is an error" `Quick test_overflow;
    Alcotest.test_case "json non-finite prints null" `Quick
      test_non_finite_prints_null;
    Alcotest.test_case "json to_int in int range" `Quick test_to_int_range;
    Alcotest.test_case "printer = reference, catalog" `Quick test_printer_catalog;
    Alcotest.test_case "printer = reference, pool" `Quick test_printer_generated;
    Alcotest.test_case "golden cache-key digests" `Quick test_golden_digests;
  ]
