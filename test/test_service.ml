(* The service layer: canonical serialization, the content-addressed
   verdict cache, and the serve/client daemon. *)

open Tmx_core
open Tmx_exec
open Tmx_lang
open Tmx_service

let config = Enumerate.default_config

let temp_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "tmx-test-%s-%d" tag (Unix.getpid ()))
  in
  ignore (Cache.clear ~dir:d);
  d

(* -- canonical form ----------------------------------------------------------- *)

(* parse (to_string p) = normalize p, and the digest survives the trip *)
let check_canon_roundtrip what (p : Ast.program) =
  let text = Canon.to_string p in
  match Tmx_litmus.Parse.parse text with
  | exception Tmx_litmus.Parse.Error msg ->
      Alcotest.failf "%s: canonical text does not parse: %s@.%s" what msg text
  | parsed ->
      let q = parsed.Tmx_litmus.Litmus.program in
      if q <> Canon.normalize p then
        Alcotest.failf "%s: parse (to_string p) <> normalize p@.%s" what text;
      Alcotest.(check string)
        (Fmt.str "%s: digest stable across the trip" what)
        (Canon.digest p) (Canon.digest q)

let test_canon_catalog () =
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) -> check_canon_roundtrip l.name l.program)
    Tmx_litmus.Catalog.all

let test_canon_generated () =
  for i = 0 to 199 do
    let st = Tmx_fuzz.Gen.state_of_seed ~seed:42 ~index:i in
    let p = Tmx_fuzz.Gen.program ~name:"g" Tmx_fuzz.Gen.mixed st in
    check_canon_roundtrip (Fmt.str "generated %d" i) p
  done

let test_canon_negative_literal () =
  let open Ast in
  let p =
    program ~name:"neg" ~locs:[ "x" ]
      [ [ store (loc "x") (int (-3)) ]; [ load "r" (loc "x") ] ]
  in
  check_canon_roundtrip "negative literal" p;
  Alcotest.(check string)
    "normalization is idempotent"
    (Canon.to_string p)
    (Canon.to_string (Canon.normalize p))

(* renaming, loc reordering/duplication, and reformatting don't move the
   digest; changing the program does *)
let test_digest_invariance () =
  let l = Option.get (Tmx_litmus.Catalog.find "privatization") in
  let p = l.program in
  let d = Canon.digest p in
  Alcotest.(check string) "rename" d (Canon.digest { p with Ast.name = "other" });
  Alcotest.(check string) "loc order and dups" d
    (Canon.digest { p with Ast.locs = List.rev p.locs @ p.locs });
  let reparsed =
    (Tmx_litmus.Parse.parse (Tmx_litmus.Export.program_to_string p))
      .Tmx_litmus.Litmus.program
  in
  Alcotest.(check string) "reformatting via export" d (Canon.digest reparsed);
  let changed = { p with Ast.threads = List.tl p.Ast.threads } in
  if Canon.digest changed = d then
    Alcotest.fail "dropping a thread must change the digest"

(* -- json / protocol ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Arr [ Json.int 1; Json.Num 2.5; Json.Null; Json.Bool false ]);
        ("s", Json.str "quote \" back \\ newline \n tab \t");
        ("nested", Json.Obj [ ("k", Json.str "v") ]);
        ("neg", Json.int (-7));
      ]
  in
  (match Json.of_string (Json.to_string j) with
  | Ok j' -> if j' <> j then Alcotest.fail "json round trip changed the value"
  | Error e -> Alcotest.failf "json round trip does not parse: %s" e);
  if Json.of_string {|"\u004A\u00e9"|} <> Ok (Json.Str "J\xc3\xa9") then
    Alcotest.fail "\\u escapes take upper- and lowercase hex digits";
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" bad
      | Error _ -> ())
    [
      "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; {|"\u0_41"|};
      (* unterminated strings with no escape, which the parser slices
         without a buffer *)
      "\""; "[\"a"; "{\"key"; "{\"a\":\"b"; "\"abc\\";
    ]

(* of_string (to_string v) = Ok v over random values: finite numbers,
   and strings and keys with control characters, quotes, backslashes and
   bytes >= 0x80 *)
let gen_json =
  let open QCheck.Gen in
  let text = string_size ~gen:char (0 -- 8) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    oneof
      [
        return Json.Null;
        map Json.bool bool;
        map (fun f -> Json.Num f) finite;
        map Json.int int;
        map Json.str text;
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
               (1, map (fun fs -> Json.Obj fs) (list_size (0 -- 4) (pair text (self (n - 1)))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json round trip on random values" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* A cache record is one line whose fields are split by tabs, so an
   entry's JSON text must hold neither: the printer escapes every
   control character. *)
let prop_json_one_line =
  QCheck.Test.make ~name:"json text holds no control character" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> String.for_all (fun c -> c >= ' ') (Json.to_string v))

(* The log scan's word-at-a-time newline search agrees with a bytewise
   one wherever the newlines fall against the eight-byte words, among
   bytes that differ from a newline in one bit or in the high bit. *)
let prop_newline_search =
  let gen =
    let open QCheck.Gen in
    let byte = oneofl [ '\n'; '\x0b'; '\x08'; '\x8a'; '\x00'; '\xff'; '\x80'; 'a' ] in
    string_size ~gen:byte (0 -- 40) >>= fun s ->
    0 -- String.length s >>= fun i ->
    i -- String.length s >>= fun n -> return (s, i, n)
  in
  QCheck.Test.make ~name:"cache newline search" ~count:2000
    (QCheck.make ~print:(fun (s, i, n) -> Fmt.str "%S %d %d" s i n) gen)
    (fun (s, i, n) ->
      let b = Bytes.of_string s in
      let bytewise = match Bytes.index_from_opt b i '\n' with Some e when e < n -> e | _ -> n in
      Cache.newline b i n = bytewise)

let test_protocol_roundtrip () =
  let sub =
    {
      Protocol.id = Some (Json.int 7);
      verb = "races";
      name = Some "sb";
      program = None;
      model = "im";
      deadline_ms = Some 250;
      subrequests = [];
    }
  in
  let r =
    {
      Protocol.id = Some (Json.str "batch-1");
      verb = "batch";
      name = None;
      program = None;
      model = "pm";
      deadline_ms = None;
      subrequests = [ sub; { sub with id = None; model = "pm" } ];
    }
  in
  match Protocol.of_line (Json.to_string (Protocol.to_json r)) with
  | Ok r' -> if r' <> r then Alcotest.fail "protocol round trip changed the request"
  | Error e -> Alcotest.failf "protocol round trip failed: %s" e

(* -- cache -------------------------------------------------------------------- *)

let program_of name = (Option.get (Tmx_litmus.Catalog.find name)).program

let check_verdict_equal what (a : Cache.verdict) (b : Cache.verdict) =
  let oa = Enumerate.outcomes a.result and ob = Enumerate.outcomes b.result in
  if
    not
      (List.length oa = List.length ob && List.for_all2 Outcome.equal oa ob)
  then Alcotest.failf "%s: outcome sets differ" what;
  Alcotest.(check int) (what ^ ": graphs") a.result.graphs b.result.graphs;
  Alcotest.(check bool) (what ^ ": capped") a.result.capped b.result.capped;
  Alcotest.(check bool)
    (what ^ ": truncated") a.result.truncated b.result.truncated;
  if a.races <> b.races then Alcotest.failf "%s: race sets differ" what;
  if a.mixed <> b.mixed then Alcotest.failf "%s: mixed flags differ" what;
  Alcotest.(check bool)
    (what ^ ": lint race_free") a.lint_race_free b.lint_race_free;
  Alcotest.(check int) (what ^ ": lint findings") a.lint_findings b.lint_findings;
  Alcotest.(check int) (what ^ ": lint mixed") a.lint_mixed b.lint_mixed

let test_cache_roundtrip () =
  let dir = temp_dir "roundtrip" in
  let c = Cache.create ~dir () in
  let p = program_of "privatization" in
  let v, h1 = Cache.memo c ~config Model.programmer p in
  Alcotest.(check bool) "first memo misses" true (h1 = `Miss);
  let v2, h2 = Cache.memo c ~config Model.programmer p in
  Alcotest.(check bool) "second memo hits" true (h2 = `Hit);
  check_verdict_equal "front hit" v v2;
  (* a fresh front over the same directory must reconstruct the verdict
     from disk, exactly *)
  let c' = Cache.create ~dir () in
  (match Cache.find c' ~config Model.programmer p with
  | None -> Alcotest.fail "fresh cache misses a stored entry"
  | Some v3 -> check_verdict_equal "disk reload" v v3);
  Alcotest.(check int) "one disk hit" 1 (Cache.stats c').hits;
  (* different model, different entry *)
  (match Cache.find c' ~config Model.implementation p with
  | Some _ -> Alcotest.fail "model must be part of the key"
  | None -> ());
  ignore (Cache.clear ~dir)

let test_cache_version_mismatch () =
  let dir = temp_dir "version" in
  let c1 = Cache.create ~version:"test-v1" ~dir () in
  let p = program_of "sb" in
  ignore (Cache.memo c1 ~config Model.programmer p);
  let c2 = Cache.create ~version:"test-v2" ~dir () in
  (match Cache.find c2 ~config Model.programmer p with
  | Some _ -> Alcotest.fail "an entry of another format version must miss"
  | None -> ());
  let ds = Cache.disk_stats ~version:"test-v2" ~dir () in
  Alcotest.(check int) "one stale entry" 1 ds.stale;
  Alcotest.(check int) "no current entries" 0 ds.current;
  Alcotest.(check int) "gc reclaims it" 1 (Cache.gc ~version:"test-v2" ~dir ());
  Alcotest.(check int) "disk empty after gc" 0 (Cache.disk_stats ~dir ()).records;
  ignore (Cache.clear ~dir)

(* -- damaging a log by hand --------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_at path off text =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write_substring fd text 0 (String.length text));
  Unix.close fd

let append_to path text =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc text;
  close_out oc

(* The (line start, line end) of every line of a log's [text], in
   order. *)
let record_lines text =
  let rec go i acc =
    match String.index_from_opt text i '\n' with
    | None -> List.rev acc
    | Some e -> go (e + 1) (if e > i then (i, e) :: acc else acc)
  in
  go 0 []

(* Flip the last body byte of each record of [log] whose key [pick]s,
   in place: the record stays a well-formed line, but fails its MD5. *)
let damage_records ?(pick = fun _ -> true) log =
  let text = read_file log in
  List.iter
    (fun (i, e) ->
      if pick (String.sub text i 32) then
        write_at log (e - 1) (if text.[e - 1] = '!' then "?" else "!"))
    (record_lines text)

(* A record whose MD5 is right for [body], whatever [body] is. *)
let forged_record ~key body =
  String.concat "\t" [ "\n" ^ key; Digest.to_hex (Digest.string body); body ^ "\n" ]

(* A record whose body no longer matches its MD5 is a counted load
   failure, and so are records whose MD5 matches a body that is
   garbage; memo then recovers the exact verdict. *)
let test_cache_corruption () =
  let dir = temp_dir "corrupt" in
  let c = Cache.create ~dir () in
  let p = program_of "publication" in
  let v, _ = Cache.memo c ~config Model.programmer p in
  let key = Cache.key c ~config Model.programmer p in
  let log = Cache.entry_path c key in
  Alcotest.(check bool) "log exists" true (Sys.file_exists log);
  let recovers what =
    let c' = Cache.create ~dir () in
    (match Cache.find c' ~config Model.programmer p with
    | Some _ -> Alcotest.failf "%s served as a hit" what
    | None -> ());
    Alcotest.(check int) (what ^ " counted") 1 (Cache.stats c').load_failures;
    (* memo must recover: recompute, re-store, and the verdict matches *)
    let v', h = Cache.memo c' ~config Model.programmer p in
    Alcotest.(check bool) "recovery is a miss" true (h = `Miss);
    check_verdict_equal "recovered verdict" v v';
    Cache.close c'
  in
  damage_records log;
  recovers "a record failing its MD5";
  List.iter
    (fun garbage ->
      append_to log (forged_record ~key garbage);
      recovers (Fmt.str "record body %S" garbage))
    [ "{ not json"; "[]"; "{\"format\":\"tmx-cache-1\"}"; "" ];
  ignore (Cache.clear ~dir)

(* A crash can leave any prefix of the last record: truncated at every
   offset inside it, the log gives a fresh cache a plain miss for that
   key and a hit for the record before it, never an exception; a store
   made then is read back by a third cache. *)
let test_cache_truncated_log () =
  let dir = temp_dir "truncated" in
  let c = Cache.create ~dir () in
  let first = program_of "sb" and last = program_of "lb" in
  ignore (Cache.memo c ~config Model.programmer first);
  let log = Cache.entry_path c (Cache.key c ~config Model.programmer first) in
  let before = String.length (read_file log) in
  let v, _ = Cache.memo c ~config Model.programmer last in
  Cache.close c;
  let whole = read_file log in
  for cut = before to String.length whole - 1 do
    Out_channel.with_open_bin log (fun oc -> output_string oc (String.sub whole 0 cut));
    let c' = Cache.create ~dir () in
    let find c p = Cache.find c ~config Model.programmer p in
    if Option.is_some (find c' last) then Alcotest.failf "cut at %d: the torn record hit" cut;
    if Option.is_none (find c' first) then
      Alcotest.failf "cut at %d: the record before it missed" cut;
    let s = Cache.stats c' in
    if s.misses <> 1 || s.hits <> 1 || s.load_failures <> 0 then
      Alcotest.failf "cut at %d: %d hits, %d misses, %d load failures" cut s.hits s.misses
        s.load_failures;
    Cache.store c' ~config Model.programmer last v;
    Cache.close c';
    let c'' = Cache.create ~dir () in
    (match find c'' last with
    | None -> Alcotest.failf "cut at %d: the store after it is lost" cut
    | Some v' -> check_verdict_equal (Fmt.str "cut at %d" cut) v v');
    if Option.is_none (find c'' first) then
      Alcotest.failf "cut at %d: the first record is lost" cut;
    Cache.close c''
  done;
  ignore (Cache.clear ~dir)

(* An append that was never fsynced can read back as zeros after a
   power loss: a NUL-filled tail is skipped, and the next record ends
   it. *)
let test_cache_nul_tail () =
  let dir = temp_dir "nul" in
  let c = Cache.create ~dir () in
  let kept = program_of "sb" and lost = program_of "lb" in
  ignore (Cache.memo c ~config Model.programmer kept);
  Cache.close c;
  let log = Cache.entry_path c (Cache.key c ~config Model.programmer kept) in
  append_to log (String.make 3000 '\000');
  let c' = Cache.create ~dir () in
  Alcotest.(check bool) "the record before the tail hits" true
    (Option.is_some (Cache.find c' ~config Model.programmer kept));
  let v, h = Cache.memo c' ~config Model.programmer lost in
  Alcotest.(check bool) "no record in the tail" true (h = `Miss);
  Alcotest.(check int) "a plain miss" 0 (Cache.stats c').load_failures;
  Cache.close c';
  let c'' = Cache.create ~dir () in
  (match Cache.find c'' ~config Model.programmer lost with
  | None -> Alcotest.fail "the record after the tail is lost"
  | Some v' -> check_verdict_equal "after the tail" v v');
  Alcotest.(check bool) "and the one before it" true
    (Option.is_some (Cache.find c'' ~config Model.programmer kept));
  let ds = Cache.disk_stats ~dir () in
  Alcotest.(check int) "the tail is one corrupt line" 1 ds.corrupt;
  Alcotest.(check int) "gc drops it" 1 (Cache.gc ~dir ());
  Alcotest.(check int) "two current records remain" 2 (Cache.disk_stats ~dir ()).current;
  ignore (Cache.clear ~dir)

let test_cache_lru_bound () =
  let dir = temp_dir "lru" in
  let c = Cache.create ~capacity:4 ~dir () in
  let programs =
    List.filteri (fun i _ -> i < 10) Tmx_litmus.Catalog.all
    |> List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program)
  in
  List.iter (fun p -> ignore (Cache.memo c ~config Model.programmer p)) programs;
  Alcotest.(check bool)
    (Fmt.str "resident %d <= capacity 4" (Cache.resident c))
    true
    (Cache.resident c <= 4);
  Alcotest.(check int) "evictions" 6 (Cache.stats c).evictions;
  (* evicted entries are still on disk and hit from there *)
  List.iter
    (fun p ->
      match Cache.find c ~config Model.programmer p with
      | None -> Alcotest.fail "evicted entry lost from disk"
      | Some _ -> ())
    programs;
  Alcotest.(check bool) "still bounded" true (Cache.resident c <= 4);
  ignore (Cache.clear ~dir)

let test_cache_concurrent () =
  let dir = temp_dir "concurrent" in
  let c = Cache.create ~capacity:8 ~dir () in
  let programs =
    List.filteri (fun i _ -> i < 8) Tmx_litmus.Catalog.all
    |> List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program)
    |> Array.of_list
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for round = 0 to 2 do
              Array.iteri
                (fun i p ->
                  ignore (d, round, i);
                  let v, _ = Cache.memo c ~config Model.programmer p in
                  ignore v)
                programs
            done))
  in
  List.iter Domain.join domains;
  (* every program is cached, and every cached verdict matches a direct
     computation *)
  Array.iter
    (fun p ->
      match Cache.find c ~config Model.programmer p with
      | None -> Alcotest.fail "entry missing after concurrent memo"
      | Some v ->
          check_verdict_equal "concurrent verdict"
            (Cache.compute ~config Model.programmer p)
            v)
    programs;
  let s = Cache.stats c in
  Alcotest.(check bool)
    (Fmt.str "misses %d bounded by writers x programs" s.misses)
    true
    (s.misses >= 8 && s.misses <= 4 * 8);
  ignore (Cache.clear ~dir)

(* the acceptance pin: catalog reports rendered via the cache — cold and
   from a fresh cache over a populated store — are byte-identical to the
   uncached ones *)
let test_cached_reports_identical () =
  let dir = temp_dir "identical" in
  let render enumerate (l : Tmx_litmus.Litmus.t) =
    Fmt.str "%a" Tmx_litmus.Litmus.pp_report
      (Tmx_litmus.Litmus.run ~config ~enumerate l)
  in
  let direct = fun ~config m p -> Enumerate.run ~config m p in
  let cold_cache = Cache.create ~dir () in
  let cold = fun ~config m p -> Cache.memo_run cold_cache ~config m p in
  let warm_cache = Cache.create ~dir () in
  let warm = fun ~config m p -> Cache.memo_run warm_cache ~config m p in
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      let a = render direct l and b = render cold l in
      Alcotest.(check string) (l.name ^ ": cold = direct") a b)
    Tmx_litmus.Catalog.all;
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      let a = render direct l and b = render warm l in
      Alcotest.(check string) (l.name ^ ": warm = direct") a b)
    Tmx_litmus.Catalog.all;
  Alcotest.(check int) "warm pass never misses" 0 (Cache.stats warm_cache).misses;
  Alcotest.(check bool)
    "warm pass only hits" true
    ((Cache.stats warm_cache).hits > 0);
  ignore (Cache.clear ~dir)

(* The enumeration a race check reads carries the cache's race pairs:
   none from the enumerator, the verdict's own array (shared, not
   copied) from a computed verdict and from a disk reload. *)
let test_result_carries_races () =
  let dir = temp_dir "races-field" in
  let p = program_of "privatization" in
  let model = Model.implementation in
  Alcotest.(check bool)
    "Enumerate.run leaves races empty" true
    ((Enumerate.run ~config model p).races = None);
  let shares what (v : Cache.verdict) =
    match v.result.races with
    | Some r -> Alcotest.(check bool) (what ^ ": the verdict's array") true (r == v.races)
    | None -> Alcotest.failf "%s: result.races = None" what
  in
  let v = Cache.compute ~config model p in
  shares "compute" v;
  Alcotest.(check bool) "some execution races" true (Array.exists (( <> ) []) v.races);
  let c = Cache.create ~dir () in
  let cold, _ = Cache.memo c ~config model p in
  shares "cold memo" cold;
  (match Cache.find (Cache.create ~dir ()) ~config model p with
  | None -> Alcotest.fail "fresh cache misses a stored entry"
  | Some r ->
      shares "disk reload" r;
      if r.races <> v.races then Alcotest.fail "disk reload: race pairs differ");
  ignore (Cache.clear ~dir)

(* Race checks synthesized for a generated program under two random
   models: race-free or racy claims over a random L ⊆ locs (or every
   location), with and without a condition on the outcome, and a
   mixed-race claim.  The condition splits the outcomes by a seeded
   hash.  The claims need not hold: the reports must only agree. *)
let synthesized_checks st (p : Ast.program) =
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  let some_l () =
    if Random.State.bool st then None
    else Some (List.filter (fun _ -> Random.State.bool st) p.locs)
  in
  let salt = Random.State.bits st in
  let cond o = Hashtbl.seeded_hash salt (o : Outcome.t) land 1 = 0 in
  let race model cond =
    let l = some_l () and expect = pick [ `All_race_free; `Some_racy ] in
    Tmx_litmus.Litmus.Race_check
      {
        model;
        descr =
          Fmt.str "%s on %s%s"
            (if expect = `All_race_free then "race-free" else "racy")
            (match l with None -> "Loc" | Some l -> "{" ^ String.concat "," l ^ "}")
            (if cond = None then "" else " when matched");
        cond;
        l;
        expect;
      }
  in
  List.concat_map
    (fun model ->
      [
        race model None;
        race model (Some cond);
        race model (Some cond);
        race model None;
        Tmx_litmus.Litmus.Mixed_race_check
          { model; descr = "mixed race"; expect = Random.State.bool st };
      ])
    [ pick Model.all; pick Model.all ]

(* Race checks answered from the cached pairs render the same reports
   as checks that derive every hb: direct, through a cold cache, and
   through a fresh cache that reloads every entry from disk. *)
let test_cached_race_checks () =
  let dir = temp_dir "race-checks" in
  let litmus =
    List.init 100 (fun i ->
        let st = Tmx_fuzz.Gen.state_of_seed ~seed:1234 ~index:i in
        let program = Tmx_fuzz.Gen.program ~name:"g" Tmx_fuzz.Gen.mixed st in
        {
          Tmx_litmus.Litmus.name = Fmt.str "g%d" i;
          section = "generated";
          description = "";
          program;
          checks = synthesized_checks st program;
        })
  in
  let render enumerate =
    List.map
      (fun l -> Fmt.str "%a" Tmx_litmus.Litmus.pp_report (Tmx_litmus.Litmus.run ~config ~enumerate l))
      litmus
  in
  let through c ~config m p = Cache.memo_run c ~config m p in
  let direct = render (fun ~config m p -> Enumerate.run ~config m p) in
  let cold = render (through (Cache.create ~dir ())) in
  let reload_cache = Cache.create ~dir () in
  let reload = render (through reload_cache) in
  List.iter2
    (fun (l : Tmx_litmus.Litmus.t) (d, (c, r)) ->
      Alcotest.(check string) (l.name ^ ": cold = direct") d c;
      Alcotest.(check string) (l.name ^ ": reload = direct") d r)
    litmus
    (List.combine direct (List.combine cold reload));
  Alcotest.(check int) "the reload never misses" 0 (Cache.stats reload_cache).misses;
  ignore (Cache.clear ~dir)

(* An absent log is a plain miss; a log that exists but cannot be read
   (here a symbolic link to itself) is a counted load failure, and memo
   still answers with the exact verdict, though it cannot store it. *)
let test_cache_absent_vs_unreadable () =
  let dir = temp_dir "absent" in
  let c = Cache.create ~dir () in
  let p = program_of "sb" in
  Alcotest.(check bool) "absent: no verdict" true (Cache.find c ~config Model.programmer p = None);
  let s = Cache.stats c in
  Alcotest.(check int) "absent: one miss" 1 s.misses;
  Alcotest.(check int) "absent: no load failure" 0 s.load_failures;
  let path = Cache.entry_path c (Cache.key c ~config Model.programmer p) in
  Alcotest.(check bool) "a lookup creates no log" false (Sys.file_exists path);
  Unix.symlink (Filename.basename path) path;
  let c' = Cache.create ~dir () in
  Alcotest.(check bool) "unreadable: no verdict" true
    (Cache.find c' ~config Model.programmer p = None);
  let s = Cache.stats c' in
  Alcotest.(check int) "unreadable: one miss" 1 s.misses;
  Alcotest.(check int) "unreadable: one load failure" 1 s.load_failures;
  let v, h = Cache.memo c' ~config Model.programmer p in
  Alcotest.(check bool) "unreadable: memo computes" true (h = `Miss);
  check_verdict_equal "unreadable: the exact verdict" (Cache.compute ~config Model.programmer p) v;
  Alcotest.(check int) "unreadable: nothing stored" 0 (Cache.stats c').stores;
  Alcotest.(check int) "gc deletes the log" 1 (Cache.gc ~dir ());
  ignore (Cache.memo c' ~config Model.programmer p);
  Alcotest.(check bool) "then memo stores again" true
    (Option.is_some (Cache.find (Cache.create ~dir ()) ~config Model.programmer p));
  Cache.close c';
  ignore (Cache.clear ~dir)

(* -- the serve daemon --------------------------------------------------------- *)

let socket_path () = Fmt.str "/tmp/tmx-test-%d.sock" (Unix.getpid ())

let req ?deadline_ms ?(model = "pm") ?name ?program ?(subrequests = []) verb =
  { Protocol.id = None; verb; name; program; model; deadline_ms; subrequests }

(* [socket] is any Client-parseable address: a path or tcp:HOST:PORT *)
let send socket r =
  match
    Result.bind (Client.addr_of_string socket) (fun addr ->
        Client.request ~wait_s:5. ~addr (Protocol.to_json r))
  with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "request %s failed: %s" r.Protocol.verb e

let field conv k resp = Option.bind (Json.mem k resp) conv

let test_server_end_to_end () =
  let dir = temp_dir "server" in
  let socket = socket_path () in
  let cfg =
    {
      (Server.default_config ~socket) with
      cache_dir = dir;
      cache_capacity = 1;  (* tiny front: force disk reloads and evictions *)
      workers = 2;
      jobs = 2;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      (* ping *)
      let resp = send socket (req "ping") in
      Alcotest.(check bool) "ping ok" true (Protocol.response_ok resp);
      (* races: miss then hit *)
      let r1 = send socket (req ~name:"sb" "races") in
      Alcotest.(check bool) "races ok" true (Protocol.response_ok r1);
      Alcotest.(check (option bool))
        "first races uncached" (Some false)
        (field Json.to_bool "cached" r1);
      let r2 = send socket (req ~name:"sb" "races") in
      Alcotest.(check (option bool))
        "second races cached" (Some true)
        (field Json.to_bool "cached" r2);
      Alcotest.(check (option int))
        "racy executions stable"
        (field Json.to_int "racy" r1)
        (field Json.to_int "racy" r2);
      (* a litmus source in "program" works and shares the entry of its
         catalog twin (the digest ignores the name) *)
      let src =
        Tmx_litmus.Export.program_to_string (program_of "sb")
      in
      let r3 = send socket (req ~program:src "races") in
      Alcotest.(check (option bool))
        "program text hits the catalog entry" (Some true)
        (field Json.to_bool "cached" r3);
      (* unknown name and unknown verb are errors, not disconnects *)
      let bad = send socket (req ~name:"no-such-test" "outcomes") in
      Alcotest.(check bool) "unknown name rejected" false (Protocol.response_ok bad);
      let bad2 = send socket (req ~name:"sb" "frobnicate") in
      Alcotest.(check bool) "unknown verb rejected" false (Protocol.response_ok bad2);
      (* deadline_ms = 0: already expired at dispatch *)
      let d = send socket (req ~deadline_ms:0 ~name:"iriw_z" "outcomes") in
      Alcotest.(check bool) "expired deadline rejected" false (Protocol.response_ok d);
      Alcotest.(check (option string))
        "deadline error text" (Some "deadline exceeded")
        (field Json.to_str "error" d);
      (* disconnect mid-request: a partial line, then a full request the
         client never reads the answer of; both leave the server alive *)
      let abandon payload =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        ignore (Unix.write_substring fd payload 0 (String.length payload));
        Unix.close fd
      in
      abandon "{\"verb\":\"ra";
      abandon "{\"verb\":\"races\",\"name\":\"publication\"}\n";
      let resp = send socket (req "ping") in
      Alcotest.(check bool)
        "server survives client disconnects" true
        (Protocol.response_ok resp);
      (* corrupt the stored sb record on disk.  The abandoned publication
         request above evicts sb from the capacity-1 front only once a
         worker gets to it; evict synchronously with an unrelated request
         so the next sb query deterministically takes the corruption
         path — and still answers correctly *)
      let evict = send socket (req ~name:"lb" "races") in
      Alcotest.(check bool) "evictor ok" true (Protocol.response_ok evict);
      let key =
        Cache.key (Server.cache t) ~config:cfg.enum Model.programmer
          (program_of "sb")
      in
      damage_records ~pick:(String.equal key) (Cache.entry_path (Server.cache t) key);
      let r4 = send socket (req ~name:"sb" "races") in
      Alcotest.(check bool)
        "server survives a corrupted entry" true
        (Protocol.response_ok r4);
      Alcotest.(check (option int))
        "recomputed verdict matches"
        (field Json.to_int "racy" r1)
        (field Json.to_int "racy" r4);
      (* batch, twice: the second is served from the cache *)
      let names = [ "privatization"; "publication"; "lb" ] in
      let batch =
        req "batch"
          ~subrequests:(List.map (fun n -> req ~name:n "check") names)
      in
      let b1 = send socket batch in
      Alcotest.(check (option int))
        "batch count" (Some 3) (field Json.to_int "count" b1);
      Alcotest.(check (option int))
        "batch all ok" (Some 3)
        (field Json.to_int "ok_count" b1);
      let b2 = send socket batch in
      Alcotest.(check (option int))
        "second batch fully cached" (Some 3)
        (field Json.to_int "cached" b2);
      (* stats *)
      let s = send socket (req "stats") in
      let cache_stats = Option.get (Json.mem "cache" s) in
      let hits = Option.get (field Json.to_int "hits" cache_stats) in
      let load_failures =
        Option.get (field Json.to_int "load_failures" cache_stats)
      in
      Alcotest.(check bool) (Fmt.str "hits %d > 0" hits) true (hits > 0);
      Alcotest.(check bool)
        (Fmt.str "load failure %d counted" load_failures)
        true (load_failures >= 1);
      let metrics = Option.get (Json.mem "metrics" s) in
      Alcotest.(check bool)
        "requests counted" true
        (Option.get (field Json.to_int "requests" metrics) >= 10);
      Alcotest.(check (option int))
        "deadline metric" (Some 1)
        (field Json.to_int "deadlines_exceeded" metrics));
  (* stop is idempotent and removes the socket *)
  Server.stop t;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* One request line over a fresh Unix-socket connection, exactly as
   written (the Json.t a client builds cannot hold 1e999); the raw
   reply line. *)
let exchange_raw socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let line = line ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      input_line (Unix.in_channel_of_descr fd))

(* Numbers outside the float or int range: an id that overflows to
   infinity makes the line malformed (it used to be echoed as the
   invalid JSON `inf`), and a deadline too large for an int counts as
   no deadline (it used to read as 0 ms, so the request expired) *)
let test_server_out_of_range_numbers () =
  let dir = temp_dir "range" in
  let socket = socket_path () ^ "5" in
  let t = Server.start { (Server.default_config ~socket) with cache_dir = dir } in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      let reply line =
        let raw = exchange_raw socket line in
        match Json.of_string raw with
        | Ok j -> j
        | Error e -> Alcotest.failf "reply to %s is not JSON (%s): %s" line e raw
      in
      let r = reply {|{"verb":"ping","id":1e999}|} in
      Alcotest.(check bool) "overflowing id: malformed request" false
        (Protocol.response_ok r);
      Alcotest.(check bool) "no id echoed" true (Json.mem "id" r = None);
      Alcotest.(check string) "-0 echoed as sent"
        {|{"ok":true,"verb":"ping","id":-0}|}
        (exchange_raw socket {|{"verb":"ping","id":-0}|});
      let line = {|{"verb":"races","name":"sb","deadline_ms":1e300}|} in
      (match Protocol.of_line line with
      | Ok req ->
          Alcotest.(check (option int)) "1e300 ms is no deadline" None req.deadline_ms
      | Error e -> Alcotest.failf "%s: %s" line e);
      let r = reply line in
      Alcotest.(check (option string)) "no deadline error" None
        (field Json.to_str "error" r);
      Alcotest.(check bool) "races answered" true (Protocol.response_ok r))

(* closing a listener removes its socket file only while the file is
   its own: a daemon restarted on the same path keeps its socket while
   the old one drains *)
let test_listener_path_ownership () =
  let path = Fmt.str "/tmp/tmx-test-own-%d.sock" (Unix.getpid ()) in
  let cfg = Server.default_config ~socket:path in
  let old_daemon = Server.listen cfg in
  let new_daemon = Server.listen cfg in
  Server.close_listener old_daemon;
  Alcotest.(check bool) "the new daemon's socket survives" true (Sys.file_exists path);
  Server.close_listener new_daemon;
  Alcotest.(check bool) "closing the owner removes it" false (Sys.file_exists path)

let test_server_shutdown_verb () =
  let dir = temp_dir "shutdown" in
  let socket = socket_path () ^ "2" in
  let cfg = { (Server.default_config ~socket) with cache_dir = dir } in
  let t = Server.start cfg in
  let resp = send socket (req "shutdown") in
  Alcotest.(check bool) "shutdown acknowledged" true (Protocol.response_ok resp);
  Server.wait t;
  Alcotest.(check bool) "stopping" true (Server.stopping t);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket);
  ignore (Cache.clear ~dir)

(* -- the monotonic clock ------------------------------------------------------ *)

(* The NTP-step regression pin: every deadline and latency in the service
   layer is computed on [Tmx_runtime.Clock], which reads
   CLOCK_MONOTONIC — a clock that cannot be stepped by NTP or a TZ
   change.  A revert to [Unix.gettimeofday] fails the origin check (wall
   time sits at ~1.7e9 s past the epoch; the monotonic origin is around
   boot), and the TZ churn below would make a localtime-derived clock
   jump. *)
let test_clock_monotonic () =
  let module Clock = Tmx_runtime.Clock in
  Alcotest.(check bool) "not wall time" true
    (Float.abs (Clock.now_s () -. Unix.gettimeofday ()) > 86400.);
  let saved_tz = Sys.getenv_opt "TZ" in
  Fun.protect
    ~finally:(fun () ->
      match saved_tz with Some tz -> Unix.putenv "TZ" tz | None -> ())
    (fun () ->
      let prev = ref (Clock.now_ns ()) in
      List.iter
        (fun tz ->
          Unix.putenv "TZ" tz;
          for _ = 1 to 1000 do
            let t = Clock.now_ns () in
            if t < !prev then Alcotest.fail "monotonic clock went backwards";
            prev := t
          done)
        [ "UTC"; "America/New_York"; "Asia/Tokyo"; "UTC-14" ];
      (* a 50ms deadline expires by elapsed time only, whatever the
         wall-clock context does in between *)
      let deadline = Clock.now_s () +. 0.05 in
      Unix.putenv "TZ" "Pacific/Kiritimati";
      Alcotest.(check bool) "not expired early" true (Clock.now_s () < deadline);
      Unix.sleepf 0.06;
      Alcotest.(check bool) "expired by elapsed time" true
        (Clock.now_s () >= deadline))

(* -- IO robustness ------------------------------------------------------------ *)

(* A repeating interval timer peppers the process with SIGALRM while a
   large batch response streams back: every read and write on both sides
   must resume after EINTR instead of truncating the response or
   dropping the connection. *)
let test_batch_survives_signals () =
  let dir = temp_dir "signals" in
  let socket = socket_path () ^ "3" in
  let cfg = { (Server.default_config ~socket) with cache_dir = dir } in
  let t = Server.start cfg in
  let old_alrm = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop_timer () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { it_value = 0.; it_interval = 0. })
  in
  Fun.protect
    ~finally:(fun () ->
      stop_timer ();
      Sys.set_signal Sys.sigalrm old_alrm;
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { it_value = 0.002; it_interval = 0.002 });
      let n = 400 in
      let batch =
        req "batch" ~subrequests:(List.init n (fun _ -> req "ping"))
      in
      let resp = send socket batch in
      Alcotest.(check bool) "batch ok under signal pressure" true
        (Protocol.response_ok resp);
      Alcotest.(check (option int))
        "every sub-response arrived" (Some n)
        (field Json.to_int "count" resp);
      Alcotest.(check (option int))
        "all ok" (Some n)
        (field Json.to_int "ok_count" resp))

(* Thousands of pipelined request lines pushed in one write: the
   server's line splitter must hand back one response per line (the old
   rebuild-the-buffer-per-line splitter made this quadratic; the test
   doubles as its performance cram) *)
let test_pipelined_lines () =
  let dir = temp_dir "pipeline" in
  let socket = socket_path () ^ "4" in
  let cfg = { (Server.default_config ~socket) with cache_dir = dir } in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      let n = 2000 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let line = Json.to_string (Protocol.to_json (req "ping")) ^ "\n" in
      let payload = String.concat "" (List.init n (fun _ -> line)) in
      let rec wr off =
        if off < String.length payload then
          match
            Unix.write_substring fd payload off (String.length payload - off)
          with
          | w -> wr (off + w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wr off
      in
      wr 0;
      let buf = Buffer.create (n * 32) in
      let chunk = Bytes.create 8192 in
      let count_lines () =
        let c = ref 0 in
        String.iter
          (fun ch -> if ch = '\n' then incr c)
          (Buffer.contents buf);
        !c
      in
      let t0 = Tmx_runtime.Clock.now_s () in
      while count_lines () < n && Tmx_runtime.Clock.now_s () -. t0 < 60. do
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 -> Alcotest.fail "server closed the connection mid-pipeline"
        | k -> Buffer.add_subbytes buf chunk 0 k
      done;
      Unix.close fd;
      Alcotest.(check int) "one response line per request" n (count_lines ());
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter (fun s -> s <> "")
      |> List.iter (fun s ->
             match Json.of_string s with
             | Ok j ->
                 if not (Protocol.response_ok j) then
                   Alcotest.failf "error response in pipeline: %s" s
             | Error e -> Alcotest.failf "bad response line: %s" e))

(* -- sharded cache isolation -------------------------------------------------- *)

(* Shards are independent: damaging every record of one shard's log
   must leave the other shards serving from disk, and the damaged shard
   recovers by recomputation. *)
let test_cache_shard_isolation () =
  let dir = temp_dir "shardiso" in
  let c = Cache.create ~shards:4 ~capacity:64 ~dir () in
  let progs =
    List.filteri (fun i _ -> i < 8) Tmx_litmus.Catalog.all
    |> List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program)
  in
  List.iter (fun p -> ignore (Cache.memo c ~config Model.programmer p)) progs;
  Cache.close c;
  let key_of p = Cache.key c ~config Model.programmer p in
  let victim = List.hd progs in
  let victim_shard = Cache.shard_index c (key_of victim) in
  let survivor =
    match
      List.find_opt
        (fun p -> Cache.shard_index c (key_of p) <> victim_shard)
        progs
    with
    | Some p -> p
    | None -> Alcotest.fail "catalog keys all landed in one shard"
  in
  damage_records (Cache.entry_path c (key_of victim));
  (* a fresh store over the same tree (cold LRU front, so every find
     goes to disk) *)
  let c2 = Cache.create ~shards:4 ~capacity:64 ~dir () in
  Alcotest.(check bool)
    "other shard unharmed" true
    (Option.is_some (Cache.find c2 ~config Model.programmer survivor));
  Alcotest.(check bool)
    "victim entry unreadable" true
    (Option.is_none (Cache.find c2 ~config Model.programmer victim));
  Alcotest.(check bool)
    "damage counted as load failure" true
    ((Cache.stats c2).load_failures >= 1);
  let v, outcome = Cache.memo c2 ~config Model.programmer victim in
  Alcotest.(check bool) "victim recomputed" true (outcome = `Miss);
  check_verdict_equal "recovered verdict"
    (Cache.compute ~config Model.programmer victim)
    v;
  Cache.close c2;
  ignore (Cache.clear ~dir)

(* The records that writer [w] of [test_cache_concurrent_writers]
   stores: 40 generated programs, and before every fourth of them a
   verdict longer than the 64 KiB that one write(2) carries, under a
   key of its own. *)
let writer_work w =
  let big_config = { config with max_graphs = 200 } in
  let big = lazy (Cache.compute ~config:big_config Model.programmer Test_reduction.w3o3) in
  let generated i =
    let st = Tmx_fuzz.Gen.state_of_seed ~seed:2101 ~index:((40 * w) + i) in
    let p = Tmx_fuzz.Gen.program ~name:"w" Tmx_fuzz.Gen.mixed st in
    (config, p, Cache.compute ~config Model.programmer p)
  in
  List.concat
    (List.init 10 (fun j ->
         let big_key = { big_config with max_graphs = 200 + (10 * w) + j } in
         (big_key, Test_reduction.w3o3, Lazy.force big)
         :: List.init 4 (fun i -> generated ((4 * j) + i))))

let writer_shards = 2

(* Writer process [proc] (the test executable run as [main.exe
   cache-writer DIR PROC]): once its standard input closes, writers [2
   proc] and [2 proc + 1] store their records into [dir] at once, on two
   domains, each through a cache of its own. *)
let cache_writer ~dir proc =
  let works = List.init 2 (fun d -> writer_work ((2 * proc) + d)) in
  ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1);
  let write work () =
    let c = Cache.create ~shards:writer_shards ~dir () in
    List.iter (fun (config, p, v) -> Cache.store c ~config Model.programmer p v) work;
    Cache.close c
  in
  List.iter Domain.join (List.map (fun w -> Domain.spawn (write w)) works);
  exit 0

(* Two processes of two domains each append 50 records apiece to one
   sharded directory at the same time, 10 of them longer than one
   write(2) carries.  A fresh cache then finds every entry, and no
   record is torn.  The test process has spawned domains by now, and
   OCaml forbids [fork] after that, so the writers are this executable
   run again. *)
let test_cache_concurrent_writers () =
  let dir = temp_dir "writers" in
  Cache.close (Cache.create ~shards:writer_shards ~dir ());
  let gate, release = Unix.pipe ~cloexec:true () in
  let writers =
    List.init 2 (fun proc ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "cache-writer"; dir; string_of_int proc |]
          gate Unix.stdout Unix.stderr)
  in
  Unix.close gate;
  let works = List.init 4 writer_work in
  (* the writers compute their records meanwhile; closing the pipe
     starts them together *)
  Unix.close release;
  List.iter
    (fun pid ->
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a writer process failed")
    writers;
  let c = Cache.create ~shards:writer_shards ~dir () in
  let keys = Hashtbl.create 256 in
  List.iter
    (List.iter (fun (config, p, v) ->
         Hashtbl.replace keys (Cache.key c ~config Model.programmer p) ();
         match Cache.find c ~config Model.programmer p with
         | None -> Alcotest.fail "a concurrently stored entry is missing"
         | Some v' -> check_verdict_equal "concurrently stored" v v'))
    works;
  Alcotest.(check int) "no load failure" 0 (Cache.stats c).load_failures;
  Cache.close c;
  let ds = Cache.disk_stats ~dir () in
  Alcotest.(check int) "no corrupt record" 0 ds.corrupt;
  Alcotest.(check int) "every record" (4 * 50) ds.records;
  Alcotest.(check int) "every key current" (Hashtbl.length keys) ds.current;
  ignore (Cache.clear ~dir)

(* [gc] compacting the log, and [clear] deleting it, while a cache
   holds it open: the cache must neither append to nor read from the
   file it replaced, whether its next call is a store (which checks
   before appending) or a lookup (which checks before rescanning). *)
let test_cache_replaced_under_open () =
  let dir = temp_dir "replaced" in
  let progs =
    Array.of_list
      (List.filteri (fun i _ -> i < 5) Tmx_litmus.Catalog.all
      |> List.map (fun (l : Tmx_litmus.Litmus.t) -> l.program))
  in
  let found c i = Option.is_some (Cache.find c ~config Model.programmer progs.(i)) in
  let in_fresh i =
    let c = Cache.create ~dir () in
    let r = found c i in
    Cache.close c;
    r
  in
  let store_from_other i =
    let c = Cache.create ~dir () in
    ignore (Cache.memo c ~config Model.programmer progs.(i));
    Cache.close c
  in
  let open_ = Cache.create ~dir () in
  let v0, _ = Cache.memo open_ ~config Model.programmer progs.(0) in
  let other = Cache.create ~dir () in
  Cache.store other ~config Model.programmer progs.(0) v0;
  Cache.close other;
  store_from_other 1;
  let ds = Cache.disk_stats ~dir () in
  Alcotest.(check int) "a key stored twice: one superseded record" 1 ds.superseded;
  Alcotest.(check int) "two current keys" 2 ds.current;
  Alcotest.(check int) "gc drops the superseded record" 1 (Cache.gc ~dir ());
  Alcotest.(check int) "the compacted log" 2 (Cache.disk_stats ~dir ()).records;
  Cache.store open_ ~config Model.programmer progs.(2)
    (Cache.compute ~config Model.programmer progs.(2));
  Alcotest.(check bool) "a store after the compaction is found" true (in_fresh 2);
  Alcotest.(check bool) "so are the kept ones" true (in_fresh 0 && in_fresh 1);
  Alcotest.(check int) "clear removes three records" 3 (Cache.clear ~dir);
  store_from_other 3;
  Alcotest.(check bool) "the open cache reads the new log" true (found open_ 3);
  ignore (Cache.clear ~dir);
  Cache.store open_ ~config Model.programmer progs.(4)
    (Cache.compute ~config Model.programmer progs.(4));
  Alcotest.(check bool) "a store after the clear is found" true (in_fresh 4);
  Alcotest.(check bool) "nothing from before it" false (in_fresh 3);
  Cache.close open_;
  ignore (Cache.clear ~dir)

(* A closed cache reopens its log when used again, and a cache dropped
   unclosed has its log's descriptor closed by a finaliser. *)
let test_cache_close () =
  let dir = temp_dir "close" in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let p = program_of "sb" and q = program_of "lb" in
  let c = Cache.create ~capacity:1 ~dir () in
  ignore (Cache.memo c ~config Model.programmer p);
  ignore (Cache.memo c ~config Model.programmer q);
  Cache.close c;
  Alcotest.(check bool) "an evicted entry is read after close" true
    (Option.is_some (Cache.find c ~config Model.programmer p));
  Alcotest.(check int) "from the reopened log" 1 (Cache.stats c).hits;
  Cache.close c;
  let v = Cache.compute ~config Model.programmer p in
  let before = open_fds () in
  for _ = 1 to 20 do
    Cache.store (Cache.create ~dir ()) ~config Model.programmer p v
  done;
  Gc.full_major ();
  Alcotest.(check int) "dropped caches leave no descriptor open" before (open_fds ());
  ignore (Cache.clear ~dir)

(* gc and clear reclaim what the one-file-per-entry layout left: its
   entries, and the temp files of writers killed before their rename *)
let test_cache_legacy_files () =
  let dir = temp_dir "legacy" in
  let c = Cache.create ~shards:2 ~dir () in
  ignore (Cache.memo c ~config Model.programmer (program_of "sb"));
  Cache.close c;
  let shard0 = Filename.concat dir "shard-00" in
  let leave name = Out_channel.with_open_bin name (fun oc -> output_string oc "{}") in
  List.iter leave
    [
      Filename.concat dir "0123.json";
      Filename.concat shard0 "abcd.json";
      Filename.concat shard0 ".tmp-abcd-1-2";
    ];
  let ds = Cache.disk_stats ~dir () in
  Alcotest.(check (list int)) "records, current, stale, corrupt" [ 4; 1; 2; 1 ]
    [ ds.records; ds.current; ds.stale; ds.corrupt ];
  Alcotest.(check int) "gc removes the three files" 3 (Cache.gc ~dir ());
  Alcotest.(check int) "the record stays" 1 (Cache.disk_stats ~dir ()).current;
  leave (Filename.concat shard0 ".tmp-abcd-3-4");
  Alcotest.(check int) "clear removes the record and the file" 2 (Cache.clear ~dir);
  Alcotest.(check int) "nothing left" 0 (Cache.disk_stats ~dir ()).records

(* Truncated digests would alias into a single shard and shadow each
   other; the path constructors must reject them. *)
let test_cache_shard_prefix_guard () =
  let dir = temp_dir "shardguard" in
  let c = Cache.create ~shards:2 ~dir () in
  let rejects what k f =
    match f k with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s %S accepted" what k
  in
  rejects "shard_index of short digest" "a" (Cache.shard_index c);
  rejects "entry_path of short digest" "f" (Cache.entry_path c);
  rejects "shard_index of empty digest" "" (Cache.shard_index c);
  rejects "shard_index of non-hex digest" "zz0" (Cache.shard_index c);
  let k = Cache.key c ~config Model.programmer (program_of "sb") in
  let i = Cache.shard_index c k in
  Alcotest.(check bool) "real key lands in range" true (i >= 0 && i < 2);
  (* uppercase hex is a valid digest spelling: same shard as lowercase,
     not a guard trip ('A'..'F' go through hex_digit too) *)
  Alcotest.(check int) "uppercase digest, same shard" i
    (Cache.shard_index c (String.uppercase_ascii k));
  Alcotest.(check int) "FF agrees with ff" (Cache.shard_index c "ff")
    (Cache.shard_index c "FF");
  Alcotest.(check int) "0A agrees with 0a" (Cache.shard_index c "0a")
    (Cache.shard_index c "0A");
  ignore (Cache.clear ~dir)

(* -- client address parsing --------------------------------------------------- *)

let test_addr_of_string () =
  let ok what s expect =
    match Client.addr_of_string s with
    | Ok a ->
        if a <> expect then
          Alcotest.failf "%s: %S parsed to %s" what s (Client.addr_to_string a)
    | Error e -> Alcotest.failf "%s: %S rejected: %s" what s e
  in
  let err what s =
    match Client.addr_of_string s with
    | Error _ -> ()
    | Ok a ->
        Alcotest.failf "%s: %S accepted as %s" what s (Client.addr_to_string a)
  in
  ok "tcp host:port" "tcp:localhost:8080" (Client.Tcp ("localhost", 8080));
  ok "empty host defaults" "tcp::9" (Client.Tcp ("127.0.0.1", 9));
  ok "absolute socket path" "/tmp/tmx.sock" (Client.Unix_sock "/tmp/tmx.sock");
  ok "relative path with colon" "./run/a:b.sock"
    (Client.Unix_sock "./run/a:b.sock");
  ok "bare name is a path" "tmx.sock" (Client.Unix_sock "tmx.sock");
  err "missing port" "tcp:localhost";
  err "bare scheme" "tcp:";
  err "empty port" "tcp:localhost:";
  err "non-numeric port" "tcp:localhost:http";
  err "port out of range" "tcp:localhost:70000";
  err "negative port" "tcp:localhost:-1";
  err "unknown scheme" "udp:localhost:9";
  err "url scheme" "http://localhost:9"

(* -- TCP transport ------------------------------------------------------------ *)

let test_server_tcp () =
  let dir = temp_dir "tcp" in
  let cfg =
    {
      (Server.default_config ~socket:"unused") with
      socket = None;
      tcp = Some ("127.0.0.1", 0);  (* kernel picks the port *)
      cache_dir = dir;
      cache_shards = 2;
      workers = 2;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      let addr =
        match Server.server_addresses t with
        | [ a ] -> a
        | l -> Alcotest.failf "expected one address, got %d" (List.length l)
      in
      Alcotest.(check bool)
        (Fmt.str "bound address %s is tcp with a real port" addr)
        true
        (String.length addr > String.length "tcp:127.0.0.1:"
        && String.starts_with ~prefix:"tcp:127.0.0.1:" addr
        && (match Client.addr_of_string addr with
           | Ok (Client.Tcp (_, p)) -> p > 0
           | _ -> false));
      let resp = send addr (req "ping") in
      Alcotest.(check bool) "tcp ping ok" true (Protocol.response_ok resp);
      let r1 = send addr (req ~name:"sb" "races") in
      Alcotest.(check bool) "tcp races ok" true (Protocol.response_ok r1);
      let r2 = send addr (req ~name:"sb" "races") in
      Alcotest.(check (option bool))
        "tcp second races cached" (Some true)
        (field Json.to_bool "cached" r2);
      let s = send addr (req "stats") in
      let cache_stats = Option.get (Json.mem "cache" s) in
      Alcotest.(check (option int))
        "stats reports the shard count" (Some 2)
        (field Json.to_int "shards" cache_stats))

(* -- admission control -------------------------------------------------------- *)

(* With the admission budget pinned to one in-flight expensive request,
   three domains hammering always-cold (freshly generated) programs must
   collide: some requests get the structured overloaded response — well
   formed, not a disconnect — and the server counts every shed. *)
let test_admission_shedding () =
  let dir = temp_dir "shed" in
  let socket = socket_path () ^ "5" in
  let cfg =
    {
      (Server.default_config ~socket) with
      cache_dir = dir;
      workers = 4;
      max_inflight = 1;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Cache.clear ~dir))
    (fun () ->
      let hammer d =
        let sheds = ref [] in
        for i = 0 to 19 do
          let st = Tmx_fuzz.Gen.state_of_seed ~seed:((d * 1000) + i) ~index:0 in
          let src =
            Tmx_litmus.Export.program_to_string
              (Tmx_fuzz.Gen.program ~name:"shed" Tmx_fuzz.Gen.mixed st)
          in
          let resp = send socket (req ~program:src "races") in
          if Protocol.response_overloaded resp then sheds := resp :: !sheds
          else if not (Protocol.response_ok resp) then
            Alcotest.failf "non-shed error under load: %s"
              (Json.to_string resp)
        done;
        !sheds
      in
      let domains = List.init 3 (fun d -> Domain.spawn (fun () -> hammer d)) in
      let sheds = List.concat_map Domain.join domains in
      Alcotest.(check bool)
        (Fmt.str "observed %d sheds" (List.length sheds))
        true
        (List.length sheds >= 1);
      List.iter
        (fun resp ->
          Alcotest.(check bool)
            "shed is not ok" false (Protocol.response_ok resp);
          Alcotest.(check (option string))
            "shed error text" (Some "overloaded")
            (field Json.to_str "error" resp);
          Alcotest.(check (option string))
            "shed echoes the verb" (Some "races")
            (field Json.to_str "verb" resp))
        sheds;
      (* exempt verbs keep answering and the counter is visible *)
      let s = send socket (req "stats") in
      Alcotest.(check bool) "stats ok under load" true (Protocol.response_ok s);
      let metrics = Option.get (Json.mem "metrics" s) in
      Alcotest.(check bool)
        "sheds counted in stats" true
        (Option.get (field Json.to_int "sheds" metrics) >= List.length sheds))

(* -- loadgen ------------------------------------------------------------------ *)

(* The stream is a pure function of (seed, index): concurrency must not
   change any request, and a different seed must. *)
let test_loadgen_determinism () =
  let open Loadgen in
  let stream cfg n =
    let targets = pool cfg in
    let cum = zipf_cumulative ~skew:cfg.skew (Array.length targets) in
    List.init n (fun i ->
        Json.to_string (Protocol.to_json (request cfg ~cum ~targets i)))
  in
  let cfg = { default_config with generated = 4 } in
  let a = stream cfg 64 in
  let b = stream { cfg with concurrency = 7; duration_s = 0.1 } 64 in
  Alcotest.(check (list string)) "stream independent of concurrency" a b;
  let c = stream { cfg with seed = cfg.seed + 1 } 64 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  (* the verb mix actually mixes *)
  let verbs =
    List.sort_uniq compare
      (List.filter_map
         (fun line ->
           Result.to_option (Json.of_string line)
           |> Fun.flip Option.bind (Json.mem "verb")
           |> Fun.flip Option.bind Json.to_str)
         a)
  in
  Alcotest.(check bool)
    (Fmt.str "several verbs drawn (%s)" (String.concat "," verbs))
    true
    (List.length verbs >= 3);
  (* open loop: the arrival schedule is deterministic, strictly
     increasing, roughly at the configured rate — and disjoint from the
     content stream, so turning it on changes no request *)
  let ol = { cfg with rate = 100.0 } in
  let t1 = arrivals ol ~n:256 and t2 = arrivals ol ~n:256 in
  Alcotest.(check (array (float 0.0))) "arrival schedule deterministic" t1 t2;
  Array.iteri
    (fun i t ->
      if i > 0 && t <= t1.(i - 1) then
        Alcotest.failf "arrivals not increasing at %d" i)
    t1;
  let mean_gap = t1.(255) /. 256.0 in
  Alcotest.(check bool)
    (Fmt.str "mean gap %.4fs near 1/rate" mean_gap)
    true
    (mean_gap > 0.005 && mean_gap < 0.02);
  Alcotest.(check (list string)) "rate leaves request contents alone" a
    (stream ol 64)

(* End-to-end: a short run against an in-process TCP server, then the
   1-vs-2-shard byte-identity oracle on two fresh servers. *)
let test_loadgen_oracle () =
  let with_tcp_server ~tag ~shards f =
    let dir = temp_dir tag in
    let cfg =
      {
        (Server.default_config ~socket:"unused") with
        socket = None;
        tcp = Some ("127.0.0.1", 0);
        cache_dir = dir;
        cache_shards = shards;
        workers = 2;
      }
    in
    let t = Server.start cfg in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        ignore (Cache.clear ~dir))
      (fun () ->
        match Server.server_addresses t with
        | [ a ] -> f (Result.get_ok (Client.addr_of_string a))
        | _ -> Alcotest.fail "expected one bound address")
  in
  let lg =
    { Loadgen.default_config with use_catalog = false; generated = 8 }
  in
  with_tcp_server ~tag:"lg-run" ~shards:2 (fun addr ->
      let r =
        Loadgen.run
          ~config:{ lg with concurrency = 2; requests = 40 }
          addr
      in
      Alcotest.(check int) "all requests sent" 40 r.Loadgen.requests_sent;
      Alcotest.(check int) "no transport errors" 0 r.Loadgen.errors;
      Alcotest.(check bool) "answers arrived" true (r.Loadgen.ok > 0);
      Alcotest.(check bool)
        (Fmt.str "repeat targets hit the cache (hit rate %.2f)"
           r.Loadgen.hit_rate)
        true (r.Loadgen.hits > 0));
  with_tcp_server ~tag:"lg-a" ~shards:1 (fun a ->
      with_tcp_server ~tag:"lg-b" ~shards:2 (fun b ->
          match Loadgen.oracle ~config:lg ~requests:32 a b with
          | Ok None -> ()
          | Ok (Some m) ->
              Alcotest.failf "shard divergence at %d:@.%s@.%s" m.Loadgen.index
                m.Loadgen.line_a m.Loadgen.line_b
          | Error e -> Alcotest.failf "oracle transport failure: %s" e))

let suite =
  [
    Alcotest.test_case "canon catalog round trip" `Quick test_canon_catalog;
    Alcotest.test_case "canon generated round trip" `Quick test_canon_generated;
    Alcotest.test_case "canon negative literals" `Quick test_canon_negative_literal;
    Alcotest.test_case "digest invariance" `Quick test_digest_invariance;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Tb.qcheck prop_json_roundtrip;
    Alcotest.test_case "protocol round trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "cache store/find round trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache version mismatch" `Quick test_cache_version_mismatch;
    Tb.qcheck prop_json_one_line;
    Tb.qcheck prop_newline_search;
    Alcotest.test_case "cache corruption recovery" `Quick test_cache_corruption;
    Alcotest.test_case "cache log truncated at every offset" `Quick test_cache_truncated_log;
    Alcotest.test_case "cache NUL-filled tail" `Quick test_cache_nul_tail;
    Alcotest.test_case "cache LRU bound" `Quick test_cache_lru_bound;
    Alcotest.test_case "cache concurrent memo" `Quick test_cache_concurrent;
    Alcotest.test_case "cached reports byte-identical" `Slow
      test_cached_reports_identical;
    Alcotest.test_case "enumeration carries cached races" `Quick test_result_carries_races;
    Alcotest.test_case "cached race checks on generated programs" `Slow
      test_cached_race_checks;
    Alcotest.test_case "cache absent vs unreadable entry" `Quick
      test_cache_absent_vs_unreadable;
    Alcotest.test_case "cache shard isolation" `Quick test_cache_shard_isolation;
    Alcotest.test_case "cache concurrent writers" `Quick test_cache_concurrent_writers;
    Alcotest.test_case "cache log replaced under an open cache" `Quick
      test_cache_replaced_under_open;
    Alcotest.test_case "cache gc reclaims the old layout" `Quick test_cache_legacy_files;
    Alcotest.test_case "cache close and finaliser" `Quick test_cache_close;
    Alcotest.test_case "cache shard prefix guard" `Quick
      test_cache_shard_prefix_guard;
    Alcotest.test_case "client address parsing" `Quick test_addr_of_string;
    Alcotest.test_case "server end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "server tcp transport" `Quick test_server_tcp;
    Alcotest.test_case "server shutdown verb" `Quick test_server_shutdown_verb;
    Alcotest.test_case "server out-of-range numbers" `Quick
      test_server_out_of_range_numbers;
    Alcotest.test_case "restarted daemon keeps its socket" `Quick test_listener_path_ownership;
    Alcotest.test_case "admission shedding" `Slow test_admission_shedding;
    Alcotest.test_case "loadgen determinism" `Quick test_loadgen_determinism;
    Alcotest.test_case "loadgen run and shard oracle" `Slow test_loadgen_oracle;
    Alcotest.test_case "monotonic clock vs wall/TZ" `Quick test_clock_monotonic;
    Alcotest.test_case "batch response survives signals" `Slow
      test_batch_survives_signals;
    Alcotest.test_case "pipelined request lines" `Slow test_pipelined_lines;
  ]
