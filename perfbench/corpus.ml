(* The programs the workloads send, and the reference answers they are
   checked against.

   Three sources: the 33 catalog programs, the two frontier programs of
   the reduction experiment (bench/main.ml), and a fixed pool of
   [Tmx_fuzz.Gen.mixed] programs.  The pool is generated from a constant
   seed, so its answers can be computed once, by the reference paths
   the test suite trusts ([Enumerate.No_reduction] at jobs 1 and
   [Hb.compute_reference]), and stored in reference.txt; a run's --seed
   chooses which pool programs it sends and in which order.  Every pool
   program's litmus text is re-derived at run time and checked against
   the digest stored with its answer, so a changed generator fails the
   run instead of comparing against answers for other programs. *)

open Tmx_core
open Tmx_exec
open Tmx_litmus

let frontier =
  let open Tmx_lang.Ast in
  let x = loc "x" in
  [
    program ~name:"w5r3" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ atomic [ store x (int 3) ] ];
        [ store x (int 4) ];
        [ store x (int 5) ];
        [ load "r1" x; load "r2" x; load "r3" x ];
      ];
    program ~name:"w3o3" ~locs:[ "x" ]
      [
        [ store x (int 1) ];
        [ store x (int 2) ];
        [ atomic [ store x (int 3) ] ];
        [ load "r1" x; load "r2" x ];
        [ load "r1" x; load "r2" x ];
        [ load "r1" x; load "r2" x ];
      ];
  ]

let pool_seed = 20190216
let pool_candidates = 7000

(* Pool programs are capped at this many candidate graphs (about the
   97th percentile of the generator's output): the few programs up to
   200x larger would otherwise decide a run's time by which seed drew
   them, and one such cold request takes about a quarter of a second.
   The frontier programs cover the large-program regime. *)
let max_pool_graphs = 512

let gen_text j =
  Export.program_to_string
    (Tmx_fuzz.Gen.program ~name:(Printf.sprintf "g%04d" j) Tmx_fuzz.Gen.mixed
       (Tmx_fuzz.Gen.state_of_seed ~seed:pool_seed ~index:j))

let md5 s = Digest.to_hex (Digest.string s)

(* The outcome set as the service prints it, one outcome per line. *)
let outcome_strings r = List.map (Fmt.str "%a" Outcome.pp) (Enumerate.outcomes r)
let outcomes_md5 strings = md5 (String.concat "\n" strings)

type answer = {
  kind : string;  (** cat, fr or gen *)
  key : string;  (** catalog or frontier name, or pool index *)
  text_md5 : string;  (** of the litmus text sent ("-" for catalog names) *)
  outcomes : int;
  outcomes_md5 : string;
  graphs : int;
  executions : int;
  truncated : bool;
  capped : bool;
  racy : int;  (** executions with an L-race, model pm *)
  mixed : int;  (** executions with a mixed race, model pm *)
  lint_findings : int;
  lint_mixed : int;
  lint_race_free : bool;
  passed : bool;  (** every check of the program holds (the paper's verdicts) *)
}

(* -- computing answers by the reference paths -------------------------------- *)

let reference_config =
  { Enumerate.default_config with jobs = 1; reduction = Enumerate.No_reduction }

let answer_of ~kind ~key ~text_md5 (l : Litmus.t) =
  let r = Enumerate.run ~config:reference_config Model.programmer l.program in
  let racy, mixed =
    List.fold_left
      (fun (racy, mixed) (e : Enumerate.execution) ->
        let hb = Hb.compute_reference Model.programmer (Lift.make e.trace) in
        ( (if Race.races e.trace hb <> [] then racy + 1 else racy),
          if Race.has_mixed_race e.trace hb then mixed + 1 else mixed ))
      (0, 0) r.executions
  in
  let lint = Tmx_analysis.Lint.lint l.program in
  let report = Litmus.run ~config:reference_config l in
  let strings = outcome_strings r in
  {
    kind;
    key;
    text_md5;
    outcomes = List.length strings;
    outcomes_md5 = outcomes_md5 strings;
    graphs = r.graphs;
    executions = List.length r.executions;
    truncated = r.truncated;
    capped = r.capped;
    racy;
    mixed;
    lint_findings = List.length lint.findings;
    lint_mixed = Tmx_analysis.Lint.mixed_count lint;
    lint_race_free = Tmx_analysis.Lint.race_free lint;
    passed = Litmus.passed report;
  }

let b2i b = if b then 1 else 0

let line_of a =
  Printf.sprintf "%s %s %s %d %s %d %d %d %d %d %d %d %d %d %d" a.kind a.key a.text_md5
    a.outcomes a.outcomes_md5 a.graphs a.executions (b2i a.truncated) (b2i a.capped)
    a.racy a.mixed a.lint_findings a.lint_mixed (b2i a.lint_race_free) (b2i a.passed)

let of_line l =
  Scanf.sscanf l "%s %s %s %d %s %d %d %d %d %d %d %d %d %d %d"
    (fun kind key text_md5 outcomes outcomes_md5 graphs executions tr ca racy mixed lf lm
         lrf passed ->
      {
        kind;
        key;
        text_md5;
        outcomes;
        outcomes_md5;
        graphs;
        executions;
        truncated = tr = 1;
        capped = ca = 1;
        racy;
        mixed;
        lint_findings = lf;
        lint_mixed = lm;
        lint_race_free = lrf = 1;
        passed = passed = 1;
      })

(* Regenerates reference.txt on stdout: catalog, frontier, then every
   pool candidate that is distinct (up to the cache's canonical form)
   from all earlier programs, enumerates untruncated and uncapped, and
   has at most [max_pool_graphs] candidate graphs. *)
let refgen ~jobs =
  let header =
    [
      "# Reference answers for the tmx benchmark (perfbench/README.md).";
      "# Regenerate: dune exec perfbench/main.exe -- refgen > perfbench/reference.txt";
      "# Computed with Enumerate.No_reduction at jobs 1, Hb.compute_reference and the";
      "# catalog's own checks (the paper's verdicts); all under model pm.";
      "# fields: kind key text_md5 outcomes outcomes_md5 graphs executions truncated \
       capped racy mixed lint_findings lint_mixed lint_race_free passed";
    ]
  in
  List.iter print_endline header;
  let seen = Hashtbl.create 4096 in
  let fresh (p : Tmx_lang.Ast.program) =
    let c = Tmx_lang.Canon.structural p in
    if Hashtbl.mem seen c then false
    else (
      Hashtbl.add seen c ();
      true)
  in
  List.iter
    (fun (l : Litmus.t) ->
      ignore (fresh l.program);
      print_endline (line_of (answer_of ~kind:"cat" ~key:l.name ~text_md5:"-" l)))
    Catalog.all;
  List.iter
    (fun (p : Tmx_lang.Ast.program) ->
      let text = Export.program_to_string p in
      let l = Parse.parse text in
      ignore (fresh l.program);
      print_endline (line_of (answer_of ~kind:"fr" ~key:l.name ~text_md5:(md5 text) l)))
    frontier;
  let texts = Array.init pool_candidates gen_text in
  let candidates =
    List.filter
      (fun j -> fresh (Parse.parse texts.(j)).program)
      (List.init pool_candidates Fun.id)
    |> Array.of_list
  in
  let answers =
    Pool.run_tasks ~jobs ~tasks:(Array.length candidates) (fun i ->
        let j = candidates.(i) in
        answer_of ~kind:"gen" ~key:(string_of_int j) ~text_md5:(md5 texts.(j))
          (Parse.parse texts.(j)))
  in
  Array.iter
    (fun a ->
      if not (a.truncated || a.capped || a.graphs > max_pool_graphs) then
        print_endline (line_of a))
    answers

(* -- loading ---------------------------------------------------------------- *)

type t = { by_key : (string * string, answer) Hashtbl.t; pool : answer array }

let load path =
  let ic = open_in path in
  let by_key = Hashtbl.create 4096 in
  let pool = ref [] in
  (try
     while true do
       let l = input_line ic in
       if l <> "" && l.[0] <> '#' then (
         let a = of_line l in
         Hashtbl.replace by_key (a.kind, a.key) a;
         if a.kind = "gen" then pool := a :: !pool)
     done
   with End_of_file -> close_in ic);
  { by_key; pool = Array.of_list (List.rev !pool) }

let find t kind key =
  match Hashtbl.find_opt t.by_key (kind, key) with
  | Some a -> a
  | None -> failwith (Printf.sprintf "reference.txt has no answer for %s %s" kind key)

(* The litmus text of a pool program, checked against its answer. *)
let pool_text (a : answer) =
  let text = gen_text (int_of_string a.key) in
  if md5 text <> a.text_md5 then
    failwith
      (Printf.sprintf
         "pool program %s no longer matches reference.txt (regenerate it: see its header)"
         a.key);
  text

let cost (a : answer) = (a.graphs, a.executions, int_of_string a.key)

(* [n] pool programs, one from each of [n] strata of the pool ordered by
   enumeration size: each seed draws a different sample of the same cost
   profile, so runs on different seeds do comparable work. *)
let stratified t ~seed ~stream n =
  let by_cost = Array.copy t.pool in
  Array.sort (fun a b -> compare (cost a) (cost b)) by_cost;
  let m = Array.length by_cost in
  if m < n then failwith "reference.txt holds too few pool programs";
  let st = Common.rng ~seed stream in
  Array.init n (fun k ->
      let lo = k * m / n and hi = (k + 1) * m / n in
      by_cost.(lo + Random.State.int st (hi - lo)))

(* The pool programs not in [excluded], in a seeded order. *)
let rest t ~seed ~stream excluded =
  let skip = Hashtbl.create 256 in
  Array.iter (fun a -> Hashtbl.replace skip a.key ()) excluded;
  let rest =
    Array.of_list (List.filter (fun a -> not (Hashtbl.mem skip a.key)) (Array.to_list t.pool))
  in
  Common.shuffle (Common.rng ~seed stream) rest;
  rest
