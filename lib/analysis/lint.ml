(* The static mixed-race analyzer behind `tmx lint`.

   The analysis is a conservative over-approximation of the paper's race
   definitions: every pair of static accesses that clashes on a location,
   involves a write and a plain access, and is not ordered by the static
   happens-before abstraction ([Order.pair]) becomes a finding.  The
   soundness direction is the valuable one — if [race_free] holds, no
   consistent execution of the program has an L-race or a mixed race,
   under any model (pinned by the enumeration-backed property suite in
   test/test_analysis.ml).  The converse direction is measured, not
   promised: the precision report counts findings the exhaustive
   enumerator does not confirm.

   Each finding carries the paper-shaped fix: wrap the plain access in
   an atomic block (making the pair transactional, hence race-free by
   definition), or — for privatization-shaped accesses that follow an
   atomic block in their thread — insert a quiescence fence, the same
   transformation `tmx fence` ([Tmx_opt.Fenceify]) applies wholesale. *)

open Tmx_lang

type severity = High | Medium | Low | Info

let pp_severity ppf = function
  | High -> Fmt.string ppf "high"
  | Medium -> Fmt.string ppf "medium"
  | Low -> Fmt.string ppf "low"
  | Info -> Fmt.string ppf "info"

let severity_rank = function High -> 0 | Medium -> 1 | Low -> 2 | Info -> 3

type kind = Mixed_race | L_race

let pp_kind ppf = function
  | Mixed_race -> Fmt.string ppf "mixed race"
  | L_race -> Fmt.string ppf "L-race"

type fix =
  | Insert_fence of { fence_loc : string; before : string }
  | Wrap_atomic of string list

let pp_fix ppf = function
  | Insert_fence { fence_loc; before } ->
      Fmt.pf ppf "insert fence(%s) before %s (cf. `tmx fence')" fence_loc before
  | Wrap_atomic [ p ] -> Fmt.pf ppf "wrap %s in atomic { }" p
  | Wrap_atomic ps ->
      Fmt.pf ppf "wrap %a in atomic { }" Fmt.(list ~sep:(any " and ") string) ps

type finding = {
  kind : kind;
  loc : string;
  a : Access.t;
  b : Access.t;
  protections : Order.protection list;
  severity : severity;
  fix : fix;
}

type report = {
  program : Ast.program;
  summaries : Access.summary list;
  findings : finding list;
}

let race_free r = r.findings = []

(* the more specific of the two clashing names: prefer a concrete cell
   over its wildcard *)
let specific_loc a b =
  let is_wild n =
    match Tmx_opt.Footprint.base_of n with
    | Some base -> String.equal n (base ^ "[*]")
    | None -> false
  in
  if is_wild a && not (is_wild b) then b else a

let is_guard_protection = function
  | Order.Guarded_publication _ | Order.Published_flag _
  | Order.Consumed_flag _ ->
      true
  | Order.Fence_commit_side _ | Order.Fence_begin_side _ -> false

let is_fence_protection p = not (is_guard_protection p)

let severity_of protections =
  let guard = List.exists is_guard_protection protections in
  let fence = List.exists is_fence_protection protections in
  match (guard, fence) with
  | false, false -> High
  | false, true -> Medium
  | true, false -> Low
  | true, true -> Info

(* A fence is only suggested when no fence protection exists yet, so a
   mechanically applied [Insert_fence] suggestion always adds a new
   protection class and strictly decreases the finding's severity
   (High → Medium, Low → Info) — the property test/test_repair.ml pins. *)
let fix_of loc protections (a : Access.t) (b : Access.t) =
  match (a.mode, b.mode) with
  | Access.Plain, Access.Plain -> Wrap_atomic [ a.path; b.path ]
  | _ ->
      let plain = if a.mode = Access.Plain then a else b in
      if plain.after_atomic && not (List.exists is_fence_protection protections)
      then Insert_fence { fence_loc = loc; before = plain.path }
      else Wrap_atomic [ plain.path ]

let finding_of_pair (a : Access.t) (b : Access.t) protections =
  let loc = specific_loc a.Access.loc b.Access.loc in
  let kind =
    if
      a.Access.kind = Access.Write
      && b.Access.kind = Access.Write
      && a.Access.mode <> b.Access.mode
    then Mixed_race
    else L_race
  in
  {
    kind;
    loc;
    a;
    b;
    protections;
    severity = severity_of protections;
    fix = fix_of loc protections a b;
  }

let lint (p : Ast.program) =
  let ctx = Access.context p in
  let accesses = Array.of_list ctx.Access.ctx_accesses in
  let findings = ref [] in
  let n = Array.length accesses in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = accesses.(i) and b = accesses.(j) in
      if
        Tmx_opt.Footprint.name_clash a.Access.loc b.Access.loc
        && (a.Access.kind = Access.Write || b.Access.kind = Access.Write)
      then
        match Order.pair ~ctx a b with
        | Order.Ordered _ -> ()
        | Order.Unordered protections ->
            findings := finding_of_pair a b protections :: !findings
    done
  done;
  let findings =
    List.stable_sort
      (fun f g ->
        match compare (severity_rank f.severity) (severity_rank g.severity) with
        | 0 -> compare (f.loc, f.a.Access.path) (g.loc, g.a.Access.path)
        | c -> c)
      (List.rev !findings)
  in
  { program = p; summaries = Access.summaries p; findings }

let mixed_count r =
  List.length (List.filter (fun f -> f.kind = Mixed_race) r.findings)

(* the soundness oracles ask: is this dynamic race location covered by
   some finding?  Wildcard findings ("z[*]") cover every cell. *)
let covers r loc =
  List.exists (fun f -> Tmx_opt.Footprint.name_clash f.loc loc) r.findings

(* -- rendering --------------------------------------------------------------- *)

let pp_verdict ppf r =
  if race_free r then Fmt.string ppf "race-free"
  else
    Fmt.pf ppf "%d candidate race%s (%d mixed)"
      (List.length r.findings)
      (if List.length r.findings = 1 then "" else "s")
      (mixed_count r)

let pp_finding ppf f =
  Fmt.pf ppf "@[<v2>[%a] %a on %s:@,%a@,vs %a%a@,fix: %a@]" pp_severity
    f.severity pp_kind f.kind f.loc Access.pp f.a Access.pp f.b
    (fun ppf -> function
      | [] -> ()
      | ps ->
          Fmt.pf ppf "@,protections: %a"
            Fmt.(list ~sep:(any "; ") Order.pp_protection)
            ps)
    f.protections pp_fix f.fix

let pp_report ppf r =
  Fmt.pf ppf "@[<v>program %s: %a@," r.program.Ast.name
    Fmt.(
      list ~sep:(any ", ") (fun ppf (s : Access.summary) ->
          Fmt.pf ppf "%s %a" s.loc Access.pp_class s.class_))
    r.summaries;
  if race_free r then Fmt.pf ppf "statically race-free@]"
  else
    Fmt.pf ppf "%a@,verdict: %a (conservative; confirm with `tmx races')@]"
      Fmt.(list ~sep:cut pp_finding)
      r.findings pp_verdict r

(* -- JSON -------------------------------------------------------------------- *)

let show pp x = Tmx_json.Str (Fmt.str "%a" pp x)

let json_access (a : Access.t) =
  Tmx_json.(
    Obj
      [
        ("thread", int a.thread);
        ("mode", show Access.pp_mode a.mode);
        ("kind", show Access.pp_kind a.kind);
        ("loc", Str a.loc);
        ("path", Str a.path);
        ("stmt", show Ast.pp_stmt a.stmt);
      ])

let json_summary (s : Access.summary) =
  Tmx_json.(
    Obj
      [
        ("name", Str s.loc);
        ("class", show Access.pp_class s.class_);
        ("plain_reads", int s.counts.plain_reads);
        ("plain_writes", int s.counts.plain_writes);
        ("tx_reads", int s.counts.tx_reads);
        ("tx_writes", int s.counts.tx_writes);
        ("threads", Arr (List.map int s.threads));
      ])

let json_finding f =
  Tmx_json.(
    Obj
      [
        ("kind", Str (match f.kind with Mixed_race -> "mixed" | L_race -> "l-race"));
        ("severity", show pp_severity f.severity);
        ("loc", Str f.loc);
        ("a", json_access f.a);
        ("b", json_access f.b);
        ("protections", Arr (List.map (show Order.pp_protection) f.protections));
        ("fix", show pp_fix f.fix);
      ])

let to_json r =
  Tmx_json.(
    to_string
      (Obj
         [
           ("program", Str r.program.Ast.name);
           ("race_free", Bool (race_free r));
           ("locations", Arr (List.map json_summary r.summaries));
           ("findings", Arr (List.map json_finding r.findings));
         ]))

(* -- SARIF 2.1.0 -------------------------------------------------------------- *)

(* One run, one result per finding across all reports; the program name
   and source path land in a logical location (the litmus language has
   no files/lines for a physical one).  Severities map onto the SARIF
   levels: high → error, medium → warning, low/info → note. *)

let sarif_level = function
  | High -> "error"
  | Medium -> "warning"
  | Low | Info -> "note"

let sarif_rule_id = function Mixed_race -> "mixed-race" | L_race -> "l-race"

let sarif_rule kind text =
  Tmx_json.(
    Obj
      [
        ("id", Str (sarif_rule_id kind));
        ("shortDescription", Obj [ ("text", Str text) ]);
      ])

let sarif_result r f =
  let program = r.program.Ast.name in
  let location (a : Access.t) =
    Tmx_json.(
      Obj
        [
          ( "logicalLocations",
            Arr
              [
                Obj
                  [
                    ("kind", Str "member");
                    ("fullyQualifiedName", Str (program ^ "/" ^ a.path));
                  ];
              ] );
        ])
  in
  Tmx_json.(
    Obj
      [
        ("ruleId", Str (sarif_rule_id f.kind));
        ("level", Str (sarif_level f.severity));
        ( "message",
          Obj
            [
              ( "text",
                Str
                  (Fmt.str "%a on %s: %a vs %a; fix: %a" pp_kind f.kind f.loc
                     Access.pp f.a Access.pp f.b pp_fix f.fix) );
            ] );
        ("locations", Arr [ location f.a; location f.b ]);
        ( "partialFingerprints",
          Obj
            [
              ( "tmxFindingKey/v1",
                Str
                  (Fmt.str "%s:%s:%s:%s" program f.loc f.a.Access.path
                     f.b.Access.path) );
            ] );
        ( "properties",
          Obj [ ("severity", show pp_severity f.severity); ("program", Str program) ]
        );
      ])

let sarif_of_reports reports =
  let driver =
    Tmx_json.(
      Obj
        [
          ("name", Str "tmx-lint");
          ("informationUri", Str "https://example.invalid/tmx");
          ( "rules",
            Arr
              [
                sarif_rule Mixed_race
                  "candidate mixed race: transactional write vs plain write \
                   on a shared location";
                sarif_rule L_race
                  "candidate L-race: unordered conflicting pair with a plain \
                   access";
              ] );
        ])
  in
  let results =
    List.concat_map (fun r -> List.map (sarif_result r) r.findings) reports
  in
  Tmx_json.(
    to_string
      (Obj
         [
           ( "$schema",
             Str
               "https://docs.oasis-open.org/sarif/sarif/v2.1.0/os/schemas/sarif-schema-2.1.0.json"
           );
           ("version", Str "2.1.0");
           ( "runs",
             Arr [ Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr results) ] ]
           );
         ]))
