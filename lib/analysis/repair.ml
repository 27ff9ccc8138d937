(* Counterexample-guided minimal race repair.

   Given a program the enumerator finds racy, search the space of edit
   subsets — per-site fence insertions, promotions of plain accesses
   into fresh atomic blocks, absorptions into adjacent ones
   ([Tmx_opt.Patch]) — for a *minimal* repair: fewest edits first, then
   fewest fences, that the reduced enumerator certifies race-free under
   the requested model and goal.

   The division of labour:

   - [Lint] findings seed the candidate pool.  Lint is sound (every
     dynamic race is covered by a finding), so the pool always contains
     a sufficient repair: promoting every plain access that appears in a
     finding removes every plain side of every potential race.
   - [Order]'s exclusion rules prune inside lint itself: accesses whose
     pairs are statically ordered (guard dominance included) generate no
     findings and hence no candidate edits.
   - The enumerator is consulted only on the frontier: each candidate
     subset that survives the counterexample filter is applied and
     model-checked ([Verdict.race_witness] under the configured
     reduction), memoized by the structural digest of the edited
     program.  Each discarded candidate is justified by the concrete
     racy execution the enumerator returned for it.

   Counterexample filter: a recorded witness names the two racing
   threads and the raced location; a candidate subset is only worth
   enumerating if, for every recorded witness, some edit in the subset
   touches a racing thread on a clashing location.  The filter is a
   heuristic (witnesses from one candidate need not transfer to
   another), so two guards keep it honest: if the filtered search
   exhausts every subset, the full candidate set is tried unfiltered;
   and the final minimization loop — greedily re-verifying each
   single-edit removal until none can be dropped — establishes
   1-minimality with the oracle alone, independent of anything the
   filter skipped.  The [repair-sound] fuzz oracle re-checks exactly
   this contract: the repair verifies race-free, and removing any single
   edit reintroduces a race. *)

open Tmx_lang
open Tmx_opt

type goal = Mixed | All

let goal_name = function Mixed -> "mixed" | All -> "all"
let goal_of_string = function
  | "mixed" -> Some Mixed
  | "all" -> Some All
  | _ -> None

type discard = { subset : Patch.edit list; witness : Tmx_exec.Verdict.race_witness }

type t = {
  original : Ast.program;
  repaired : Ast.program;
  edits : Patch.edit list;  (* [] iff the program was already clean *)
  certificate : string;
  candidates : int;  (* candidate subsets examined (incl. filtered) *)
  oracle_calls : int;  (* enumerator invocations (memoized by digest) *)
  discards : discard list;  (* most recent first *)
}

type cost = { n_edits : int; n_fences : int; n_promotes : int; n_absorbs : int }

let cost r =
  let count p = List.length (List.filter p r.edits) in
  {
    n_edits = List.length r.edits;
    n_fences = Patch.fence_count r.edits;
    n_promotes = count (function Patch.Promote _ -> true | _ -> false);
    n_absorbs = count (function Patch.Absorb _ -> true | _ -> false);
  }

(* The certificate binds what was verified: the repaired program's
   structural form (name-independent), the model, the enumeration
   configuration that served as oracle, and the goal.  Re-running
   [tmx repair --check] recomputes it; a mismatch means the program,
   model or oracle changed since the repair was minted. *)
let certificate_of ~config ~model ~goal program =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            "tmx-repair-certificate-v1";
            Canon.structural program;
            model.Tmx_core.Model.name;
            Tmx_exec.Enumerate.config_key config;
            goal_name goal;
          ]))

(* -- candidate pool ----------------------------------------------------------- *)

type candidate = { edit : Patch.edit; cthread : int; cloc : string }

let candidates_of_report ~promote (r : Lint.report) =
  let pool = ref [] in
  let add c =
    if not (List.exists (fun c' -> c'.edit = c.edit) !pool) then
      pool := c :: !pool
  in
  List.iter
    (fun (f : Lint.finding) ->
      let each (acc : Access.t) =
        if acc.mode = Access.Plain then begin
          if acc.after_atomic then
            add
              {
                edit =
                  Patch.Insert_fence { before = acc.path; fence_loc = f.loc };
                cthread = acc.thread;
                cloc = acc.loc;
              };
          if promote then begin
            add
              {
                edit = Patch.Promote { path = acc.path };
                cthread = acc.thread;
                cloc = acc.loc;
              };
            add
              {
                edit = Patch.Absorb { path = acc.path };
                cthread = acc.thread;
                cloc = acc.loc;
              }
          end
        end
      in
      each f.a;
      each f.b)
    r.Lint.findings;
  List.rev !pool

(* -- subset enumeration ------------------------------------------------------- *)

let rec k_subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (k_subsets (k - 1) rest) @ k_subsets k rest

let by_fence_count subsets =
  List.stable_sort
    (fun a b ->
      compare
        (Patch.fence_count (List.map (fun c -> c.edit) a))
        (Patch.fence_count (List.map (fun c -> c.edit) b)))
    subsets

(* -- the search --------------------------------------------------------------- *)

let run ?config ?(goal = Mixed) ?max_edits ?(promote = true) model program =
  let config =
    Option.value config ~default:Tmx_exec.Enumerate.default_config
  in
  let memo = Hashtbl.create 64 in
  let oracle_calls = ref 0 in
  let oracle p =
    let key = Canon.digest p in
    match Hashtbl.find_opt memo key with
    | Some w -> w
    | None ->
        incr oracle_calls;
        let w =
          match goal with
          | Mixed ->
              Tmx_exec.Verdict.race_witness ~config ~mixed_only:true model p
          | All -> Tmx_exec.Verdict.race_witness ~config model p
        in
        Hashtbl.replace memo key w;
        w
  in
  let finish ~candidates ~discards edits repaired =
    Ok
      {
        original = program;
        repaired;
        edits;
        certificate = certificate_of ~config ~model ~goal repaired;
        candidates;
        oracle_calls = !oracle_calls;
        discards;
      }
  in
  match oracle program with
  | None -> finish ~candidates:0 ~discards:[] [] program
  | Some w0 ->
      let report = Lint.lint program in
      let pool =
        (* pre-filter: an edit that cannot even apply alone (absorb with
           no atomic neighbour, fence on an undeclared base) never helps *)
        List.filter
          (fun c -> Result.is_ok (Patch.apply [ c.edit ] program))
          (candidates_of_report ~promote report)
      in
      if pool = [] then
        Error
          (Fmt.str
             "%s: racy (%a) but no candidate edits%s — lint found %d findings"
             program.Ast.name Tmx_exec.Verdict.pp_race_witness w0
             (if promote then "" else " (promotion disabled)")
             (List.length report.Lint.findings))
      else
        let max_edits = Option.value max_edits ~default:(List.length pool) in
        let cexs = ref [ w0 ] in
        let discards = ref [] in
        let candidates = ref 0 in
        let addresses c (w : Tmx_exec.Verdict.race_witness) =
          let t1, t2 = w.threads in
          (c.cthread = t1 || c.cthread = t2)
          && match w.loc with
             | None -> true
             | Some l -> Footprint.name_clash c.cloc l
        in
        let viable subset =
          List.for_all (fun w -> List.exists (fun c -> addresses c w) subset)
            !cexs
        in
        (* try one candidate subset; [Some repaired] on success *)
        let try_subset subset =
          incr candidates;
          let edits = List.map (fun c -> c.edit) subset in
          match Patch.apply edits program with
          | Error _ -> None
          | Ok p' -> (
              match oracle p' with
              | None -> Some (edits, p')
              | Some w ->
                  cexs := w :: !cexs;
                  discards := { subset = edits; witness = w } :: !discards;
                  None)
        in
        (* greedy 1-minimization against the oracle: drop any edit whose
           removal keeps the program clean, to fixpoint *)
        let rec minimize edits =
          let n = List.length edits in
          let rec try_drop i =
            if i >= n then edits
            else
              let edits' = List.filteri (fun j _ -> j <> i) edits in
              match Patch.apply edits' program with
              | Error _ -> try_drop (i + 1)
              | Ok p' ->
                  if oracle p' = None then minimize edits' else try_drop (i + 1)
          in
          try_drop 0
        in
        let found =
          let rec sizes k =
            if k > max_edits then None
            else
              let subsets = by_fence_count (k_subsets k pool) in
              let rec scan = function
                | [] -> sizes (k + 1)
                | s :: rest -> (
                    if not (viable s) then scan rest
                    else match try_subset s with
                      | Some r -> Some r
                      | None -> scan rest)
              in
              scan subsets
          in
          match sizes 1 with
          | Some r -> Some r
          | None ->
              (* safety net: the counterexample filter is heuristic —
                 witnesses from one candidate program need not transfer
                 to another — so before giving up, try the whole pool
                 unfiltered *)
              try_subset pool
        in
        (match found with
        | None ->
            Error
              (Fmt.str
                 "%s: no race-free repair within %d edits (%d candidates, %d \
                  subsets tried, %d enumerator calls)"
                 program.Ast.name max_edits (List.length pool) !candidates
                 !oracle_calls)
        | Some (edits, _) ->
            let edits = minimize edits in
            (match Patch.apply edits program with
            | Error e -> Error ("internal: minimized repair fails to apply: " ^ e)
            | Ok repaired ->
                finish ~candidates:!candidates ~discards:!discards edits
                  repaired))

(* -- independent re-verification ---------------------------------------------- *)

(* The [repair-sound] contract, checked from scratch (no memo sharing
   with the search): the repaired program is race-free under the goal,
   and removing any single edit reintroduces a race.  Returns [Error]
   with the violated clause. *)
let check ?config ?(goal = Mixed) model (r : t) =
  let config =
    Option.value config ~default:Tmx_exec.Enumerate.default_config
  in
  let witness p =
    match goal with
    | Mixed -> Tmx_exec.Verdict.race_witness ~config ~mixed_only:true model p
    | All -> Tmx_exec.Verdict.race_witness ~config model p
  in
  let cert = certificate_of ~config ~model ~goal r.repaired in
  if cert <> r.certificate then
    Error
      (Fmt.str "certificate mismatch: recorded %s, recomputed %s" r.certificate
         cert)
  else
    match witness r.repaired with
    | Some w ->
        Error
          (Fmt.str "repaired program still races: %a"
             Tmx_exec.Verdict.pp_race_witness w)
    | None ->
        let rec drop_each i =
          if i >= List.length r.edits then Ok ()
          else
            let edits' = List.filteri (fun j _ -> j <> i) r.edits in
            match Patch.apply edits' r.original with
            | Error _ -> drop_each (i + 1) (* the edit is load-bearing *)
            | Ok p' -> (
                match witness p' with
                | Some _ -> drop_each (i + 1)
                | None ->
                    Error
                      (Fmt.str
                         "not minimal: dropping edit %d (%a) leaves the \
                          program race-free"
                         i Patch.pp_edit (List.nth r.edits i)))
        in
        drop_each 0

(* -- reporting ---------------------------------------------------------------- *)

let pp ppf r =
  let c = cost r in
  if r.edits = [] then
    Fmt.pf ppf "%s: already %s-race-free, no repair needed (certificate %s)"
      r.original.Ast.name "mixed" (String.sub r.certificate 0 12)
  else
    Fmt.pf ppf
      "%s: repaired with %d edit%s (%d fence%s, %d promote%s, %d absorb%s)@,%a@,certificate %s (%d subsets, %d enumerator calls)"
      r.original.Ast.name c.n_edits
      (if c.n_edits = 1 then "" else "s")
      c.n_fences
      (if c.n_fences = 1 then "" else "s")
      c.n_promotes
      (if c.n_promotes = 1 then "" else "s")
      c.n_absorbs
      (if c.n_absorbs = 1 then "" else "s")
      (Fmt.list ~sep:Fmt.cut (fun ppf e -> Fmt.pf ppf "  - %a" Patch.pp_edit e))
      r.edits (String.sub r.certificate 0 12) r.candidates r.oracle_calls

let error_to_json ~(program : Ast.program) msg =
  Tmx_json.(to_string (Obj [ ("program", Str program.Ast.name); ("error", Str msg) ]))

let to_json ~model ~goal r =
  let c = cost r in
  let edits es =
    Tmx_json.Arr (List.map (fun e -> Tmx_json.Str (Fmt.str "%a" Patch.pp_edit e)) es)
  in
  let discard d =
    Tmx_json.(
      Obj
        [
          ("subset", edits d.subset);
          ("witness", Str (Fmt.str "%a" Tmx_exec.Verdict.pp_race_witness d.witness));
        ])
  in
  Tmx_json.(
    to_string
      (Obj
         [
           ("program", Str r.original.Ast.name);
           ("model", Str model.Tmx_core.Model.name);
           ("goal", Str (goal_name goal));
           ("edits", int c.n_edits);
           ("fences", int c.n_fences);
           ("promotes", int c.n_promotes);
           ("absorbs", int c.n_absorbs);
           ("edit_list", edits r.edits);
           ("certificate", Str r.certificate);
           ("candidates", int r.candidates);
           ("oracle_calls", int r.oracle_calls);
           ("discards", Arr (List.map discard (List.rev r.discards)));
         ]))
