(* Run every catalog litmus test and assert all its expectations hold.
   This is the machine-checked version of the paper's figures. *)

open Tmx_core
open Tmx_exec

let case (litmus : Tmx_litmus.Litmus.t) =
  Alcotest.test_case
    (Fmt.str "%s (%s)" litmus.name litmus.section)
    `Quick
    (fun () ->
      let report = Tmx_litmus.Litmus.run litmus in
      if not (Tmx_litmus.Litmus.passed report) then
        Alcotest.failf "%a" Tmx_litmus.Litmus.pp_report report;
      Alcotest.(check bool) "no truncation" false report.truncated;
      Alcotest.(check bool) "no capping" false report.capped)

(* The verdict matrix across the model design space (§1–§3, §5, App D):
   for each figure's probe outcome, whether some consistent execution
   shows it under each model of [Model.all], in the column order below
   ('y' allowed, 'n' forbidden).  The figures annotate pm and im; the
   other columns place each probe among the §2 variants, Example 2.3's
   weakenings and the bare model. *)
let matrix_models =
  [ "pm"; "im"; "strong"; "v-ww"; "v-rw"; "v-wr"; "v-ww'"; "v-rw'"; "v-wr'"; "bare" ]

let both_regs r q v o = Outcome.reg o 0 r = v && Outcome.reg o 1 q = v

let matrix =
  [
    ("privatization", "x=1", (fun o -> Outcome.mem o "x" = 1), "nynnyyyyyy");
    ("publication", "z=0", (fun o -> Outcome.mem o "z" = 0), "nnnnnnnnnn");
    ("ex2_2", "x=2", (fun o -> Outcome.mem o "x" = 2), "nynnyyyyyy");
    ("lb", "r=q=1", both_regs "r" "q" 1, "nnnnnnnnnn");
    ("sb", "r=q=0", both_regs "r" "q" 0, "yyyyyyyyyy");
    ("ex3_1", "r=q=0", both_regs "r" "q" 0, "yynyyyynyy");
    ("ex3_2", "r=q=0", both_regs "r" "q" 0, "yyyyyyyyyy");
    ("ex3_3", "q=0", (fun o -> Outcome.mem o "q" = 0), "nnnnnnnnnn");
    ("ex3_4", "q=0", (fun o -> Outcome.reg o 1 "q" = 0), "nnnnnnnnnn");
    ( "ex3_5",
      "r1<>r2",
      (fun o -> Outcome.reg o 0 "r1" <> Outcome.reg o 0 "r2"),
      "yynynyyyyy" );
    ( "impl_reorder",
      "ry=0,r=0",
      (fun o -> Outcome.reg o 0 "ry" = 0 && Outcome.reg o 1 "r" = 0),
      "nynnyyyyyy" );
    ("privatization_fence", "x=1", (fun o -> Outcome.mem o "x" = 1), "nnnnyyyyyy");
    ("d1_opaque_writes", "r=1", (fun o -> Outcome.reg o 1 "r" = 1), "nnnnnnnnnn");
    ( "d2_race_free_speculation",
      "r<>2",
      (fun o -> Outcome.reg o 2 "r" <> 2),
      "nnnnnnnnnn" );
    ( "d3_dirty_reads",
      "x=0,w=1",
      (fun o -> Outcome.mem o "x" = 0 && Outcome.mem o "w" = 1),
      "nnnnnnnnnn" );
    ("d4_no_overlapped_writes", "r=0", (fun o -> Outcome.mem o "r" = 0), "nnnnnnnnnn");
  ]

let test_verdict_matrix () =
  Alcotest.(check (list string))
    "model columns" matrix_models
    (List.map (fun (m : Model.t) -> m.name) Model.all);
  List.iter
    (fun (name, what, probe, want) ->
      let program = (Option.get (Tmx_litmus.Catalog.find name)).program in
      let row =
        String.concat ""
          (List.map
             (fun model ->
               if Enumerate.allowed (Enumerate.run model program) probe then "y"
               else "n")
             Model.all)
      in
      Alcotest.(check string) (Fmt.str "%s %s" name what) want row)
    matrix

let suite =
  Alcotest.test_case "verdict matrix" `Quick test_verdict_matrix
  :: List.map case Tmx_litmus.Catalog.all
