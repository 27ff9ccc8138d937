(* The architecture backends (lib/arch): per-arch axioms on the key
   catalog shapes, the lattice containments, and the machine-checked §6
   sweep — every catalog program has x86-TSO validating the strongest
   variant with zero fences and every ARMv8 escape closed by the
   reported anti-load-buffering fence set. *)

open Tmx_exec
open Tmx_arch

let prog name =
  match Tmx_litmus.Catalog.find name with
  | Some l -> l.Tmx_litmus.Litmus.program
  | None -> Alcotest.failf "no catalog entry %s" name

let outcomes ?fences arch p = (Aexec.run ?fences arch p).Aexec.outcomes

let admits outs pred = List.exists pred outs
let forbids outs pred = not (admits outs pred)

(* -- per-arch verdicts on the canonical shapes ------------------------------- *)

let lb_outcome o = Outcome.reg o 0 "r" = 1 && Outcome.reg o 1 "q" = 1
let sb_outcome o = Outcome.reg o 0 "r" = 0 && Outcome.reg o 1 "q" = 0

let test_lb_armv8_allows () =
  (* no dependency ordering: both loads may be satisfied late *)
  Alcotest.(check bool)
    "armv8 admits r=1,q=1" true
    (admits (outcomes Arch.Armv8 (prog "lb")) lb_outcome)

let test_lb_tso_rc11_forbid () =
  Alcotest.(check bool)
    "x86tso forbids r=1,q=1" true
    (forbids (outcomes Arch.X86tso (prog "lb")) lb_outcome);
  Alcotest.(check bool)
    "rc11 forbids r=1,q=1 (no-thin-air)" true
    (forbids (outcomes Arch.Rc11 (prog "lb")) lb_outcome)

let test_lb_fence_closure () =
  (* one DMB LD leaves the cycle open; the pair closes it *)
  let p = prog "lb" in
  let one = [ { Aexec.thread = 0; loc = "x" } ] in
  let both = [ { Aexec.thread = 0; loc = "x" }; { Aexec.thread = 1; loc = "y" } ] in
  Alcotest.(check bool)
    "one fence does not close LB" true
    (admits (outcomes ~fences:one Arch.Armv8 p) lb_outcome);
  Alcotest.(check bool)
    "both fences close LB" true
    (forbids (outcomes ~fences:both Arch.Armv8 p) lb_outcome)

let test_lb_minimal_fences () =
  let v = Diff.check Arch.Armv8 Tmx_core.Model.strongest (prog "lb") in
  Alcotest.(check bool) "armv8 escapes strongest on lb" false v.Diff.validated;
  match v.Diff.fences with
  | Some s ->
      Alcotest.(check int) "both sites needed" 2 (List.length s)
  | None -> Alcotest.fail "expected a closing fence set"

let test_sb_tso_allows () =
  (* store buffering: W->R reorders on TSO, and the strongest variant
     also allows it — the canonical both-sides-agree weak outcome *)
  Alcotest.(check bool)
    "x86tso admits r=0,q=0" true
    (admits (outcomes Arch.X86tso (prog "sb")) sb_outcome)

let test_privatization_forbidden_everywhere () =
  let p = prog "privatization" in
  List.iter
    (fun arch ->
      Alcotest.(check bool)
        (Arch.name arch ^ " forbids final x=1")
        true
        (forbids (outcomes arch p) (fun o -> Outcome.mem o "x" = 1)))
    Arch.all

let test_aborted_writes_invisible () =
  let p =
    Tmx_lang.Ast.(
      program ~locs:[ "x" ]
        [ [ atomic [ store (loc "x") (int 1); abort ] ]; [ load "r" (loc "x") ] ])
  in
  List.iter
    (fun arch ->
      List.iter
        (fun o ->
          Alcotest.(check int)
            (Arch.name arch ^ " aborted store never read")
            0
            (Outcome.reg o 1 "r");
          Alcotest.(check int)
            (Arch.name arch ^ " aborted store never in memory")
            0 (Outcome.mem o "x"))
        (outcomes arch p))
    Arch.all

let test_containments_lb_iriw () =
  List.iter
    (fun name ->
      List.iter
        (fun (c : Diff.containment) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s within %s" name (Arch.name c.Diff.sub)
               (Arch.name c.Diff.sup))
            true c.Diff.ok)
        (Diff.containments (prog name)))
    [ "lb"; "sb"; "iriw_z"; "privatization" ]

let test_plain_load_sites () =
  let sites = Aexec.plain_load_sites (prog "lb") in
  Alcotest.(check (list (pair int string)))
    "lb sites"
    [ (0, "x"); (1, "y") ]
    (List.map (fun s -> (s.Aexec.thread, s.Aexec.loc)) sites)

(* -- the §6 sweep: catalog × {variant} × {arch} ------------------------------ *)

let check_section6 name program =
  let rows = Diff.rows program in
  List.iter
    (fun (r : Diff.row) ->
      Alcotest.(check bool) (name ^ ": precise") false r.Diff.imprecise;
      match r.Diff.arch with
      | Arch.X86tso | Arch.Rc11 ->
          (* §6: TSO (and the C++-TM mapping) validate even the
             strongest variant with no extra fences *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s validates strongest with zero fences" name
               (Arch.name r.Diff.arch))
            true (r.Diff.gap_fences = None)
      | Arch.Armv8 -> (
          match r.Diff.gap_fences with
          | None | Some (Some _) -> ()
          | Some None ->
              Alcotest.failf "%s: armv8 gap not closable by DMB LD" name))
    rows;
  List.iter
    (fun (c : Diff.containment) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: outcomes(%s) within outcomes(%s)" name
           (Arch.name c.Diff.sub) (Arch.name c.Diff.sup))
        true c.Diff.ok)
    (Diff.containments program);
  rows

(* §6: load buffering is the one catalog shape that ARMv8 shows beyond
   the strongest variant *)
let test_catalog_section6 () =
  let armv8_gaps =
    List.filter_map
      (fun (l : Tmx_litmus.Litmus.t) ->
        let rows = check_section6 l.name l.program in
        if
          List.exists
            (fun (r : Diff.row) -> r.arch = Arch.Armv8 && r.gap_fences <> None)
            rows
        then Some l.name
        else None)
      Tmx_litmus.Catalog.all
  in
  Alcotest.(check (list string)) "programs with an armv8 gap" [ "lb" ] armv8_gaps

let test_random_section6 () =
  (* a small in-tree slice of the arch-diff fuzz oracle's claim; the
     nightly oracle runs the full 500-program sweep *)
  for i = 0 to 19 do
    let st = Tmx_fuzz.Gen.state_of_seed ~seed:7 ~index:i in
    let p = Tmx_fuzz.Gen.program Tmx_fuzz.Gen.mixed st in
    ignore (check_section6 (Printf.sprintf "random-%d" i) p)
  done

(* -- golden digests ------------------------------------------------------------ *)

(* MD5s of [Aexec.run] — outcomes, graphs, truncated, capped — over the
   catalog under each architecture, under armv8 with every plain load
   site fenced, and under armv8 capped at 8 graphs.  They pin the
   candidate loop the backends share with the unreduced reference. *)
let arch_digest ?config ?(fences = fun _ -> []) arch =
  let b = Buffer.create 4096 in
  List.iter
    (fun (l : Tmx_litmus.Litmus.t) ->
      let r = Aexec.run ?config ~fences:(fences l.program) arch l.program in
      Buffer.add_string b
        (Fmt.str "%s %a|%d|%b|%b\n" l.name
           Fmt.(list ~sep:semi Outcome.pp)
           r.outcomes r.graphs r.truncated r.capped))
    Tmx_litmus.Catalog.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden () =
  let capped = { Enumerate.default_config with max_graphs = 8 } in
  List.iter
    (fun (name, expected, digest) -> Alcotest.(check string) name expected (digest ()))
    [
      ("x86tso", "8d169fd15a25424890287e9db01d6d75", fun () -> arch_digest Arch.X86tso);
      ("armv8", "c0dc9ff64bdd30fb1a3dff906f1bad67", fun () -> arch_digest Arch.Armv8);
      ("rc11", "a7bec97a49df12e2f64c00d2040812dc", fun () -> arch_digest Arch.Rc11);
      ( "armv8, every plain load fenced",
        "256ad9989fce302718d22dc7a3914d5d",
        fun () -> arch_digest ~fences:(fun p -> Aexec.plain_load_sites p) Arch.Armv8 );
      ("armv8 capped at 8", "109b54d7abc47658c6114bb16d7b6f9a", fun () -> arch_digest ~config:capped Arch.Armv8);
    ]

let suite =
  [
    Alcotest.test_case "lb: armv8 allows" `Quick test_lb_armv8_allows;
    Alcotest.test_case "lb: tso and rc11 forbid" `Quick test_lb_tso_rc11_forbid;
    Alcotest.test_case "lb: fence closure" `Quick test_lb_fence_closure;
    Alcotest.test_case "lb: minimal fence set" `Quick test_lb_minimal_fences;
    Alcotest.test_case "sb: tso allows" `Quick test_sb_tso_allows;
    Alcotest.test_case "privatization forbidden everywhere" `Quick
      test_privatization_forbidden_everywhere;
    Alcotest.test_case "aborted writes invisible" `Quick
      test_aborted_writes_invisible;
    Alcotest.test_case "containments on key shapes" `Quick
      test_containments_lb_iriw;
    Alcotest.test_case "plain load sites" `Quick test_plain_load_sites;
    Alcotest.test_case "golden digests: catalog x every architecture" `Quick test_golden;
  ]

let catalog_suite =
  [
    Alcotest.test_case "catalog section-6 sweep" `Slow test_catalog_section6;
    Alcotest.test_case "random section-6 sweep" `Slow test_random_section6;
  ]
