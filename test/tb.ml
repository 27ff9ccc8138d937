(* Shared builders for hand-written traces in the test suite. *)

open Tmx_core

let ev t act = { Action.thread = t; act }
let w t loc value ts = ev t (Action.Write { loc; value; ts = Rat.of_int ts })

let wq t loc value (num, den) =
  ev t (Action.Write { loc; value; ts = Rat.make num den })

let r t loc value ts = ev t (Action.Read { loc; value; ts = Rat.of_int ts })

let rq t loc value (num, den) =
  ev t (Action.Read { loc; value; ts = Rat.make num den })

let b t = ev t Action.Begin
let c t = ev t Action.Commit
let a t = ev t Action.Abort
let q t loc = ev t (Action.Qfence loc)
let mk ~locs events = Trace.make ~locs events

(* Seed plumbing for the QCheck properties: TMX_SEED=N reruns every
   property from that generator seed (the fuzzer's CI jobs thread their
   campaign seed through it), and the seed is printed on failure so a
   red run reproduces with `TMX_SEED=N dune runtest`. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "TMX_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0

let qcheck test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Fmt.epr "property failed; reproduce with TMX_SEED=%d@." qcheck_seed;
        raise e )

(* A writer's output parsed back with the project codec; [field k j] is
   member [k] of object [j], [items j] the elements of array [j].  They
   fail the test instead of returning an option. *)
let json = Alcotest.testable (Fmt.of_to_string Tmx_json.to_string) ( = )

let parse_json what s =
  match Tmx_json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s@.%s" what e s

let field k j =
  match Tmx_json.mem k j with
  | Some v -> v
  | None -> Alcotest.failf "no field %S in %s" k (Tmx_json.to_string j)

let items j =
  match Tmx_json.to_list j with
  | Some vs -> vs
  | None -> Alcotest.failf "not an array: %s" (Tmx_json.to_string j)

let check_consistent model trace expected =
  let report = Consistency.check model trace in
  Alcotest.(check bool)
    (Fmt.str "consistent under %a (%a)" Model.pp model Consistency.pp_report
       report)
    expected (Consistency.ok report)
