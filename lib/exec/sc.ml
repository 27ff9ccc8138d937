(* The sequential reference semantics: exhaustive interleaving with atomic
   blocks executed atomically, reads seeing the newest nonaborted write,
   and writes taking fresh maximal timestamps.

   Every execution this module produces is transactionally Loc-sequential
   in the sense of §4 (checked in the test suite), so its outcome set is
   what the paper calls "reasoning sequentially".  The SC-LTRF theorem
   says the full model adds no outcomes for programs whose sequential
   executions are race-free. *)

open Tmx_core
open Tmx_lang

type config = { fuel : int }

let default_config = { fuel = 6 }

type execution = { trace : Trace.t; outcome : Outcome.t }

type result = { executions : execution list; truncated : bool }

(* Persistent interpreter state, shared across DFS branches. *)
type cell = { value : int; ts : Rat.t }

type state = {
  mem : (string * cell) list; (* newest nonaborted write per location *)
  next : (string * int) list; (* timestamp counters *)
  events : Action.event list; (* reversed *)
}

let read_cell st x =
  Option.value (List.assoc_opt x st.mem) ~default:{ value = 0; ts = Rat.zero }

let alloc_ts st x =
  let k = Option.value (List.assoc_opt x st.next) ~default:0 in
  (Rat.of_int (k + 1), { st with next = (x, k + 1) :: List.remove_assoc x st.next })

let emit st thread act = { st with events = { Action.thread; act } :: st.events }

exception Out_of_fuel

(* Run an atomic block to completion: deterministic, buffered writes,
   reads see the buffer first.  Returns the state (with events emitted and
   memory updated only on commit) and the final environment. *)
let run_atomic ~fuel st thread env body =
  let buffer = ref [] in
  let st = ref (emit st thread Action.Begin) in
  let aborted = ref false in
  let read x =
    match List.assoc_opt x !buffer with
    | Some c -> c
    | None -> read_cell !st x
  in
  let rec go fuel env = function
    | [] -> env
    | s :: rest -> (
        match (s : Ast.stmt) with
        | Skip -> go fuel env rest
        | Assign (r, e) -> go fuel (Proto.env_set env r (Proto.eval env e)) rest
        | Load (r, lv) ->
            let x = Proto.resolve env lv in
            let c = read x in
            st := emit !st thread (Action.Read { loc = x; value = c.value; ts = c.ts });
            go fuel (Proto.env_set env r c.value) rest
        | Store (lv, e) ->
            let x = Proto.resolve env lv in
            let v = Proto.eval env e in
            let ts, st' = alloc_ts !st x in
            st := emit st' thread (Action.Write { loc = x; value = v; ts });
            buffer := (x, { value = v; ts }) :: List.remove_assoc x !buffer;
            go fuel env rest
        | If (c, t, e) -> go fuel env ((if Proto.eval env c <> 0 then t else e) @ rest)
        | While (c, b) ->
            if Proto.eval env c = 0 then go fuel env rest
            else if fuel <= 0 then raise Out_of_fuel
            else go (fuel - 1) env (b @ (Ast.While (c, b) :: rest))
        | Abort ->
            aborted := true;
            env
        | Atomic _ | Fence _ -> invalid_arg "Sc: nested atomic or fence in atomic")
  in
  let entry_env = env in
  let env = go fuel env body in
  (* an aborted block also rolls its register effects back *)
  if !aborted then (emit !st thread Action.Abort, entry_env, `Aborted)
  else begin
    (* publish the buffer *)
    let st' =
      {
        !st with
        mem =
          List.fold_left
            (fun mem (x, c) -> (x, c) :: List.remove_assoc x mem)
            !st.mem !buffer;
      }
    in
    (emit st' thread Action.Commit, env, `Committed)
  end

type tstate = { stmts : Ast.stmt list; env : Proto.env; fuel : int }

let run ?(config = default_config) (program : Ast.program) =
  (match Ast.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sc.run: " ^ msg));
  let executions = ref [] in
  let truncated = ref false in
  let locs = ref program.locs in
  let note_loc x = if not (List.mem x !locs) then locs := !locs @ [ x ] in
  let rec explore st (threads : tstate list) =
    let runnable = List.exists (fun t -> t.stmts <> []) threads in
    if not runnable then begin
      let envs = List.map (fun t -> t.env) threads in
      executions := (st, envs) :: !executions
    end
    else
      List.iteri
        (fun i t ->
          match t.stmts with
          | [] -> ()
          | s :: rest -> (
              let continue st' t' =
                explore st'
                  (List.mapi (fun j u -> if j = i then t' else u) threads)
              in
              match (s : Ast.stmt) with
              | Skip -> continue st { t with stmts = rest }
              | Assign (r, e) ->
                  continue st
                    { t with stmts = rest; env = Proto.env_set t.env r (Proto.eval t.env e) }
              | Load (r, lv) ->
                  let x = Proto.resolve t.env lv in
                  note_loc x;
                  let c = read_cell st x in
                  let st = emit st i (Action.Read { loc = x; value = c.value; ts = c.ts }) in
                  continue st { t with stmts = rest; env = Proto.env_set t.env r c.value }
              | Store (lv, e) ->
                  let x = Proto.resolve t.env lv in
                  note_loc x;
                  let v = Proto.eval t.env e in
                  let ts, st = alloc_ts st x in
                  let st = emit st i (Action.Write { loc = x; value = v; ts }) in
                  let st = { st with mem = (x, { value = v; ts }) :: List.remove_assoc x st.mem } in
                  continue st { t with stmts = rest }
              | If (c, tb, eb) ->
                  continue st
                    { t with stmts = (if Proto.eval t.env c <> 0 then tb else eb) @ rest }
              | While (c, b) ->
                  if Proto.eval t.env c = 0 then continue st { t with stmts = rest }
                  else if t.fuel <= 0 then truncated := true
                  else
                    continue st
                      { t with stmts = b @ (Ast.While (c, b) :: rest); fuel = t.fuel - 1 }
              | Fence x ->
                  note_loc x;
                  let st = emit st i (Action.Qfence x) in
                  continue st { t with stmts = rest }
              | Abort -> invalid_arg "Sc: abort outside atomic"
              | Atomic body -> (
                  match run_atomic ~fuel:t.fuel st i t.env body with
                  | st, env, (`Committed | `Aborted) ->
                      continue st { t with stmts = rest; env }
                  | exception Out_of_fuel -> truncated := true)))
        threads
  in
  let initial =
    List.map (fun stmts -> { stmts; env = []; fuel = config.fuel }) program.threads
  in
  explore { mem = []; next = []; events = [] } initial;
  let executions =
    List.rev_map
      (fun ((st : state), envs) ->
        let trace = Trace.make ~locs:!locs (List.rev st.events) in
        let outcome = Outcome.make ~envs ~mem:(Trace.final_memory trace !locs) in
        { trace; outcome })
      !executions
  in
  { executions; truncated = !truncated }

let outcomes result = Outcome.dedup (List.map (fun e -> e.outcome) result.executions)
