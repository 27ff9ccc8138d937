(* L-races (§4).

   Two actions are in L-conflict if they access the same x ∈ L, at least
   one is plain, at least one is a write, and neither is aborted.
   (b, c) is an L-race if they are in L-conflict, b index c, and not
   b hb c. *)

let in_set l x = match l with None -> true | Some locs -> List.mem x locs

let l_conflict ?l t b c =
  match (Trace.act t b, Trace.act t c) with
  | ( (Action.Write { loc = x; _ } | Action.Read { loc = x; _ }),
      (Action.Write { loc = y; _ } | Action.Read { loc = y; _ }) )
    when String.equal x y && in_set l x ->
      (Trace.is_plain t b || Trace.is_plain t c)
      && (Action.is_write (Trace.act t b) || Action.is_write (Trace.act t c))
      && Trace.is_nonaborted t b
      && Trace.is_nonaborted t c
  | _ -> false

let races ?l t hb =
  let n = Trace.length t in
  let acc = ref [] in
  for b = 0 to n - 1 do
    for c = b + 1 to n - 1 do
      if l_conflict ?l t b c && not (Rel.mem hb b c) then
        acc := (b, c) :: !acc
    done
  done;
  List.rev !acc

(* An L-race is a race on a location in L (both actions access the
   same one), so the L-races are a filter of the races at L = Loc. *)
let restrict ?l t pairs =
  match l with
  | None -> pairs
  | Some locs ->
      List.filter
        (fun (b, _) ->
          match Action.loc_of (Trace.act t b) with
          | Some x -> List.mem x locs
          | None -> false)
        pairs

(* §5: a mixed race is an L-race between a transactional write and a
   plain write, for some L. *)
let is_mixed t (b, c) =
  Action.is_write (Trace.act t b)
  && Action.is_write (Trace.act t c)
  && Trace.is_transactional t b <> Trace.is_transactional t c

let mixed_races t hb = List.filter (is_mixed t) (races t hb)
let has_mixed_race t hb = List.exists (is_mixed t) (races t hb)
