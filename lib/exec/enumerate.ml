(* Exhaustive enumeration of the consistent executions of a litmus
   program, herd-style.

   Rather than enumerating raw interleavings (hopeless beyond a handful of
   events), we enumerate execution graphs — per-thread control paths ×
   reads-from choices × per-location coherence orders × fence/transaction
   orderings — and then build one well-formed linearization per graph.
   This is justified by the paper's observation (§2) that WF8–WF11 are
   redundant with respect to the consistency axioms when traces are viewed
   as execution graphs: a graph is the semantics of some well-formed trace
   iff the WF-derived ordering constraints are acyclic.  The per-combo
   machinery (event lists, choice points, the constraint linearizer)
   lives in [Combo].

   Three strategies cover the same candidate space (docs/ENUMERATION.md
   is the chapter-length account):

   · [No_reduction] — the reference: iterate the full selection product
     and evaluate every candidate by building its trace, lifting the
     relations and checking the axioms.

   · [Dpor] — walk the product as a prefix tree carrying an incremental
     execution-graph state ([Reduce]); prune a subtree the moment its
     shared prefix is doomed (constraint cycle, causality cycle, a
     coherence/observation reversal), bulk-counting the skipped
     candidates so the accounting matches the reference exactly, and
     judge surviving leaves on the accumulated relations with no trace
     or lifting in sight.  Executions, their order, [graphs] and
     [capped] are bit-identical to the reference.

   · [Dpor_sym] — additionally quotient the thread-path combinations by
     program automorphisms ([Symmetry]): only orbit representatives are
     searched, and their consistent selections are transported onto each
     image combo by renaming.  The execution multiset, every verdict and
     the candidate accounting are preserved; within an orbit the
     executions of an image combo appear in the representative's
     enumeration order (a deterministic order that can differ from the
     reference's within-combo order). *)

open Tmx_core

type reduction = No_reduction | Dpor | Dpor_sym

let reduction_name = function
  | No_reduction -> "none"
  | Dpor -> "dpor"
  | Dpor_sym -> "dpor+sym"

let reduction_of_string = function
  | "none" -> Some No_reduction
  | "dpor" -> Some Dpor
  | "dpor+sym" -> Some Dpor_sym
  | _ -> None

type config = {
  fuel : int;
  domain_iters : int;
  max_graphs : int;
  jobs : int;
  reduction : reduction;
}

let default_config =
  {
    fuel = 6;
    domain_iters = 4;
    max_graphs = 500_000;
    jobs = 1;
    reduction = Dpor_sym;
  }

(* jobs excluded: results are bit-identical for every jobs value, so
   runs with different parallelism share a cache entry.  The reduction
   mode is included: [Dpor_sym] may order executions within an orbit
   differently from the reference. *)
let config_key c =
  Printf.sprintf "fuel=%d;domain_iters=%d;max_graphs=%d;reduction=%s" c.fuel
    c.domain_iters c.max_graphs (reduction_name c.reduction)

type execution = { trace : Trace.t; outcome : Outcome.t }

type result = {
  executions : execution list;
  truncated : bool; (* some thread path hit the loop-unrolling bound *)
  capped : bool; (* the graph-count cap was hit *)
  graphs : int; (* candidate graphs accounted for *)
  explored : int; (* candidate graphs whose leaf check actually ran *)
  races : (int * int) list array option;
      (* per execution, its races at L = Loc under the enumerating
         model, when [run ~races:true] or the verdict cache filled it in *)
}

(* Below this many estimated candidates, a parallel run falls back to
   the sequential path: domain spawn and merge cost more than the
   enumeration itself.  Under reduction the estimate is taken over the
   reduced space — live orbit representatives — so a run whose candidate
   space collapses under symmetry never pays for a pool.  Verdicts are
   unaffected either way.  The value is the measured crossover on a
   2-core host: below it every bucket of programs ran slower at jobs 2
   than at jobs 1, from it to twice it the two broke even, and beyond
   that jobs 2 won (docs/ENUMERATION.md §5 has the table). *)
let parallel_threshold = 512

(* -- the unreduced reference ---------------------------------------------- *)

(* Enumerate the candidate graphs of [combo], optionally pinning the
   first read's reads-from choice to candidate index [pin] (the parallel
   task split: pinning choice k and iterating k in order visits the
   candidates in exactly the sequential order).  [claim] is called once
   per candidate graph, in enumeration order, and returns [Some ordinal]
   to process it or [None] to count-and-skip it — graph-cap policy lives
   in the caller; [emit] receives each consistent execution with its
   candidate ordinal and, when [races] is set, its races, read off the
   hb the consistency check just computed. *)
let enumerate_combo ~model ~locs ~races ?pin ~claim ~emit (combo : Combo.t) =
  let read_choices = List.map (Combo.rf_candidates combo) combo.reads in
  let read_choices =
    match (pin, read_choices) with
    | None, cs -> cs
    | Some k, c :: rest -> [ List.nth c k ] :: rest
    | Some _, [] -> assert false
  in
  if List.exists (fun c -> c = []) read_choices then ()
  else begin
    let locs_written = Combo.locs_written combo in
    let ww_choices =
      List.map (fun x -> Combo.permutations (Combo.writes_of combo x)) locs_written
    in
    let fence_pairs = Combo.fence_pairs combo in
    let fence_keys = List.map fst fence_pairs in
    let fence_opts = List.map snd fence_pairs in
    Combo.product read_choices (fun rf_sel ->
        Combo.product ww_choices (fun ww_sel ->
            Combo.product fence_opts (fun fence_sel ->
                match claim () with
                | None -> ()
                | Some ordinal -> (
                    let selection =
                      {
                        Combo.rf_sel = List.combine combo.reads rf_sel;
                        ww_sel = List.combine locs_written ww_sel;
                        fence_sel = List.combine fence_keys fence_sel;
                      }
                    in
                    match Combo.linearize ~locs combo selection with
                    | None -> ()
                    | Some (trace, _) ->
                        let ctx = Lift.make trace in
                        let hb = Hb.compute model ctx in
                        if Consistency.consistent_axioms model ctx hb then
                          emit ordinal
                            { trace; outcome = Combo.outcome ~locs combo trace }
                            (if races then Race.races trace hb else [])))))
  end

let collect_combos thread_paths =
  let acc = ref [] in
  Combo.product thread_paths (fun sel -> acc := sel :: !acc);
  List.rev_map Combo.prepare !acc

(* The result of a run from its kept executions, each with its races
   (in execution order, reversed as the merges collect them). *)
let result_of ~races ~truncated ~capped ~graphs ~explored rev_kept =
  let kept = List.rev rev_kept in
  {
    executions = List.map fst kept;
    truncated;
    capped;
    graphs;
    explored;
    races = (if races then Some (Array.of_list (List.map snd kept)) else None);
  }

(* Sequential reference path: one global candidate counter, cap applied
   as candidates are claimed. *)
let run_sequential ~config ~model ~locs ~races ~truncated combos =
  let kept = ref [] and graphs = ref 0 and capped = ref false in
  let claim () =
    if !graphs >= config.max_graphs then begin
      capped := true;
      None
    end
    else begin
      incr graphs;
      Some (!graphs - 1)
    end
  in
  let emit _ordinal e r = kept := (e, r) :: !kept in
  List.iter (fun combo -> enumerate_combo ~model ~locs ~races ~claim ~emit combo) combos;
  result_of ~races ~truncated ~capped:!capped ~graphs:!graphs ~explored:!graphs !kept

(* Parallel path: fan tasks — (combo, first-read choice) pairs in
   sequential enumeration order — over a domain pool, then merge the
   per-task results in task order.

   Determinism argument.  Each task enumerates its own candidate
   sub-tree in the sequential order and records results against local
   candidate ordinals; pinning the first read's choice to k and ranging
   k over the candidates in order partitions the sequential candidate
   sequence into contiguous runs, so the global ordinal of a task's
   candidate is the task's prefix sum plus its local ordinal.  The merge
   walks tasks in index order, reconstructing exactly the sequential
   execution list, graph count and cap verdict no matter how the
   domains interleaved.  A task processes a candidate only when its
   local ordinal is below the cap (a deterministic over-approximation of
   "global ordinal below the cap": prefix sums are nonnegative); the
   merge then drops the few over-approximated ones. *)
let run_parallel ~config ~model ~locs ~races ~truncated combos =
  let tasks =
    List.concat_map
      (fun (combo : Combo.t) ->
        match Combo.first_read_width combo with
        | None -> [ (combo, None) ]
        | Some w -> List.init w (fun k -> (combo, Some k)))
      combos
    |> Array.of_list
  in
  let results =
    Pool.run_tasks ~jobs:config.jobs ~tasks:(Array.length tasks) (fun ti ->
        (* a prepared combo is never written after [Combo.prepare], so
           the tasks share them *)
        let combo, pin = tasks.(ti) in
        let count = ref 0 and execs = ref [] in
        let claim () =
          let ordinal = !count in
          incr count;
          if ordinal < config.max_graphs then Some ordinal else None
        in
        let emit ordinal e r = execs := (ordinal, (e, r)) :: !execs in
        enumerate_combo ~model ~locs ~races ?pin ~claim ~emit combo;
        (!count, List.rev !execs))
  in
  let total = Array.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let kept = ref [] and prefix = ref 0 in
  Array.iter
    (fun (count, execs) ->
      List.iter
        (fun (ordinal, x) -> if !prefix + ordinal < config.max_graphs then kept := x :: !kept)
        execs;
      prefix := !prefix + count)
    results;
  let graphs = min total config.max_graphs in
  result_of ~races ~truncated ~capped:(total > config.max_graphs) ~graphs ~explored:graphs
    !kept

(* More domains than cores only adds task-split and scheduling overhead
   (the pool won't spawn them anyway); results are jobs-independent, so
   clamping is invisible except in wall-clock. *)
let effective_jobs jobs = min jobs (Pool.available_cores ())

let run_unreduced ~config ~model ~locs ~races ~truncated thread_paths =
  let combos = collect_combos thread_paths in
  let small () =
    (* saturating sum; stop adding once clearly past the threshold *)
    let rec go acc = function
      | [] -> acc < parallel_threshold
      | _ when acc >= parallel_threshold -> false
      | c :: rest -> go (acc + Combo.estimated_graphs c) rest
    in
    go 0 combos
  in
  if effective_jobs config.jobs <= 1 || small () then
    run_sequential ~config ~model ~locs ~races ~truncated combos
  else run_parallel ~config ~model ~locs ~races ~truncated combos

(* -- the reduced driver --------------------------------------------------- *)

(* One driver covers sequential and parallel reduced runs: the candidate
   space is cut to tasks — (live orbit representative, first-read pin)
   in enumeration order — run through the pool (with [jobs = 1] the pool
   spawns nothing and runs them in order in the calling domain).  A task
   enumerates its representative and transports the consistent
   selections it found onto every image combo of the orbit
   ([Symmetry.map_selection], then [Combo.linearize]), tagging each
   execution with its combo-local candidate ordinal, so the images are
   linearized in parallel with the rest of the search.  A single merge
   pass then walks every combo in enumeration order, offsetting the
   ordinals and applying the cap.  Results are therefore identical
   whatever [jobs] was, by construction. *)
let run_reduced ~config ~model ~locs ~races ~truncated reduction thread_paths =
  let tp = Array.of_list (List.map Array.of_list thread_paths) in
  let nthreads = Array.length tp in
  let radices = Array.map Array.length tp in
  let total_combos =
    if Array.exists (fun r -> r = 0) radices then 0
    else Array.fold_left ( * ) 1 radices
  in
  let weights = Array.make (max nthreads 1) 1 in
  for i = nthreads - 2 downto 0 do
    weights.(i) <- weights.(i + 1) * radices.(i + 1)
  done;
  let decode idx =
    Array.init nthreads (fun i -> idx / weights.(i) mod radices.(i))
  in
  let paths_of idx =
    Array.to_list (Array.mapi (fun i s -> tp.(i).(s)) (decode idx))
  in
  let sym =
    match reduction with
    | Dpor_sym -> Symmetry.orbits ~radices (Symmetry.find thread_paths)
    | _ -> None
  in
  let rep_of idx = match sym with None -> idx | Some s -> Symmetry.rep s idx in
  let feas = Reduce.Feasible.make tp in
  let live idx = Reduce.Feasible.check feas (decode idx) in
  let prepared : (int, Combo.t) Hashtbl.t = Hashtbl.create 64 in
  let prepare idx =
    match Hashtbl.find_opt prepared idx with
    | Some c -> c
    | None ->
        let c = Combo.prepare (paths_of idx) in
        Hashtbl.add prepared idx c;
        c
  in
  let live_reps = ref [] in
  for idx = total_combos - 1 downto 0 do
    if rep_of idx = idx && live idx then live_reps := idx :: !live_reps
  done;
  let live_reps = !live_reps in
  (* the parallel fallback decides on the reduced candidate estimate:
     live orbit representatives only *)
  let jobs =
    if effective_jobs config.jobs <= 1 then 1
    else begin
      let rec go acc = function
        | [] -> acc
        | _ when acc >= parallel_threshold -> acc
        | r :: rest -> go (acc + Combo.estimated_graphs (prepare r)) rest
      in
      if go 0 live_reps < parallel_threshold then 1 else config.jobs
    end
  in
  (* each live representative's image combos, in combo order *)
  let images = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace images r []) live_reps;
  if Option.is_some sym then
    for idx = total_combos - 1 downto 0 do
      let r = rep_of idx in
      if r <> idx then
        match Hashtbl.find_opt images r with
        | Some l -> Hashtbl.replace images r (idx :: l)
        | None -> ()
    done;
  let tasks =
    List.concat_map
      (fun r ->
        let ims = Hashtbl.find images r in
        if jobs <= 1 then [ (r, None, ims) ]
        else
          match Combo.first_read_width (prepare r) with
          | None -> [ (r, None, ims) ]
          | Some w -> List.init w (fun k -> (r, Some k, ims)))
      live_reps
    |> Array.of_list
  in
  (* with jobs = 1 no domain is spawned, so prepared combos are safe to
     share; parallel workers prepare theirs domain-locally *)
  let share = jobs <= 1 in
  let base = List.length locs + 2 in
  let results =
    Pool.run_tasks ~jobs ~tasks:(Array.length tasks) (fun ti ->
        let r, pin, ims = tasks.(ti) in
        let prepare idx = if share then prepare idx else Combo.prepare (paths_of idx) in
        let combo = prepare r in
        let plan = Reduce.make_plan ~model ~locs combo in
        let conflicts = if races then Combo.conflicts combo else [||] in
        let count = ref 0 and found = ref [] in
        let claim k =
          let ordinal = !count in
          count := !count + k;
          if ordinal < config.max_graphs then ordinal else -1
        in
        let emit leaf = found := leaf :: !found in
        let explored = Reduce.enumerate ?pin ~conflicts ~claim ~emit plan in
        let found = List.rev !found in
        (* each kept execution with its combo-local ordinal and races *)
        let keep c conflicts (l : Reduce.leaf) (trace, order) =
          ( l.ordinal,
            ( { trace; outcome = Combo.outcome ~locs c trace },
              if races then Reduce.races ~base conflicts l.hb order else [] ) )
        in
        let transport idx =
          if found = [] then []
          else begin
            let to_ = prepare idx in
            let m = Symmetry.event_map ~from:combo ~to_ (Symmetry.perm (Option.get sym) idx) in
            (* the representative's conflicting pairs, renamed: π is an
               isomorphism of the graphs, so hb between the renamed
               events is the representative's *)
            let conflicts' = Array.map (fun (i, j) -> (m.(i), m.(j))) conflicts in
            List.map
              (fun (l : Reduce.leaf) ->
                match Combo.linearize ~locs to_ (Symmetry.map_selection ~to_ m l.sel) with
                | Some lin -> keep to_ conflicts' l lin
                | None ->
                    (* the representative's candidate linearized, and
                       the renaming preserves the constraint graph *)
                    assert false)
              found
          end
        in
        let own = List.map (fun (l : Reduce.leaf) -> keep combo conflicts l (l.trace, l.order)) found in
        (!count, explored, own :: List.map transport ims))
  in
  (* fold each representative's tasks back together: a pinned task's
     ordinals are already the representative's (Reduce.enumerate claims
     the subtrees before its pin first), so its final count is where its
     pin's subtree ends, and a cap stops it where it stops the jobs = 1
     walk.  Every member of the orbit (the representative, then its
     images) gets the orbit's candidate count and its own executions *)
  let per_combo = Hashtbl.create 64 in
  let explored = ref 0 and ti = ref 0 in
  List.iter
    (fun r ->
      let members = r :: Hashtbl.find images r in
      let count = ref 0 and acc = ref (List.map (fun _ -> []) members) in
      while !ti < Array.length tasks && (let r', _, _ = tasks.(!ti) in r' = r) do
        let c, x, lists = results.(!ti) in
        acc := List.map2 (fun a l -> List.rev_append l a) !acc lists;
        count := max !count c;
        explored := !explored + x;
        incr ti
      done;
      List.iter2 (fun idx a -> Hashtbl.add per_combo idx (!count, List.rev a)) members !acc)
    live_reps;
  (* global merge in combo enumeration order *)
  let kept = ref [] and prefix = ref 0 in
  for idx = 0 to total_combos - 1 do
    match Hashtbl.find_opt per_combo idx with
    | None -> () (* infeasible orbit: zero candidates, like the skip above *)
    | Some (count, execs) ->
        List.iter
          (fun (o, x) -> if !prefix + o < config.max_graphs then kept := x :: !kept)
          execs;
        prefix := !prefix + count
  done;
  result_of ~races ~truncated ~capped:(!prefix > config.max_graphs)
    ~graphs:(min !prefix config.max_graphs) ~explored:!explored !kept

(* The shared front half of [run], also the entry point of the
   architecture backends (Tmx_arch), which reuse the candidate space —
   combos × reads-from × coherence × fence sides — but judge the graphs
   under per-architecture axioms instead of linearizing. *)
let unfold_combos config (program : Tmx_lang.Ast.program) =
  (match Tmx_lang.Ast.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Enumerate.unfold_combos: " ^ msg));
  let domain, thread_paths =
    Proto.unfold ~iters:config.domain_iters ~fuel:config.fuel program
  in
  let locs = Proto.Domain.locs domain in
  let truncated =
    List.exists (List.exists (fun (p : Proto.path) -> p.truncated)) thread_paths
  in
  let thread_paths =
    List.map (List.filter (fun (p : Proto.path) -> not p.truncated)) thread_paths
  in
  (locs, thread_paths, truncated)

let run ?(config = default_config) ?(races = false) (model : Model.t)
    (program : Tmx_lang.Ast.program) =
  let locs, thread_paths, truncated = unfold_combos config program in
  match config.reduction with
  | No_reduction -> run_unreduced ~config ~model ~locs ~races ~truncated thread_paths
  | (Dpor | Dpor_sym) as reduction ->
      run_reduced ~config ~model ~locs ~races ~truncated reduction thread_paths

let outcomes result = Outcome.dedup (List.map (fun e -> e.outcome) result.executions)

let allowed result cond = List.exists (fun e -> cond e.outcome) result.executions
let forbidden result cond = not (allowed result cond)
