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
     on one domain and evaluate every candidate by building its trace,
     lifting the relations and checking the axioms.

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

(* The result of a run from its kept executions, each with its races
   (in execution order, reversed as the strategies collect them). *)
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

(* -- the unreduced reference ---------------------------------------------- *)

(* Every candidate graph, in the one candidate loop's order and under
   its global cap ([Combo.iter_candidates]), on the calling domain:
   linearize, lift, compute hb, check the axioms.  With [races], each
   execution's races are read off the hb the check just computed. *)
let run_unreduced ~config ~model ~locs ~races ~truncated thread_paths =
  let kept = ref [] in
  let graphs, capped =
    Combo.iter_candidates ~max_graphs:config.max_graphs thread_paths (fun combo sel ->
        match Combo.linearize ~locs combo sel with
        | None -> ()
        | Some (trace, _) ->
            let ctx = Lift.make trace in
            let hb = Hb.compute model ctx in
            if Consistency.consistent_axioms model ctx hb then
              kept :=
                ( { trace; outcome = Combo.outcome ~locs combo trace },
                  if races then Race.races trace hb else [] )
                :: !kept)
  in
  result_of ~races ~truncated ~capped ~graphs ~explored:graphs !kept

(* -- the reduced strategies ----------------------------------------------- *)

(* Below this many candidates over the live orbit representatives, a
   reduced run stays in the calling domain whatever [jobs] says: domain
   spawn and merge cost more than the enumeration itself, and a run
   whose candidate space collapses under symmetry never pays for a
   pool.  Verdicts are unaffected either way.  The value is the
   measured crossover on a 2-core host: below it every bucket of
   programs ran slower at jobs 2 than at jobs 1, from it to twice it the
   two broke even, and beyond that jobs 2 won (docs/ENUMERATION.md §5
   has the table). *)
let parallel_threshold = 512

(* More domains than cores only adds task-split and scheduling overhead
   (the pool won't spawn them anyway); results are jobs-independent, so
   clamping is invisible except in wall-clock. *)
let effective_jobs jobs = min jobs (Pool.available_cores ())

(* One function covers sequential and parallel reduced runs.  A first
   pass in combo order gives every combo its global offset: it prepares
   and counts each live orbit representative ([Combo.graph_count]), an
   image combo having its representative's count.  The representatives
   whose candidates start below the cap become tasks — (representative,
   first-read pin) in enumeration order — run through the pool (with
   [jobs = 1] the pool spawns nothing and runs them in order in the
   calling domain).  A prepared combo is never written, so the tasks
   share them.  A task claims global ordinals, its combo's offset plus
   the walk's own, so the cap stops its walk exactly where it stops the
   reference's loop.  It transports the consistent selections it found
   onto every image combo of the orbit that starts below the cap
   ([Symmetry.map_selection], then [Combo.linearize]), keeping those
   whose ordinal, shifted to the image's offset, is below the cap.  The
   merge concatenates each combo's executions in combo order.  Results
   are therefore identical whatever [jobs] was, by construction. *)
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
  let cap = config.max_graphs in
  let pool_wanted = effective_jobs config.jobs > 1 in
  (* The offset pass.  A representative precedes its images, so an
     image's count is known when the pass reaches it.  The pass stops
     once the offset is past the cap and the pool decision, on the live
     representatives' candidates, is made. *)
  let count = Array.make total_combos 0 and offset = Array.make (total_combos + 1) 0 in
  let reps = ref [] and images = Hashtbl.create 64 and rep_graphs = ref 0 in
  let seen = ref 0 in
  while
    !seen < total_combos
    && not (offset.(!seen) > cap && ((not pool_wanted) || !rep_graphs >= parallel_threshold))
  do
    let idx = !seen in
    let r = rep_of idx in
    if r <> idx then begin
      count.(idx) <- count.(r);
      if count.(r) > 0 && offset.(idx) < cap then
        Hashtbl.replace images r (idx :: Option.value (Hashtbl.find_opt images r) ~default:[])
    end
    else if Reduce.Feasible.check feas (decode idx) then begin
      let combo = Combo.prepare (paths_of idx) in
      count.(idx) <- Combo.graph_count combo;
      rep_graphs := !rep_graphs + count.(idx);
      if count.(idx) > 0 && offset.(idx) < cap then reps := (idx, combo) :: !reps
    end;
    offset.(idx + 1) <- offset.(idx) + count.(idx);
    incr seen
  done;
  (* past the cap when the pass stopped early, else the exact total *)
  let total = offset.(!seen) in
  let jobs = if pool_wanted && !rep_graphs >= parallel_threshold then config.jobs else 1 in
  let tasks =
    List.concat_map
      (fun (r, combo) ->
        let ims = List.rev (Option.value (Hashtbl.find_opt images r) ~default:[]) in
        let task pin = (r, combo, pin, ims) in
        match Combo.first_read_width combo with
        | Some w when jobs > 1 -> List.init w (fun k -> task (Some k))
        | _ -> [ task None ])
      (List.rev !reps)
    |> Array.of_list
  in
  let base = List.length locs + 2 in
  let results =
    Pool.run_tasks ~jobs ~tasks:(Array.length tasks) (fun ti ->
        let r, combo, pin, ims = tasks.(ti) in
        let plan = Reduce.make_plan ~model ~locs combo in
        let conflicts = if races then Combo.conflicts combo else [||] in
        let next = ref offset.(r) and found = ref [] in
        let claim k =
          let ordinal = !next in
          next := ordinal + k;
          if ordinal < cap then ordinal else -1
        in
        let emit leaf = found := leaf :: !found in
        let explored = Reduce.enumerate ?pin ~conflicts ~claim ~emit plan in
        let found = List.rev !found in
        (* each kept execution with its races *)
        let keep c conflicts (l : Reduce.leaf) (trace, order) =
          ( { trace; outcome = Combo.outcome ~locs c trace },
            if races then Reduce.races ~base conflicts l.hb order else [] )
        in
        let transport idx =
          let shift = offset.(idx) - offset.(r) in
          match List.filter (fun (l : Reduce.leaf) -> l.ordinal + shift < cap) found with
          | [] -> []
          | below ->
              let to_ = Combo.prepare (paths_of idx) in
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
                below
        in
        let own = List.map (fun (l : Reduce.leaf) -> keep combo conflicts l (l.trace, l.order)) found in
        (explored, (r, own) :: List.map (fun idx -> (idx, transport idx)) ims))
  in
  (* each combo's executions, task by task, then in combo order *)
  let per_combo = Array.make total_combos [] and explored = ref 0 in
  for ti = Array.length results - 1 downto 0 do
    let x, lists = results.(ti) in
    explored := !explored + x;
    List.iter (fun (idx, l) -> per_combo.(idx) <- l :: per_combo.(idx)) lists
  done;
  let kept =
    Array.fold_left (List.fold_left (fun acc l -> List.rev_append l acc)) [] per_combo
  in
  result_of ~races ~truncated ~capped:(total > cap) ~graphs:(min total cap)
    ~explored:!explored kept

(* The shared front half of [run], also the entry point of the
   architecture backends (Tmx_arch), which run the reference's candidate
   loop ([Combo.iter_candidates]) over combos × reads-from × coherence ×
   fence sides, but judge the graphs under per-architecture axioms
   instead of linearizing. *)
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
