(* A tiny work-stealing domain pool for the enumerator.

   Tasks are identified by their index in [0, tasks).  Workers (the
   calling domain plus [jobs - 1] spawned ones) repeatedly claim the
   next unclaimed index with a fetch-and-add on a shared cursor — the
   degenerate but contention-free form of work stealing over a flat
   deque: whichever domain finishes its chunk first steals the next
   index, so an uneven task (a litmus program whose first-read split
   produced one huge subtree) never leaves the other domains idle.

   Results land in a per-task slot, so the caller can merge them in
   task-index order and stay bit-identical to a sequential run no
   matter how the domains interleaved.

   Pathological arguments are normalized up front: [jobs] is clamped to
   at least 1 (a negative or zero request means "no parallelism", not
   an error), a negative [tasks] raises [Invalid_argument] instead
   of leaking whatever [Array] would have said, and the number of
   spawned domains never exceeds [available_cores () - 1] — on a box
   with fewer cores than the requested [jobs], oversubscribed domains
   only contend for the scheduler and the minor heap, turning the pool
   into a slowdown.  Results are unaffected: the calling domain is
   always a worker and drains whatever the spawned ones don't claim.  Both the sequential
   and the parallel paths deliver a task's exception through the same
   capture-and-reraise machinery, so the caller sees identical
   exceptions with identical backtraces whatever [jobs] was. *)

let available_cores () = Domain.recommended_domain_count ()

(* every domain [run_tasks] has spawned, for tests that must know a run
   reached the pool *)
let spawn_count = Atomic.make 0
let spawned () = Atomic.get spawn_count

let run_tasks ~jobs ~tasks (f : int -> 'a) : 'a array =
  if tasks < 0 then invalid_arg "Pool.run_tasks: negative tasks";
  let jobs = max 1 jobs in
  if tasks = 0 then [||]
  else begin
    let results : 'a option array = Array.make tasks None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= tasks || Atomic.get failure <> None then continue := false
        else
          match f i with
          | r -> results.(i) <- Some r
          | exception exn ->
              (* first failure wins; the rest of the pool drains *)
              ignore
                (Atomic.compare_and_set failure None
                   (Some (exn, Printexc.get_raw_backtrace ())))
      done
    in
    let spawned =
      List.init
        (min (min (jobs - 1) (tasks - 1)) (max 0 (available_cores () - 1)))
        (fun _ ->
          Atomic.incr spawn_count;
          Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map
      (function
        | Some r -> r
        | None ->
            (* unreachable: every index below [tasks] was claimed and
               either filled its slot or recorded a failure above *)
            assert false)
      results
  end
