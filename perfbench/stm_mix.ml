(* stm-mix: two domains transact over shared Tarray / Tmap / Tvar state,
   once in each of the four modes per round, under the default
   contention policy.  The mix is read-mostly: Tmap lookups, counter-bank
   updates (and region increments while the region is published), and
   long reads of the whole bank that end by bumping a hot counter.
   Domain 0 also privatizes the region periodically: flag flip, the §5
   quiescence fence (alternating global and ~var:flag), a plain sweep,
   republish.  Domain 1 declares a footprint wherever the structure
   lets it name its TVars (Tmap hides its cells, so lookups run
   undeclared).

   Both domains are spawned once per run: the registry keeps a slot for
   every domain that ever transacted and [quiesce] scans them all, so
   fresh domains per stage would slow the later stages' fences. *)

open Tmx_runtime

let modes = [ Stm.Lazy; Stm.Eager; Stm.Partial; Stm.Norec ]

(* A long read covers the whole bank.  With 64 counters it lost
   validation to the other domain's updates so often that domain 1, whose
   declared footprint is checked on every access, starved. *)
let bank_size = 16
let region_size = 16
let table_keys = 256
let privatize_every = 256

(* An untraced stage times every [timed_every]th transaction of each
   domain: the clock is read twice per timed transaction only. *)
let timed_every = 16

type state = {
  bank : Tarray.t;
  hot : Tvar.t;
  table : Tmap.t;
  flag : Tvar.t;
  region : Tarray.t;
}

let alloc () =
  let table = Tmap.create ~capacity:(2 * table_keys) in
  ignore
    (Stm.atomically (fun tx ->
         for k = 1 to table_keys do
           ignore (Tmap.add tx table k (k * 7))
         done));
  {
    bank = Tarray.make bank_size 0;
    hot = Tvar.make 0;
    table;
    flag = Tvar.make 1;
    region = Tarray.make region_size 0;
  }

(* Plain writes, with both domains parked between stages. *)
let reset st =
  Array.iter (fun v -> Tvar.unsafe_write v 0) st.bank;
  Array.iter (fun v -> Tvar.unsafe_write v 0) st.region;
  Tvar.unsafe_write st.hot 0;
  Tvar.unsafe_write st.flag 1

type tally = {
  mutable txs : int;
  mutable errors : int;
  mutable updates : int;
  mutable region_incs : int;
  mutable long_reads : int;
  mutable sweeps : int;
}

let tally () =
  { txs = 0; errors = 0; updates = 0; region_incs = 0; long_reads = 0; sweeps = 0 }

type stage = {
  mode : Stm.mode;
  deadline : int;
  names : string array;  (** span names: read, update, long_read, privatize, quiesce *)
  seed : int;
  index : int;
  timed : bool;  (** sample transaction latencies (untraced stages) *)
}

let span_names mode =
  Array.map
    (fun k -> Printf.sprintf "runtime.%s.%s" (Stm.mode_name mode) k)
    [| "read"; "update"; "long_read"; "privatize"; "quiesce" |]

(* One domain's share of a stage; [lat] keeps the domain's sampled
   transaction latencies in ns, a failed transaction as [max_int]. *)
let work st (s : stage) ~d ~lat t =
  let rng = Random.State.make [| s.seed; s.index; d |] in
  let declare l = if d = 1 then Some l else None in
  let tx kind ?footprint f =
    t.txs <- t.txs + 1;
    let timed = s.timed && t.txs mod timed_every = 0 in
    let t0 = if timed then Common.now_ns () else 0 in
    let r =
      match Tracer.span s.names.(kind) (fun () -> Stm.atomically ~mode:s.mode ?footprint f) with
      | r -> r
      | exception _ -> None
    in
    if Option.is_none r then t.errors <- t.errors + 1;
    if timed then
      Tracer.Samples.add lat (if Option.is_none r then max_int else Common.now_ns () - t0);
    r
  in
  let bank_fp = Array.to_list st.bank in
  let long_fp = declare (st.hot :: bank_fp) in
  let privatize () =
    ignore (tx 3 (fun tx -> Stm.write tx st.flag 0));
    Tracer.span s.names.(4) (fun () ->
        if t.sweeps mod 2 = 0 then Stm.quiesce () else Stm.quiesce ~var:st.flag ());
    Array.iter (fun v -> Tvar.unsafe_write v (Tvar.unsafe_read v + 1)) st.region;
    t.sweeps <- t.sweeps + 1;
    ignore (tx 3 (fun tx -> Stm.write tx st.flag 1))
  in
  let n = ref 0 in
  while !n land 63 <> 0 || Common.now_ns () < s.deadline do
    incr n;
    if d = 0 && !n mod privatize_every = 0 then privatize ();
    let x = Random.State.int rng 100 in
    if x < 70 then begin
      let keys = Array.init 4 (fun _ -> 1 + Random.State.int rng table_keys) in
      ignore (tx 0 (fun tx -> Array.iter (fun k -> ignore (Tmap.find tx st.table k)) keys))
    end
    else if x < 88 then begin
      let i = Random.State.int rng bank_size in
      if tx 1 ?footprint:(declare [ st.bank.(i) ]) (fun tx -> Tarray.update tx st.bank i succ)
         <> None
      then t.updates <- t.updates + 1
    end
    else if x < 94 then begin
      let j = Random.State.int rng region_size in
      match
        tx 1 ?footprint:(declare [ st.flag; st.region.(j) ]) (fun tx ->
            if Stm.read tx st.flag = 1 then (
              Tarray.update tx st.region j succ;
              true)
            else false)
      with
      | Some true -> t.region_incs <- t.region_incs + 1
      | _ -> ()
    end
    else if
      tx 2 ?footprint:long_fp (fun tx ->
          let sum = Array.fold_left (fun acc v -> acc + Stm.read tx v) 0 st.bank in
          Stm.write tx st.hot (Stm.read tx st.hot + 1);
          sum)
      <> None
    then t.long_reads <- t.long_reads + 1
  done

(* The stage's end state, read from outside: a lost or doubled update
   shows as a broken sum. *)
let check_invariants st (s : stage) (ts : tally list) =
  let sum a = Array.fold_left (fun acc v -> acc + Tvar.unsafe_read v) 0 a in
  let total f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  let bank = sum st.bank and hot = Tvar.unsafe_read st.hot and region = sum st.region in
  let want_bank = total (fun t -> t.updates)
  and want_hot = total (fun t -> t.long_reads)
  and want_region =
    (region_size * total (fun t -> t.sweeps)) + total (fun t -> t.region_incs)
  in
  let ok = bank = want_bank && hot = want_hot && region = want_region in
  if not ok then
    Common.note
      "WRONG stage %d (%s): bank %d (want %d), hot %d (want %d), region %d (want %d)" s.index
      (Stm.mode_name s.mode) bank want_bank hot want_hot region want_region;
  ok

(* Domain 1: waits for each stage to be posted, runs its share, reports. *)
type ctl = {
  posted : stage option Atomic.t;
  generation : int Atomic.t;
  finished : int Atomic.t;
  quit : bool Atomic.t;
  mutable t1 : tally;
  lat1 : Tracer.Samples.t;  (** domain 1's, written by domain 1 only *)
}

let wait_until cond =
  let spins = ref 0 in
  while not (cond ()) do
    incr spins;
    if !spins < 1000 then Domain.cpu_relax () else Unix.sleepf 0.0002
  done

let worker st ctl () =
  let seen = ref 0 in
  let rec loop () =
    wait_until (fun () -> Atomic.get ctl.quit || Atomic.get ctl.generation > !seen);
    if not (Atomic.get ctl.quit) then begin
      seen := Atomic.get ctl.generation;
      (match Atomic.get ctl.posted with
      | Some s -> work st s ~d:1 ~lat:ctl.lat1 ctl.t1
      | None -> ());
      Atomic.set ctl.finished !seen;
      loop ()
    end
  in
  loop ()

type stage_result = {
  r_mode : Stm.mode;
  round : int;
  wall : float;
  commits_per_s : float;
  snap : Stm.snapshot;
  commits : int;
  minor_words : float;
  traced : bool;
}

let mode_stats (snap : Stm.snapshot) = function
  | Stm.Lazy -> snap.lazy_stats
  | Stm.Eager -> snap.eager_stats
  | Stm.Partial -> snap.partial_stats
  | Stm.Norec -> snap.norec_stats

let run ~seed ~seconds ~trace ~out env =
  (* set-up: state allocation plus a domain start, 15 times *)
  let setups =
    Array.init 15 (fun _ ->
        Gc.compact ();
        let t0 = Common.now_ns () in
        let st = alloc () in
        let ready = Atomic.make false in
        let dom = Domain.spawn (fun () -> Atomic.set ready true) in
        wait_until (fun () -> Atomic.get ready);
        let dt = Common.secs (Common.now_ns () - t0) in
        Domain.join dom;
        ignore (Sys.opaque_identity st);
        dt)
  in
  let st = alloc () in
  let ctl =
    {
      posted = Atomic.make None;
      generation = Atomic.make 0;
      finished = Atomic.make 0;
      quit = Atomic.make false;
      t1 = tally ();
      lat1 = Tracer.Samples.create ();
    }
  in
  let lat0 = Tracer.Samples.create () in
  let dom = Domain.spawn (worker st ctl) in
  let wrong = ref 0 and attempted = ref 0 and failed = ref 0 and index = ref 0 in
  let run_stage ?(round = -1) mode ~dur ~tracing =
    reset st;
    Stm.reset_stats ();
    Tracer.set_enabled tracing;
    let g0 = Gc.quick_stat () in
    incr index;
    let t0 = Common.now_ns () in
    let s =
      {
        mode;
        deadline = t0 + int_of_float (dur *. 1e9);
        names = span_names mode;
        seed;
        index = !index;
        timed = round >= 0 && not tracing;
      }
    in
    let t0_ = tally () in
    ctl.t1 <- tally ();
    Atomic.set ctl.posted (Some s);
    Atomic.incr ctl.generation;
    work st s ~d:0 ~lat:lat0 t0_;
    let gen = Atomic.get ctl.generation in
    wait_until (fun () -> Atomic.get ctl.finished = gen);
    let wall = Common.secs (Common.now_ns () - t0) in
    Tracer.set_enabled false;
    let g1 = Gc.quick_stat () in
    let snap = Stm.stats () in
    if not (check_invariants st s [ t0_; ctl.t1 ]) then incr wrong;
    attempted := !attempted + t0_.txs + ctl.t1.txs;
    failed := !failed + t0_.errors + ctl.t1.errors;
    let commits = (mode_stats snap mode).commits in
    {
      r_mode = mode;
      round;
      wall;
      commits_per_s = float_of_int commits /. wall;
      snap;
      commits;
      minor_words = g1.minor_words -. g0.minor_words;
      traced = tracing;
    }
  in
  (* warm-up, untimed *)
  List.iter (fun m -> ignore (run_stage m ~dur:0.1 ~tracing:false)) modes;
  let rounds = 8 in
  let per_round = if trace then 8 else 4 in
  let dur = seconds /. float_of_int (rounds * per_round) in
  let root0 = Tracer.root_ns () and traced_wall = ref 0. in
  let gc0 = Gc.quick_stat () in
  let results =
    List.concat
      (List.init rounds (fun r ->
           (* rotate the mode order each round so no mode always runs first *)
           let order = List.filteri (fun i _ -> i >= r mod 4) modes @ List.filteri (fun i _ -> i < r mod 4) modes in
           List.concat_map
             (fun m ->
               if not trace then [ run_stage ~round:r m ~dur ~tracing:false ]
               else
                 let u = run_stage ~round:r m ~dur ~tracing:false in
                 let t0 = Common.now_ns () in
                 let t = run_stage ~round:r m ~dur ~tracing:true in
                 traced_wall := !traced_wall +. Common.secs (Common.now_ns () - t0);
                 [ u; t ])
             order))
  in
  let gc1 = Gc.quick_stat () in
  Atomic.set ctl.quit true;
  Domain.join dom;
  let peak_rss = Common.peak_rss_mb () in
  Common.note "stages: %d rounds x %d modes, %.3f s each, %d registered domains" rounds
    (List.length modes) dur (Registry.registered_domains ());
  let of_mode m traced = List.filter (fun r -> r.r_mode = m && r.traced = traced) results in
  let rate rs = Common.median (Array.of_list (List.map (fun r -> r.commits_per_s) rs)) in
  if not trace then begin
    Common.add "setup_s" "s" (Common.median setups) ~n:(Array.length setups);
    (* a round runs every mode once: its commits over its stages' time *)
    let round_rates =
      Array.init rounds (fun r ->
          let rs = List.filter (fun x -> x.round = r) results in
          float_of_int (List.fold_left (fun acc x -> acc + x.commits) 0 rs)
          /. List.fold_left (fun acc x -> acc +. x.wall) 0. rs)
    in
    Common.note_series "commits/s per round" round_rates;
    Common.add "ops_per_s" "1/s" (Common.median round_rates) ~n:rounds;
    Common.add_op_latency
      (Array.map
         (fun ns -> if ns = max_int then infinity else Common.ms ns)
         (Array.append (Tracer.Samples.to_array lat0) (Tracer.Samples.to_array ctl.lat1)));
    Common.add "peak_rss_mb" "MB" peak_rss
  end
  else begin
    let overheads =
      List.map
        (fun m ->
          let u = rate (of_mode m false) and t = rate (of_mode m true) in
          Common.note "tracing overhead: %s %.1f commits/s traced vs %.1f untraced"
            (Stm.mode_name m) t u;
          (u -. t) /. u)
        modes
    in
    List.iter
      (fun m ->
        let rs = of_mode m true in
        let name k = Printf.sprintf "runtime.%s.%s" (Stm.mode_name m) k in
        let ru = of_mode m false in
        Common.add (name "commits_per_s") "commits/s" (rate ru) ~n:(List.length ru);
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
        let ms r = mode_stats r.snap m in
        let commits = sum (fun r -> r.commits) in
        let va = sum (fun r -> (ms r).validation_aborts)
        and la = sum (fun r -> (ms r).lock_aborts) in
        let f = float_of_int in
        Common.add (name "abort_ratio") "ratio" (f (va + la) /. f (max 1 (commits + va + la)));
        Common.add (name "retries_per_commit") "ratio" (f (va + la) /. f (max 1 commits));
        Common.add (name "validation_aborts") "count" (f va);
        Common.add (name "lock_aborts") "count" (f la);
        Common.add (name "partial_aborts") "count" (f (sum (fun r -> r.snap.partial_aborts)));
        Common.add (name "escalations") "count" (f (sum (fun r -> r.snap.escalations)));
        List.iter
          (fun k ->
            let _, _, _, samples = Tracer.stats (name k) in
            let s = Common.sorted (Array.map (fun ns -> f ns /. 1e3) samples) in
            Common.add (name k ^ ".p50_us") "us" (Common.pct s 0.5) ~n:(Array.length s);
            Common.add (name k ^ ".p99_us") "us" (Common.pct s 0.99) ~n:(Array.length s))
          [ "read"; "update"; "long_read"; "privatize"; "quiesce" ];
        (* from the untraced stages: spans allocate *)
        Common.add (name "minor_words_per_tx") "words"
          (List.fold_left (fun acc r -> acc +. r.minor_words) 0. ru
          /. f (max 1 (List.fold_left (fun acc r -> acc + r.commits) 0 ru))))
      modes;
    Layers.gc_metrics ~per:(float_of_int (List.length results)) (Layers.gc_delta gc0 gc1);
    Layers.trace_metrics
      ~overhead:(Common.median (Array.of_list overheads))
      ~unaccounted:
        (1. -. (Common.secs (Tracer.root_ns () - root0) /. (2. *. !traced_wall)));
    Layers.print_layers ();
    Layers.write_trace ~out ~name:(Printf.sprintf "trace-stm-mix-seed%d.json" env.Common.seed)
  end;
  (!attempted, !failed, !wrong)
