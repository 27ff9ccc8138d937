(* Multi-domain workload driver for the runtime STM.

   Four mixes, chosen to stress the behaviours the runtime layers are
   about:

   - [Read_heavy]: 90% read-only transactions over a Tarray and a Tmap,
     10% single-slot writes — read-only commits (which take no locks)
     and validation traffic dominate;
   - [Write_heavy]: every transaction updates a small counter bank,
     cycles a Tqueue and swaps Tarray slots — lock acquisition and
     conflict retries dominate, which is what contention policies exist
     to manage;
   - [Long_read]: every transaction reads a long run of cold slots and
     only then reads-and-increments one hot counter, so an invalidation
     always lands at the deepest read-set position — the workload
     partial aborts exist for (the retained prefix is the whole cold
     run), and where a full abort re-pays the entire read set;
   - [Privatization_heavy]: worker domains transact over a region under
     a declared footprint while one domain repeatedly privatizes it
     (flag flip, quiescence fence — alternating global and
     per-location — plain sweep, republish): the §5 fence under load.

   Each (workload, mode, policy) stage runs on fresh transactional
   state with the statistics reset, so the reported snapshot is exactly
   that stage's behaviour.  Workload decisions are drawn from small
   per-worker deterministic LCGs, so two runs of the same configuration
   issue the same transaction mix. *)

type workload = Read_heavy | Write_heavy | Long_read | Privatization_heavy

let workload_name = function
  | Read_heavy -> "read-heavy"
  | Write_heavy -> "write-heavy"
  | Long_read -> "long-read"
  | Privatization_heavy -> "privatization-heavy"

let all_workloads = [ Read_heavy; Write_heavy; Long_read; Privatization_heavy ]

type config = {
  domains : int;
  iters : int; (* transactions per domain per stage *)
  modes : Stm.mode list;
  policies : (string * Contention.policy) list;
  workloads : workload list;
}

let default_policies =
  [
    ("spin", Contention.Spin);
    ("jittered", Contention.Jittered);
    ("budget8", Contention.Budget 8);
  ]

let default_config =
  {
    domains = 4;
    iters = 1000;
    modes = [ Stm.Lazy; Stm.Eager; Stm.Partial; Stm.Norec ];
    policies = default_policies;
    workloads = all_workloads;
  }

type result = {
  workload : string;
  mode : string;
  policy : string;
  domains : int;
  ops : int; (* transactions issued (committed or user-aborted) *)
  seconds : float;
  snapshot : Stm.snapshot;
}

(* a tiny deterministic per-worker PRNG for workload choices *)
let mk_rand seed =
  let st = ref (((seed + 1) * 0x9E3779B9) land 0xFFFF_FFFF_FFFF) in
  fun bound ->
    st := ((!st * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    !st lsr 17 mod bound

(* --- the workloads -------------------------------------------------- *)

(* each builder allocates the stage's shared structures once and returns
   one worker closure per domain, all contending on the same state *)

let read_heavy ~mode ~policy ~iters ~domains =
  let arr = Tarray.init 64 (fun i -> i) in
  let map = Tmap.create ~capacity:256 in
  for k = 1 to 64 do
    ignore (Stm.atomically (fun tx -> ignore (Tmap.add tx map k (k * k))))
  done;
  List.init domains (fun me () ->
      let rand = mk_rand me in
      for _ = 1 to iters do
        if rand 10 < 9 then
          ignore
            (Stm.atomically ~mode ~policy (fun tx ->
                 let a = Tarray.get tx arr (rand 64) in
                 let b = Tarray.get tx arr (rand 64) in
                 let c = Tarray.get tx arr (rand 64) in
                 let d = Tarray.get tx arr (rand 64) in
                 let m =
                   Option.value ~default:0 (Tmap.find tx map (1 + rand 64))
                 in
                 a + b + c + d + m))
        else
          ignore
            (Stm.atomically ~mode ~policy (fun tx ->
                 Tarray.update tx arr (rand 64) (fun v -> v + 1)))
      done)

let write_heavy ~mode ~policy ~iters ~domains =
  let counters = Tarray.make 8 0 in
  let q = Tqueue.create ~capacity:1024 in
  ignore (Stm.atomically (fun tx -> ignore (Tqueue.push tx q 0)));
  List.init domains (fun me () ->
      let rand = mk_rand (me + 1000) in
      for _ = 1 to iters do
        ignore
          (Stm.atomically ~mode ~policy (fun tx ->
               Tarray.update tx counters (rand 8) (fun v -> v + 1);
               (match Tqueue.pop tx q with
               | Some v -> ignore (Tqueue.push tx q (v + 1))
               | None -> ignore (Tqueue.push tx q 0));
               Tarray.swap tx counters (rand 8) (rand 8)))
      done)

(* every transaction reads 32 cold slots, then reads and increments the
   single hot counter — the only location other transactions invalidate,
   and the deepest entry in every read set.  Under partial mode a
   conflict keeps the 32-read prefix and re-executes only the tail;
   under lazy it re-pays the whole read set. *)
let long_read ~mode ~policy ~iters ~domains =
  let arr = Tarray.init 64 (fun i -> i) in
  let hot = Tvar.make 0 in
  List.init domains (fun _me () ->
      for _ = 1 to iters do
        ignore
          (Stm.atomically ~mode ~policy (fun tx ->
               let acc = ref 0 in
               for j = 0 to 31 do
                 acc := !acc + Tarray.get tx arr j
               done;
               let h = Stm.read tx hot in
               Stm.write tx hot (h + 1);
               !acc + h))
      done)

(* worker domains transact over [region] under a declared footprint;
   worker 0 is the privatizer: flag flip, quiescence fence (alternating
   global and per-location), plain sweep, republish.  [~fenced:false]
   drops the quiescence fence — the unrepaired program `tmx repair`
   starts from — so the fenced/unfenced pair prices the repair. *)
let privatization_heavy ?(fenced = true) ~mode ~policy ~iters ~domains () =
  let region = Tarray.make 16 0 in
  let flag = Tvar.make 0 in
  let n = Tarray.length region in
  let footprint = flag :: Array.to_list region in
  List.init domains (fun me () ->
      let rand = mk_rand (me + 2000) in
      if me = 0 then
        for i = 1 to iters do
          (* privatize: flip the flag, fence, sweep plainly, republish *)
          ignore
            (Stm.atomically ~mode ~policy ~footprint:[ flag ] (fun tx ->
                 Stm.write tx flag 1));
          if fenced then
            if i land 1 = 0 then Stm.quiesce ()
            else Stm.quiesce ~var:region.(rand n) ();
          for j = 0 to n - 1 do
            Tvar.unsafe_write region.(j) (Tvar.unsafe_read region.(j) + 1)
          done;
          ignore
            (Stm.atomically ~mode ~policy ~footprint:[ flag ] (fun tx ->
                 Stm.write tx flag 0))
        done
      else
        for _ = 1 to iters do
          ignore
            (Stm.atomically ~mode ~policy ~footprint (fun tx ->
                 if Stm.read tx flag = 0 then
                   Tarray.update tx region (rand n) (fun v -> v + 1)))
        done)

(* --- the harness ----------------------------------------------------- *)

(* one domain per worker, on reset statistics: the wall time and the
   statistics of exactly this run *)
let run_workers workers =
  Stm.reset_stats ();
  let t0 = Clock.now_s () in
  let ds = List.map (fun w -> Domain.spawn w) workers in
  List.iter Domain.join ds;
  let seconds = Clock.now_s () -. t0 in
  (seconds, Stm.stats ())

let stage ~workload ~mode ~policy_name ~policy ~domains ~iters =
  let workers =
    match workload with
    | Read_heavy -> read_heavy ~mode ~policy ~iters ~domains
    | Write_heavy -> write_heavy ~mode ~policy ~iters ~domains
    | Long_read -> long_read ~mode ~policy ~iters ~domains
    | Privatization_heavy ->
        privatization_heavy ~mode ~policy ~iters ~domains ()
  in
  let seconds, snapshot = run_workers workers in
  {
    workload = workload_name workload;
    mode = Stm.mode_name mode;
    policy = policy_name;
    domains;
    ops = domains * iters;
    seconds;
    snapshot;
  }

let run (config : config) =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun mode ->
          List.map
            (fun (policy_name, policy) ->
              stage ~workload ~mode ~policy_name ~policy
                ~domains:config.domains ~iters:config.iters)
            config.policies)
        config.modes)
    config.workloads

(* --- reporting ------------------------------------------------------- *)

let totals (s : Stm.snapshot) =
  let add f =
    f s.lazy_stats + f s.eager_stats + f s.partial_stats + f s.norec_stats
  in
  ( add (fun (m : Stm.mode_stats) -> m.commits),
    add (fun (m : Stm.mode_stats) -> m.validation_aborts),
    add (fun (m : Stm.mode_stats) -> m.lock_aborts),
    add (fun (m : Stm.mode_stats) -> m.user_aborts) )

(* full (conflict) aborts per issued attempt outcome: partial-mode
   checkpoint rollbacks deliberately do NOT count — that they keep a
   conflict from becoming a full abort is the point of the mode *)
let abort_rate (s : Stm.snapshot) =
  let commits, v, l, _ = totals s in
  let attempts = commits + v + l in
  if attempts = 0 then 0. else float_of_int (v + l) /. float_of_int attempts

let commit_rate (seconds, s) =
  let commits, _, _, _ = totals s in
  float_of_int commits /. Float.max seconds 1e-9

(* --- paired measurement ---------------------------------------------- *)

(* One discarded warm-up run of the baseline, then [reps] rounds, each
   running the baseline and every variant back to back; a round yields
   one variant/baseline ratio per variant, and each variant's ratio is
   the median over the rounds.  Pairing cancels the slow drift (GC state,
   frequency scaling, a neighbour on a shared host) that a best-of-N over
   independent runs cannot: measured unpaired, a percent-level fence
   signal drowns in run-to-run variance and can even come out as a fence
   that makes the code faster. *)
let paired ~reps ~rate ~baseline variants =
  let variants = Array.of_list variants in
  let ratios = Array.map (fun _ -> Array.make reps 0.) variants in
  let best = ref 0. in
  ignore (rate baseline);
  for round = 0 to reps - 1 do
    let b = rate baseline in
    best := Float.max !best b;
    Array.iteri
      (fun i v -> ratios.(i).(round) <- rate v /. Float.max b 1e-9)
      variants
  done;
  let median a =
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (!best, Array.to_list (Array.map median ratios))

(* --- repair cost ------------------------------------------------------ *)

(* The price of the §5 repair under load: the privatization workload
   with and without its quiescence fence.  The unfenced variant is the
   racy program `tmx repair` starts from (the plain sweep overlaps
   in-flight readers — harmless on int cells, and the sweep result is
   not asserted); the fenced variant is the repaired program.  The
   throughput ratio is what the paper's 0.6–2.5% fence-overhead claim
   is about. *)

type fence_cost = {
  workload : string;
  mode : string;
  policy : string;
  fences : int; (* quiescence fences executed by the fenced run *)
  fenced_per_sec : float;
  unfenced_per_sec : float;
}

let fence_overhead c =
  1. -. (c.fenced_per_sec /. Float.max c.unfenced_per_sec 1e-9)

let repair_cost (config : config) =
  if not (List.mem Privatization_heavy config.workloads) then []
  else
    (* the regular stages are sized for the full grid; a percent-level
       overhead needs longer runs, each fenced run paired with an
       unfenced one *)
    let iters = config.iters * 25 and reps = 5 in
    List.concat_map
      (fun mode ->
        List.map
          (fun (policy_name, policy) ->
            let fences = ref 0 in
            let rate fenced =
              let run =
                run_workers
                  (privatization_heavy ~fenced ~mode ~policy ~iters
                     ~domains:config.domains ())
              in
              if fenced then fences := max !fences (snd run).Stm.quiesces;
              commit_rate run
            in
            let unfenced_per_sec, ratios =
              paired ~reps ~rate ~baseline:false [ true ]
            in
            {
              workload = workload_name Privatization_heavy;
              mode = Stm.mode_name mode;
              policy = policy_name;
              fences = !fences;
              fenced_per_sec = unfenced_per_sec *. List.hd ratios;
              unfenced_per_sec;
            })
          config.policies)
      config.modes

(* --- per-architecture fence penalty ----------------------------------- *)

(* What the §6 compilation costs at runtime: the arch backends
   (lib/arch) prove which fences each architecture needs — x86-TSO and
   the C++-TM mapping need none beyond what the STM already executes,
   ARMv8 needs a DMB LD after plain loads — and this measures the
   throughput price of those insertions on the real multicore runtime.
   OCaml exposes no raw fence instruction, so each architecture's fence
   is emulated with the cheapest atomic with the same ordering class on
   a per-worker (uncontended) cell: nothing for x86-TSO (its Qx MFENCE
   is the runtime's existing commit path, zero inserted fences), an
   atomic load for DMB LD, an atomic RMW (a full barrier everywhere) for
   atomic_thread_fence(seq_cst). *)

type arch_cost = {
  arch : string;
  workload : string;
  mode : string;
  fenced_per_sec : float;
  baseline_per_sec : float;
}

let arch_penalty c = 1. -. (c.fenced_per_sec /. Float.max c.baseline_per_sec 1e-9)

(* read-mix: read-only transactions over a per-domain partition (no
   cross-domain conflicts — a fenced run slowing the loop down would
   otherwise *reduce* abort rates and mask the fence cost behind a
   throughput gain), 16 fenced reads per transaction plus the
   transaction-boundary fence, so the inserted-fence share of the
   transaction is as large as the runtime allows *)
let arch_fence_workload ~fence ~mode ~policy ~iters ~domains =
  let arr = Tarray.init (16 * domains) (fun i -> i) in
  List.init domains (fun me () ->
      let cell = Atomic.make 0 in
      let base = 16 * me in
      for _ = 1 to iters do
        ignore
          (Stm.atomically ~mode ~policy (fun tx ->
               let acc = ref 0 in
               for j = base to base + 15 do
                 acc := !acc + Tarray.get tx arr j;
                 fence cell
               done;
               !acc));
        fence cell
      done)

let no_fence (_ : int Atomic.t) = ()
let ld_fence cell = ignore (Sys.opaque_identity (Atomic.get cell))
let full_fence cell = Atomic.incr cell

let arch_fences =
  [ ("x86tso", no_fence); ("armv8", ld_fence); ("rc11", full_fence) ]

let arch_fence_cost (config : config) =
  let mode = match config.modes with m :: _ -> m | [] -> Stm.Lazy in
  let policy =
    match config.policies with (_, p) :: _ -> p | [] -> Contention.Spin
  in
  (* a single domain: the inserted fence is a per-thread cost, and
     multi-domain runs put percent-level scheduler/GC variance on top of
     a percent-level signal *)
  let iters = config.iters * 25 * config.domains and reps = 9 in
  let rate fence =
    commit_rate
      (run_workers (arch_fence_workload ~fence ~mode ~policy ~iters ~domains:1))
  in
  let baseline, ratios =
    paired ~reps ~rate ~baseline:no_fence (List.map snd arch_fences)
  in
  List.map2
    (fun (arch, fence) ratio ->
      (* x86-TSO inserts nothing: its ratio is noise around 1 *)
      let ratio = if fence == no_fence then 1. else ratio in
      {
        arch;
        workload = "read-mix";
        mode = Stm.mode_name mode;
        fenced_per_sec = baseline *. ratio;
        baseline_per_sec = baseline;
      })
    arch_fences ratios

let pp_arch_cost ppf c =
  Fmt.pf ppf
    "arch-fence %-7s %-10s %-7s fenced=%.0f tx/s baseline=%.0f tx/s \
     penalty=%+.1f%%"
    c.arch c.workload c.mode c.fenced_per_sec c.baseline_per_sec
    (100. *. arch_penalty c)

(* The arch_fence_penalty document: the measured penalty runs.  The §6
   claims themselves are checked by `tmx arch table --all --check`. *)
let arch_json (config : config) costs =
  let run c =
    Tmx_json.(
      Obj
        [
          ("arch", Str c.arch);
          ("workload", Str c.workload);
          ("mode", Str c.mode);
          ("baseline_per_sec", Num c.baseline_per_sec);
          ("fenced_per_sec", Num c.fenced_per_sec);
          ("penalty", Num (arch_penalty c));
        ])
  in
  Tmx_json.(
    to_string
      (Obj
         [
           ("experiment", Str "arch_fence_penalty");
           ("domains", int config.domains);
           ("iters_per_domain", int (config.iters * 25 * config.domains));
           ("runs", Arr (List.map run costs));
         ]))

let write_file file text =
  let oc = open_out file in
  output_string oc text;
  output_char oc '\n';
  close_out oc

let write_arch_json ~file config costs =
  write_file file (arch_json config costs)

let pp_fence_cost ppf (c : fence_cost) =
  Fmt.pf ppf
    "repair-cost %-20s %-7s %-9s fences=%d fenced=%.0f tx/s unfenced=%.0f \
     tx/s overhead=%+.1f%%"
    c.workload c.mode c.policy c.fences c.fenced_per_sec c.unfenced_per_sec
    (100. *. fence_overhead c)

let pp_result ppf r =
  let commits, v, l, u = totals r.snapshot in
  Fmt.pf ppf
    "%-20s %-7s %-9s d=%d ops=%d commits=%d aborts={validation:%d lock:%d \
     user:%d} partial=%d quiesces=%d esc=%d %.3fs (%.0f tx/s)"
    r.workload r.mode r.policy r.domains r.ops commits v l u
    r.snapshot.partial_aborts r.snapshot.quiesces r.snapshot.escalations
    r.seconds
    (commit_rate (r.seconds, r.snapshot))

let to_json ?(repair_cost = []) (config : config) results =
  let fence_cost (c : fence_cost) =
    Tmx_json.(
      Obj
        [
          ("workload", Str c.workload);
          ("mode", Str c.mode);
          ("policy", Str c.policy);
          ("fences", int c.fences);
          ("fenced_per_sec", Num c.fenced_per_sec);
          ("unfenced_per_sec", Num c.unfenced_per_sec);
          ("fence_overhead", Num (fence_overhead c));
        ])
  in
  let run r =
    let commits, v, l, u = totals r.snapshot in
    Tmx_json.(
      Obj
        [
          ("workload", Str r.workload);
          ("mode", Str r.mode);
          ("policy", Str r.policy);
          ("ops", int r.ops);
          ("seconds", Num r.seconds);
          ("commits_per_sec", Num (commit_rate (r.seconds, r.snapshot)));
          ("commits", int commits);
          ("aborts", Obj [ ("validation", int v); ("lock", int l); ("user", int u) ]);
          ("abort_rate", Num (abort_rate r.snapshot));
          ("partial_aborts", int r.snapshot.partial_aborts);
          ("quiesces", int r.snapshot.quiesces);
          ("escalations", int r.snapshot.escalations);
          ("retry_histogram", Stm.histogram_to_json r.snapshot.retry_hist);
          ("commit_latency_ns_histogram", Stm.histogram_to_json r.snapshot.latency_hist_ns);
        ])
  in
  Tmx_json.(
    to_string
      (Obj
         ([
            ("experiment", Str "stm_runtime_contention");
            ("domains", int config.domains);
            ("iters_per_domain", int config.iters);
          ]
         @ (if repair_cost = [] then []
            else [ ("repair_cost", Arr (List.map fence_cost repair_cost)) ])
         @ [ ("runs", Arr (List.map run results)) ])))

let write_json ?repair_cost ~file config results =
  write_file file (to_json ?repair_cost config results)
