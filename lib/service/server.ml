(* The tmx serve daemon.  N worker domains share the listening sockets
   (Unix and/or TCP) through a select loop; each owns its accepted
   connection and runs the NDJSON request loop on it.  Reads and the
   select carry a short timeout so workers notice the stop flag even
   inside an idle connection; a client vanishing mid-request (read EOF,
   or EPIPE on the response write) tears down only that connection.

   Binding is split out ([listen]) from serving ([start ~listener]) so
   the CLI can bind once, print the bound addresses (the kernel picks
   the port for --port 0), and fork shard processes that inherit the
   same listening fds — the kernel then load-balances accepts across
   processes, and a respawned shard reuses the fd without re-binding.

   Overload is handled by admission, not queueing: at most
   [max_inflight] expensive requests run at once per process, and an
   arrival past that is answered immediately with a structured
   "overloaded" error (Contention.Admission — the STM Budget policy's
   bound, reused as backpressure).  Cheap verbs (ping, stats, shutdown)
   bypass admission so observability and shutdown survive overload. *)

open Tmx_core
open Tmx_exec
open Tmx_litmus

type config = {
  socket : string option;
  tcp : (string * int) option;
  cache_dir : string;
  cache_capacity : int;
  cache_shards : int;
  workers : int;
  jobs : int;
  max_inflight : int;
  enum : Enumerate.config;
  verbose : bool;
}

let default_config ~socket =
  {
    socket = Some socket;
    tcp = None;
    cache_dir = Cache.default_dir ();
    cache_capacity = 128;
    cache_shards = 1;
    workers = 2;
    jobs = 1;
    max_inflight = 0;
    enum = Enumerate.default_config;
    verbose = false;
  }

(* -- listeners -------------------------------------------------------------- *)

type listener = {
  l_unix : (Unix.file_descr * string * (int * int)) option;
      (* fd, path, (device, inode) of the socket file bound at path *)
  l_tcp : (Unix.file_descr * string * int) option;  (* fd, host, bound port *)
}

let listen_fds l =
  List.filter_map Fun.id
    [
      Option.map (fun (fd, _, _) -> fd) l.l_unix;
      Option.map (fun (fd, _, _) -> fd) l.l_tcp;
    ]

let addresses l =
  (match l.l_unix with Some (_, p, _) -> [ "unix:" ^ p ] | None -> [])
  @
  match l.l_tcp with
  | Some (_, h, p) -> [ Printf.sprintf "tcp:%s:%d" h p ]
  | None -> []

let tcp_port l = Option.map (fun (_, _, p) -> p) l.l_tcp

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | a -> a
  | exception _ -> (
      match
        Unix.getaddrinfo host ""
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* The socket file goes only while it is still the one this listener
   bound: a daemon started on the same path while this one was draining
   has replaced it, and must keep it. *)
let close_listener l =
  Option.iter
    (fun (fd, path, id) ->
      (try Unix.close fd with _ -> ());
      match Unix.stat path with
      | st when (st.Unix.st_dev, st.Unix.st_ino) = id -> (
          try Unix.unlink path with _ -> ())
      | _ | (exception Unix.Unix_error _) -> ())
    l.l_unix;
  Option.iter (fun (fd, _, _) -> try Unix.close fd with _ -> ()) l.l_tcp

let listen cfg =
  if cfg.socket = None && cfg.tcp = None then
    invalid_arg "Server.listen: need a Unix socket path or a TCP address";
  let l_unix =
    Option.map
      (fun path ->
        if Sys.file_exists path then (try Unix.unlink path with _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 64;
           (* nonblocking so workers selecting on the same fd never hang
              in accept when a sibling wins the race for the connection *)
           Unix.set_nonblock fd
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        let st = Unix.stat path in
        (fd, path, (st.Unix.st_dev, st.Unix.st_ino)))
      cfg.socket
  in
  match
    Option.map
      (fun (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
           Unix.listen fd 64;
           Unix.set_nonblock fd
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, host, bound))
      cfg.tcp
  with
  | l_tcp -> { l_unix; l_tcp }
  | exception e ->
      Option.iter (fun (fd, _, _) -> try Unix.close fd with _ -> ()) l_unix;
      raise e

type t = {
  cfg : config;
  listener : listener;
  owns_listener : bool;
  cache : Cache.t;
  metrics : Metrics.t;
  admission : Tmx_runtime.Contention.Admission.t;
  stop_flag : bool Atomic.t;
  mutable domains : unit Domain.t list;
  stop_lock : Mutex.t;
  mutable cleaned : bool;
}

let cache t = t.cache
let stopping t = Atomic.get t.stop_flag
let server_addresses t = addresses t.listener

(* deadlines and latency are durations, so they live on the monotonic
   clock — an NTP step or TZ change mid-request must not expire (or
   un-expire) anything *)
let now_ns = Tmx_runtime.Clock.now_ns
let now_s = Tmx_runtime.Clock.now_s

let log t fmt =
  if t.cfg.verbose then Fmt.epr ("tmx serve: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter ("tmx serve: " ^^ fmt ^^ "@.")

(* -- request handling ------------------------------------------------------- *)

let resolve_litmus (req : Protocol.request) =
  match (req.name, req.program) with
  | Some n, _ -> (
      match Catalog.find n with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "unknown litmus test %S" n))
  | None, Some src -> (
      match Parse.parse src with
      | l -> Ok l
      | exception Parse.Error m -> Error m)
  | None, None -> Error "request needs \"name\" or \"program\""

let resolve_model (req : Protocol.request) =
  match Model.by_name req.model with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown model %S" req.model)

(* inclusive, so a deadline_ms of 0 is expired at dispatch even when the
   clock has not ticked since the deadline was computed *)
let expired deadline =
  match deadline with None -> false | Some d -> now_s () >= d

let deadline_error t ?id ~verb () =
  Metrics.deadline_exceeded t.metrics;
  Protocol.error ?id ~verb "deadline exceeded"

(* Both must resolve, then [f litmus model]. *)
let with_target (req : Protocol.request) f =
  match resolve_litmus req with
  | Error e -> Protocol.error ?id:req.id ~verb:req.verb e
  | Ok litmus -> (
      match resolve_model req with
      | Error e -> Protocol.error ?id:req.id ~verb:req.verb e
      | Ok model -> f litmus model)

let result_fields (r : Enumerate.result) =
  [
    ("truncated", Json.bool r.truncated);
    ("capped", Json.bool r.capped);
    ("graphs", Json.int r.graphs);
  ]

let handle_outcomes t (req : Protocol.request) =
  with_target req (fun litmus model ->
      let v, hit = Cache.memo t.cache ~config:t.cfg.enum model litmus.program in
      let outcomes = Enumerate.outcomes v.result in
      Protocol.ok ?id:req.id ~verb:req.verb
        ([
           ("cached", Json.bool (hit = `Hit));
           ("count", Json.int (List.length outcomes));
           ( "outcomes",
             Json.Arr
               (List.map (fun o -> Json.str (Fmt.str "%a" Outcome.pp o)) outcomes)
           );
         ]
        @ result_fields v.result))

let handle_races t (req : Protocol.request) =
  with_target req (fun litmus model ->
      let v, hit = Cache.memo t.cache ~config:t.cfg.enum model litmus.program in
      let racy = Array.fold_left (fun n r -> if r <> [] then n + 1 else n) 0 v.races in
      let mixed = Array.fold_left (fun n m -> if m then n + 1 else n) 0 v.mixed in
      Protocol.ok ?id:req.id ~verb:req.verb
        ([
           ("cached", Json.bool (hit = `Hit));
           ("executions", Json.int (List.length v.result.executions));
           ("racy", Json.int racy);
           ("mixed", Json.int mixed);
         ]
        @ result_fields v.result))

let handle_lint t (req : Protocol.request) =
  match resolve_litmus req with
  | Error e -> Protocol.error ?id:req.id ~verb:req.verb e
  | Ok litmus ->
      let model =
        match resolve_model req with Ok m -> m | Error _ -> Model.programmer
      in
      (* lint is model-independent; a cache entry under any model carries
         it.  Hit or not, the full report is recomputed live — the lint
         is linear-ish, the entry only pins the summary counters. *)
      let cached_counts =
        Option.map
          (fun (v : Cache.verdict) ->
            (v.lint_race_free, v.lint_findings, v.lint_mixed))
          (Cache.find t.cache ~config:t.cfg.enum model litmus.program)
      in
      let report = Tmx_analysis.Lint.lint litmus.program in
      let race_free, findings, mixed =
        match cached_counts with
        | Some c -> c
        | None ->
            ( Tmx_analysis.Lint.race_free report,
              List.length report.findings,
              Tmx_analysis.Lint.mixed_count report )
      in
      let report_json =
        match Json.of_string (Tmx_analysis.Lint.to_json report) with
        | Ok j -> j
        | Error _ -> Json.Null
      in
      Protocol.ok ?id:req.id ~verb:req.verb
        [
          ("cached", Json.bool (cached_counts <> None));
          ("race_free", Json.bool race_free);
          ("findings", Json.int findings);
          ("mixed", Json.int mixed);
          ("report", report_json);
        ]

let handle_check t (req : Protocol.request) =
  with_target req (fun litmus _model ->
      let misses = ref 0 in
      let enumerate ~config model p =
        let v, hit = Cache.memo t.cache ~config model p in
        if hit = `Miss then incr misses;
        v.Cache.result
      in
      let report = Litmus.run ~config:t.cfg.enum ~enumerate litmus in
      Protocol.ok ?id:req.id ~verb:req.verb
        [
          ("cached", Json.bool (!misses = 0));
          ("passed", Json.bool (Litmus.passed report));
          ( "results",
            Json.Arr
              (List.map
                 (fun (r : Litmus.check_result) ->
                   Json.Obj
                     [
                       ( "model",
                         Json.str (Litmus.model_of_check r.check).Model.name );
                       ("descr", Json.str (Litmus.descr_of_check r.check));
                       ("ok", Json.bool r.ok);
                       ("detail", Json.str r.detail);
                     ])
                 report.results) );
          ("truncated", Json.bool report.truncated);
          ("capped", Json.bool report.capped);
          ( "static",
            Json.str (Fmt.str "%a" Tmx_analysis.Lint.pp_verdict report.lint) );
        ])

let handle_stats t (req : Protocol.request) =
  let c = Cache.stats t.cache in
  let snap = Metrics.snapshot t.metrics in
  Protocol.ok ?id:req.id ~verb:req.verb
    [
      ( "cache",
        Json.Obj
          [
            ("hits", Json.int c.hits);
            ("misses", Json.int c.misses);
            ("stores", Json.int c.stores);
            ("evictions", Json.int c.evictions);
            ("load_failures", Json.int c.load_failures);
            ("resident", Json.int (Cache.resident t.cache));
            ("shards", Json.int (Cache.shard_count t.cache));
          ] );
      ("metrics", Metrics.snapshot_to_json snap);
    ]

let rec handle_single t ~deadline (req : Protocol.request) =
  if expired deadline then deadline_error t ?id:req.id ~verb:req.verb ()
  else
    match req.verb with
    | "ping" -> Protocol.ok ?id:req.id ~verb:"ping" []
    | "outcomes" -> handle_outcomes t req
    | "races" -> handle_races t req
    | "lint" -> handle_lint t req
    | "check" -> handle_check t req
    | "stats" -> handle_stats t req
    | "shutdown" ->
        Atomic.set t.stop_flag true;
        Protocol.ok ?id:req.id ~verb:"shutdown" []
    | "batch" -> handle_batch t ~deadline req
    | v -> Protocol.error ?id:req.id ~verb:v (Printf.sprintf "unknown verb %S" v)

and handle_batch t ~deadline (req : Protocol.request) =
  let subs = Array.of_list req.subrequests in
  (* fan across the domain pool; the deadline is re-checked at each
     sub-request boundary, so an expired batch drains cheaply — already
     running enumerations complete (and populate the cache) *)
  let responses =
    Pool.run_tasks ~jobs:t.cfg.jobs ~tasks:(Array.length subs) (fun i ->
        let sub = subs.(i) in
        let deadline =
          match (deadline, sub.deadline_ms) with
          | d, None -> d
          | None, Some ms -> Some (now_s () +. (float_of_int ms /. 1000.))
          | Some d, Some ms ->
              Some (Float.min d (now_s () +. (float_of_int ms /. 1000.)))
        in
        if sub.verb = "batch" then
          Protocol.error ?id:sub.id ~verb:"batch" "batch requests cannot nest"
        else
          try handle_single t ~deadline sub
          with e ->
            Protocol.error ?id:sub.id ~verb:sub.verb (Printexc.to_string e))
  in
  let cached =
    Array.fold_left
      (fun n r ->
        match Option.bind (Json.mem "cached" r) Json.to_bool with
        | Some true -> n + 1
        | _ -> n)
      0 responses
  in
  let ok_count =
    Array.fold_left (fun n r -> if Protocol.response_ok r then n + 1 else n) 0 responses
  in
  Protocol.ok ?id:req.id ~verb:"batch"
    [
      ("count", Json.int (Array.length responses));
      ("ok_count", Json.int ok_count);
      ("cached", Json.int cached);
      ("responses", Json.Arr (Array.to_list responses));
    ]

(* verbs that must keep answering under overload: liveness probes,
   observability, and the off switch *)
let admission_exempt = function
  | "ping" | "stats" | "shutdown" -> true
  | _ -> false

let serve_line t line =
  Metrics.incr_inflight t.metrics;
  let t0 = now_ns () in
  let verb, resp =
    match Protocol.of_line line with
    | Error e -> ("other", Protocol.error ~verb:"error" e)
    | Ok req ->
        let handle () =
          let deadline =
            Option.map
              (fun ms -> now_s () +. (float_of_int ms /. 1000.))
              req.deadline_ms
          in
          try handle_single t ~deadline req
          with e ->
            Protocol.error ?id:req.id ~verb:req.verb (Printexc.to_string e)
        in
        if admission_exempt req.verb then (req.verb, handle ())
        else
          ( req.verb,
            Tmx_runtime.Contention.Admission.with_admission t.admission handle
              ~shed:(fun () ->
                Metrics.shed t.metrics;
                Protocol.overloaded ?id:req.id ~verb:req.verb ()) )
  in
  Metrics.record t.metrics ~verb ~ok:(Protocol.response_ok resp)
    ~latency_ns:(now_ns () - t0);
  Metrics.decr_inflight t.metrics;
  resp

(* -- connection loop -------------------------------------------------------- *)

(* a signal landing mid-write (EINTR) or a full send buffer on a
   non-blocking socket (EAGAIN/EWOULDBLOCK) must not abandon the rest of
   the response — retry, waiting for writability first in the EAGAIN
   case, exactly as the read path retries.  Any other error (EPIPE from
   a vanished client) still escapes and tears down the connection. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (try ignore (Unix.select [] [ fd ] [] 0.25)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
  in
  go 0

let handle_conn t fd =
  (* short read timeout so an idle connection notices the stop flag *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25 with _ -> ());
  (* byte queue with an explicit consume offset: chunks append to the
     buffer, line extraction scans only bytes not yet examined, and the
     consumed prefix is dropped once it passes a threshold — each byte
     is appended, scanned and copied O(1) times, where re-building the
     buffer per line made a large pipelined batch quadratic *)
  let pending = Buffer.create 1024 in
  let off = ref 0 (* start of the unconsumed region *)
  and scanned = ref 0 (* invariant: no '\n' in [!off, !scanned) *) in
  let take_line () =
    let len = Buffer.length pending in
    let i = ref (max !off !scanned) in
    while !i < len && Buffer.nth pending !i <> '\n' do incr i done;
    scanned := !i;
    if !i >= len then None
    else
      let line = Buffer.sub pending !off (!i - !off) in
      off := !i + 1;
      scanned := !off;
      (if !off = len then (
         Buffer.clear pending;
         off := 0;
         scanned := 0)
       else if !off > 65536 then (
         let rest = Buffer.sub pending !off (len - !off) in
         Buffer.clear pending;
         Buffer.add_string pending rest;
         off := 0;
         scanned := 0));
      Some line
  in
  let chunk = Bytes.create 4096 in
  let rec read_line () =
    match take_line () with
    | Some line -> Some line
    | None ->
        if Atomic.get t.stop_flag then None
        else (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              read_line ()
          | exception Unix.Unix_error (_, _, _) -> None
          | 0 -> None (* EOF; a partial pending line is a dropped request *)
          | n ->
              Buffer.add_subbytes pending chunk 0 n;
              read_line ())
  in
  let rec loop () =
    match read_line () with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
        let resp = serve_line t line in
        (* the client may be gone by now (disconnect mid-request): the
           write fails with EPIPE (SIGPIPE is ignored) and only this
           connection dies *)
        write_all fd (Json.to_string resp ^ "\n");
        if Atomic.get t.stop_flag then () else loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with _ -> ()

(* low-latency responses on the TCP transport: NDJSON lines are tiny,
   so Nagle would batch them behind the previous ack *)
let tune_accepted fd =
  try
    match Unix.getpeername fd with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
    | _ -> ()
  with _ -> ()

let worker_loop t =
  let fds = listen_fds t.listener in
  (* select, not bare accept: one loop watches both transports, and the
     timeout doubles as the stop-flag poll (no wakeup hack needed) *)
  let rec go () =
    if Atomic.get t.stop_flag then ()
    else
      match Unix.select fds [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> () (* listener closed: stopping *)
      | ready, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept lfd with
              | exception
                  Unix.Unix_error
                    ( ( Unix.ECONNABORTED | Unix.EINTR | Unix.EAGAIN
                      | Unix.EWOULDBLOCK ),
                      _,
                      _ ) ->
                  () (* a sibling worker (or process) won this accept *)
              | exception Unix.Unix_error _ -> ()
              | fd, _ ->
                  if Atomic.get t.stop_flag then (try Unix.close fd with _ -> ())
                  else (
                    log t "connection accepted";
                    tune_accepted fd;
                    handle_conn t fd))
            ready;
          go ()
  in
  go ()

(* -- lifecycle -------------------------------------------------------------- *)

let start ?listener cfg =
  (* a dying client must cost us an EPIPE, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let owns_listener, listener =
    match listener with Some l -> (false, l) | None -> (true, listen cfg)
  in
  let t =
    {
      cfg;
      listener;
      owns_listener;
      cache =
        Cache.create ~capacity:cfg.cache_capacity ~shards:cfg.cache_shards
          ~dir:cfg.cache_dir ();
      metrics = Metrics.create ();
      admission =
        Tmx_runtime.Contention.Admission.create ~limit:cfg.max_inflight;
      stop_flag = Atomic.make false;
      domains = [];
      stop_lock = Mutex.create ();
      cleaned = false;
    }
  in
  t.domains <-
    List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  log t "listening on %s (%d workers)"
    (String.concat ", " (addresses listener))
    (List.length t.domains);
  t

let stop t =
  Mutex.lock t.stop_lock;
  let first = not t.cleaned in
  t.cleaned <- true;
  Mutex.unlock t.stop_lock;
  if first then (
    Atomic.set t.stop_flag true;
    (* workers poll the flag from the select/read timeouts; no wakeup
       connection needed *)
    List.iter Domain.join t.domains;
    Cache.close t.cache;
    if t.owns_listener then close_listener t.listener;
    log t "stopped")

let wait t =
  while not (Atomic.get t.stop_flag) do
    Unix.sleepf 0.05
  done;
  stop t
