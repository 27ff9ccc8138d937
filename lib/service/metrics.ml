(* Per-verb request counters and latency histograms, the runtime's
   histogram type, bucket rule and JSON rendering. *)

module Stm = Tmx_runtime.Stm

(* 100us .. 1s, then overflow — enumeration requests span this range *)
let latency_bounds_ns =
  [| 100_000; 1_000_000; 10_000_000; 100_000_000; 1_000_000_000 |]

let verbs = [ "ping"; "check"; "races"; "outcomes"; "lint"; "batch"; "stats" ]

type verb_cell = {
  mutable requests : int;
  mutable errors : int;
  lat_counts : int array;
}

type t = {
  lock : Mutex.t;
  cells : (string * verb_cell) list;  (* verbs @ ["other"], fixed *)
  mutable deadlines : int;
  in_flight : int Atomic.t;
  sheds : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    cells =
      List.map
        (fun v ->
          ( v,
            {
              requests = 0;
              errors = 0;
              lat_counts = Array.make (Array.length latency_bounds_ns + 1) 0;
            } ))
        (verbs @ [ "other" ]);
    deadlines = 0;
    in_flight = Atomic.make 0;
    sheds = Atomic.make 0;
  }

let cell t verb =
  match List.assoc_opt verb t.cells with
  | Some c -> c
  | None -> List.assoc "other" t.cells

let record t ~verb ~ok ~latency_ns =
  Mutex.lock t.lock;
  let c = cell t verb in
  c.requests <- c.requests + 1;
  if not ok then c.errors <- c.errors + 1;
  let b = Stm.bucket latency_bounds_ns latency_ns in
  c.lat_counts.(b) <- c.lat_counts.(b) + 1;
  Mutex.unlock t.lock

let deadline_exceeded t =
  Mutex.lock t.lock;
  t.deadlines <- t.deadlines + 1;
  Mutex.unlock t.lock

let incr_inflight t = Atomic.incr t.in_flight
let decr_inflight t = Atomic.decr t.in_flight
let inflight t = Atomic.get t.in_flight
let shed t = Atomic.incr t.sheds

type verb_stats = { requests : int; errors : int; latency_ns : Stm.histogram }

type snapshot = {
  per_verb : (string * verb_stats) list;
  total_requests : int;
  total_errors : int;
  deadlines_exceeded : int;
  sheds : int;
  queue_depth : int;
}

let snapshot t =
  Mutex.lock t.lock;
  let per_verb =
    List.map
      (fun (v, (c : verb_cell)) ->
        ( v,
          {
            requests = c.requests;
            errors = c.errors;
            latency_ns =
              { Stm.bounds = latency_bounds_ns; counts = Array.copy c.lat_counts };
          } ))
      t.cells
  in
  let snap =
    {
      per_verb;
      total_requests =
        List.fold_left (fun acc (_, s) -> acc + s.requests) 0 per_verb;
      total_errors = List.fold_left (fun acc (_, s) -> acc + s.errors) 0 per_verb;
      deadlines_exceeded = t.deadlines;
      sheds = Atomic.get t.sheds;
      queue_depth = Atomic.get t.in_flight;
    }
  in
  Mutex.unlock t.lock;
  snap

let snapshot_to_json s =
  Json.Obj
    [
      ("requests", Json.int s.total_requests);
      ("errors", Json.int s.total_errors);
      ("deadlines_exceeded", Json.int s.deadlines_exceeded);
      ("sheds", Json.int s.sheds);
      ("queue_depth", Json.int s.queue_depth);
      ( "verbs",
        Json.Obj
          (List.filter_map
             (fun (v, (st : verb_stats)) ->
               if st.requests = 0 then None
               else
                 Some
                   ( v,
                     Json.Obj
                       [
                         ("requests", Json.int st.requests);
                         ("errors", Json.int st.errors);
                         ("latency_ns", Stm.histogram_to_json st.latency_ns);
                       ] ))
             s.per_verb) );
    ]
