(* Spans and counts recorded by the benchmark around its calls into each
   layer.  Off by default: a disabled [span] is one branch.  When on,
   every domain records into its own state (no locks on the hot path);
   span records are kept in memory up to [max_records] per domain and
   written at exit as Chrome trace-event JSON, while the per-name
   aggregates (count, inclusive and self time, sampled durations) cover
   every span.

   A span's name is "<layer>.<operation>"; the layer is the prefix
   before the first dot.  Self time is the span's duration minus the
   time covered by its child spans on the same domain. *)

let now_ns = Tmx_runtime.Clock.now_ns

(* Duration samples with bounded memory: when the buffer is full, every
   other sample is dropped and the sampling stride doubles, so the kept
   samples stay spread evenly over the whole run. *)
module Samples = struct
  type t = {
    mutable buf : int array;
    mutable n : int;
    mutable stride : int;
    mutable skip : int;
  }

  let cap = 1 lsl 16
  let create () = { buf = Array.make 256 0; n = 0; stride = 1; skip = 0 }

  let add t v =
    if t.skip > 0 then t.skip <- t.skip - 1
    else (
      if t.n = Array.length t.buf then
        if t.n < cap then (
          let b = Array.make (2 * t.n) 0 in
          Array.blit t.buf 0 b 0 t.n;
          t.buf <- b)
        else (
          let m = t.n / 2 in
          for i = 0 to m - 1 do
            t.buf.(i) <- t.buf.(2 * i)
          done;
          t.n <- m;
          t.stride <- 2 * t.stride);
      t.buf.(t.n) <- v;
      t.n <- t.n + 1;
      t.skip <- t.stride - 1)

  let to_array t = Array.sub t.buf 0 t.n
end

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  samples : Samples.t;
}

type record = {
  r_name : string;
  r_id : string;
  r_sid : int;
  r_parent : int;
  r_start : int;
  r_stop : int;
}

type frame = { f_sid : int; mutable child_ns : int }

type dstate = {
  tid : int;
  mutable next : int;
  mutable stack : frame list;
  mutable records : record list;
  mutable nrecords : int;
  mutable dropped : int;
  mutable root_ns : int;  (** summed duration of this domain's root spans *)
  aggs : (string, agg) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
}

let max_records = 200_000
let on = ref false
let origin = ref 0
let states : dstate list ref = ref []
let states_lock = Mutex.create ()
let tids = Atomic.make 0

(* Tracing is switched on and off between measured phases, never while
   another domain is inside a span. *)
let set_enabled b =
  if b && !origin = 0 then origin := now_ns ();
  on := b

let enabled () = !on

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          tid = Atomic.fetch_and_add tids 1;
          next = 0;
          stack = [];
          records = [];
          nrecords = 0;
          dropped = 0;
          root_ns = 0;
          aggs = Hashtbl.create 64;
          counts = Hashtbl.create 16;
        }
      in
      Mutex.lock states_lock;
      states := st :: !states;
      Mutex.unlock states_lock;
      st)

let fresh_sid st =
  st.next <- st.next + 1;
  (st.tid lsl 40) lor st.next

let agg st name =
  match Hashtbl.find_opt st.aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; self_ns = 0; samples = Samples.create () } in
      Hashtbl.add st.aggs name a;
      a

let keep st r =
  if st.nrecords < max_records then (
    st.records <- r :: st.records;
    st.nrecords <- st.nrecords + 1)
  else st.dropped <- st.dropped + 1

let note st name ~dur ~self =
  let a = agg st name in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + self;
  Samples.add a.samples dur

(* [span_as name_of f]: a span whose name is decided by [f]'s result
   (a cache lookup is a hit or a miss only once it returns). *)
let span_as ?(id = "") name_of f =
  if not !on then f ()
  else
    let st = Domain.DLS.get key in
    let sid = fresh_sid st in
    let parent = match st.stack with p :: _ -> p.f_sid | [] -> 0 in
    let fr = { f_sid = sid; child_ns = 0 } in
    st.stack <- fr :: st.stack;
    let t0 = now_ns () in
    let finish name =
      let t1 = now_ns () in
      st.stack <- List.tl st.stack;
      let dur = t1 - t0 in
      (match st.stack with
      | p :: _ -> p.child_ns <- p.child_ns + dur
      | [] -> st.root_ns <- st.root_ns + dur);
      note st name ~dur ~self:(dur - fr.child_ns);
      keep st
        {
          r_name = name;
          r_id = id;
          r_sid = sid;
          r_parent = parent;
          r_start = t0;
          r_stop = t1;
        }
    in
    match f () with
    | v ->
        finish (name_of (Ok v));
        v
    | exception e ->
        finish (name_of (Error e));
        raise e

let span ?id name f = span_as ?id (fun _ -> name) f

let count name n =
  if !on then
    let st = Domain.DLS.get key in
    match Hashtbl.find_opt st.counts name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add st.counts name (ref n)

(* -- reading the trace back ------------------------------------------------ *)

let all_states () =
  Mutex.lock states_lock;
  let s = !states in
  Mutex.unlock states_lock;
  s

(* Merged aggregate of one span name over every domain. *)
let stats name =
  List.fold_left
    (fun acc st ->
      match Hashtbl.find_opt st.aggs name with
      | None -> acc
      | Some a ->
          let c, tot, self, samples = acc in
          ( c + a.count,
            tot + a.total_ns,
            self + a.self_ns,
            Samples.to_array a.samples :: samples ))
    (0, 0, 0, []) (all_states ())
  |> fun (c, tot, self, samples) -> (c, tot, self, Array.concat samples)

let count_of name =
  List.fold_left
    (fun acc st ->
      match Hashtbl.find_opt st.counts name with Some r -> acc + !r | None -> acc)
    0 (all_states ())

(* Summed root-span time of every domain: the part of the traced wall
   time that some layer accounts for. *)
let root_ns () = List.fold_left (fun acc st -> acc + st.root_ns) 0 (all_states ())

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* (layer, self ns, spans) for every layer, plus counts. *)
let layers () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name a ->
          let l = layer_of name in
          let self, n = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl l) in
          Hashtbl.replace tbl l (self + a.self_ns, n + a.count))
        st.aggs)
    (all_states ());
  List.sort compare (Hashtbl.fold (fun l (s, n) acc -> (l, s, n) :: acc) tbl [])

let counts () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name r ->
          Hashtbl.replace tbl name
            (!r + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
        st.counts)
    (all_states ());
  List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) tbl [])

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (opens in Perfetto): every span is a complete
   event on its domain's track. *)
let write_chrome path =
  let oc = open_out_bin path in
  let us ns = float_of_int (ns - !origin) /. 1000. in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  let dropped = ref 0 in
  List.iter
    (fun st ->
      dropped := !dropped + st.dropped;
      List.iter
        (fun r ->
          let args =
            Printf.sprintf "{\"id\":%s,\"span\":%d,\"parent\":%d}" (json_string r.r_id)
              r.r_sid r.r_parent
          in
          emit
            (Printf.sprintf
               "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":%s}"
               (json_string r.r_name)
               (json_string (layer_of r.r_name))
               (us r.r_start)
               (float_of_int (r.r_stop - r.r_start) /. 1000.)
               st.tid args))
        (List.rev st.records))
    (all_states ());
  output_string oc "\n]}\n";
  close_out oc;
  !dropped
