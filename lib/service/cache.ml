(* Content-addressed verdict cache: one JSON file per key, atomic
   write-then-rename persistence, a mutex-guarded LRU front shared
   across domains, and corruption-tolerant loads (any failure to read
   an entry is a miss, never a crash).

   The store can be sharded by digest prefix: with [shards = n > 1] a
   key's entry lives in dir/shard-XX/ where XX is the key's first two
   hex digits reduced mod n, and each shard carries its own lock, LRU
   front and counters.  Shared-nothing by construction — no two shards
   ever touch the same file, so shard damage (corruption, deletion, a
   full disk partition) is contained, and concurrent domains touching
   different shards never contend on a lock.  Cross-process writers
   were already safe via write-then-rename; per-shard locking only
   narrows the in-process critical sections. *)

open Tmx_core
open Tmx_lang
open Tmx_exec

type verdict = {
  result : Enumerate.result;
  races : (int * int) list array;
  mixed : bool array;
  lint_race_free : bool;
  lint_findings : int;
  lint_mixed : int;
}

(* -- the miss path ---------------------------------------------------------- *)

let compute ~config model program =
  let result = Enumerate.run ~config model program in
  let n = List.length result.executions in
  let races = Array.make n [] in
  let mixed = Array.make n false in
  List.iteri
    (fun i (e : Enumerate.execution) ->
      races.(i) <- Race.races e.trace (Hb.compute model (Lift.make e.trace));
      mixed.(i) <- List.exists (Race.is_mixed e.trace) races.(i))
    result.executions;
  let lint = Tmx_analysis.Lint.lint program in
  {
    result = { result with races = Some races };
    races;
    mixed;
    lint_race_free = Tmx_analysis.Lint.race_free lint;
    lint_findings = List.length lint.findings;
    lint_mixed = Tmx_analysis.Lint.mixed_count lint;
  }

(* -- serialization ---------------------------------------------------------- *)

let format_version = "tmx-cache-1"

let json_of_rat r = Json.str (Rat.to_string r)

let rat_of_json j =
  match Json.to_str j with
  | None -> None
  | Some s -> (
      match String.index_opt s '/' with
      | None -> Option.map Rat.of_int (int_of_string_opt s)
      | Some i -> (
          match
            ( int_of_string_opt (String.sub s 0 i),
              int_of_string_opt
                (String.sub s (i + 1) (String.length s - i - 1)) )
          with
          | Some num, Some den when den <> 0 -> Some (Rat.make num den)
          | _ -> None))

let json_of_event (e : Action.event) =
  let t = Json.int e.thread in
  match e.act with
  | Action.Write { loc; value; ts } ->
      Json.Arr [ t; Json.str "W"; Json.str loc; Json.int value; json_of_rat ts ]
  | Action.Read { loc; value; ts } ->
      Json.Arr [ t; Json.str "R"; Json.str loc; Json.int value; json_of_rat ts ]
  | Action.Begin -> Json.Arr [ t; Json.str "B" ]
  | Action.Commit -> Json.Arr [ t; Json.str "C" ]
  | Action.Abort -> Json.Arr [ t; Json.str "A" ]
  | Action.Qfence loc -> Json.Arr [ t; Json.str "Q"; Json.str loc ]

exception Malformed

let get = function Some v -> v | None -> raise Malformed

let event_of_json j : Action.event =
  match Json.to_list j with
  | Some (t :: Json.Str tag :: rest) -> (
      let thread = get (Json.to_int t) in
      match (tag, rest) with
      | "W", [ loc; value; ts ] ->
          {
            thread;
            act =
              Action.Write
                {
                  loc = get (Json.to_str loc);
                  value = get (Json.to_int value);
                  ts = get (rat_of_json ts);
                };
          }
      | "R", [ loc; value; ts ] ->
          {
            thread;
            act =
              Action.Read
                {
                  loc = get (Json.to_str loc);
                  value = get (Json.to_int value);
                  ts = get (rat_of_json ts);
                };
          }
      | "B", [] -> { thread; act = Action.Begin }
      | "C", [] -> { thread; act = Action.Commit }
      | "A", [] -> { thread; act = Action.Abort }
      | "Q", [ loc ] -> { thread; act = Action.Qfence (get (Json.to_str loc)) }
      | _ -> raise Malformed)
  | _ -> raise Malformed

let json_of_bindings bs =
  Json.Arr (List.map (fun (k, v) -> Json.Arr [ Json.str k; Json.int v ]) bs)

let bindings_of_json j =
  List.map
    (fun pair ->
      match Json.to_list pair with
      | Some [ k; v ] -> (get (Json.to_str k), get (Json.to_int v))
      | _ -> raise Malformed)
    (get (Json.to_list j))

let json_of_outcome (o : Outcome.t) =
  Json.Obj
    [
      ("regs", Json.Arr (Array.to_list (Array.map json_of_bindings o.regs)));
      ("mem", json_of_bindings o.mem);
    ]

let outcome_of_json j : Outcome.t =
  {
    regs =
      Array.of_list
        (List.map bindings_of_json (get (Json.to_list (get (Json.mem "regs" j)))));
    mem = bindings_of_json (get (Json.mem "mem" j));
  }

let json_of_execution (e : Enumerate.execution) races mixed =
  Json.Obj
    [
      ( "locs",
        Json.Arr (List.map (fun l -> Json.str l) (Trace.locs e.trace)) );
      ( "events",
        Json.Arr
          (Array.to_list (Array.map json_of_event (Trace.events e.trace))) );
      ("outcome", json_of_outcome e.outcome);
      ( "races",
        Json.Arr
          (List.map (fun (a, b) -> Json.Arr [ Json.int a; Json.int b ]) races)
      );
      ("mixed", Json.bool mixed);
    ]

let execution_of_json j =
  let locs =
    List.map
      (fun l -> get (Json.to_str l))
      (get (Json.to_list (get (Json.mem "locs" j))))
  in
  let events =
    List.map event_of_json (get (Json.to_list (get (Json.mem "events" j))))
  in
  (* [Trace.events] includes the WF1 initializing transaction, so the
     raw [of_events] rebuilds the trace exactly *)
  let trace = Trace.of_events ~locs events in
  let outcome = outcome_of_json (get (Json.mem "outcome" j)) in
  let races =
    List.map
      (fun pair ->
        match Json.to_list pair with
        | Some [ a; b ] -> (get (Json.to_int a), get (Json.to_int b))
        | _ -> raise Malformed)
      (get (Json.to_list (get (Json.mem "races" j))))
  in
  let mixed = get (Json.to_bool (get (Json.mem "mixed" j))) in
  ((({ trace; outcome } : Enumerate.execution), races), mixed)

let json_of_verdict ~version ~model_name ~config_key v =
  Json.Obj
    [
      ("format", Json.str version);
      ("model", Json.str model_name);
      ("config", Json.str config_key);
      ("truncated", Json.bool v.result.truncated);
      ("capped", Json.bool v.result.capped);
      ("graphs", Json.int v.result.graphs);
      ("explored", Json.int v.result.explored);
      ( "lint",
        Json.Obj
          [
            ("race_free", Json.bool v.lint_race_free);
            ("findings", Json.int v.lint_findings);
            ("mixed", Json.int v.lint_mixed);
          ] );
      ( "executions",
        Json.Arr
          (List.mapi
             (fun i e -> json_of_execution e v.races.(i) v.mixed.(i))
             v.result.executions) );
    ]

let verdict_of_json j =
  let parsed =
    List.map execution_of_json (get (Json.to_list (get (Json.mem "executions" j))))
  in
  let races = Array.of_list (List.map (fun ((_, r), _) -> r) parsed) in
  let lint = get (Json.mem "lint" j) in
  {
    result =
      {
        executions = List.map (fun ((e, _), _) -> e) parsed;
        truncated = get (Json.to_bool (get (Json.mem "truncated" j)));
        capped = get (Json.to_bool (get (Json.mem "capped" j)));
        graphs = get (Json.to_int (get (Json.mem "graphs" j)));
        (* absent in pre-reduction cache files: those were written by
           the unreduced enumerator, where explored = graphs *)
        explored =
          (match Json.mem "explored" j with
          | Some x -> get (Json.to_int x)
          | None -> get (Json.to_int (get (Json.mem "graphs" j))));
        races = Some races;
      };
    races;
    mixed = Array.of_list (List.map (fun (_, m) -> m) parsed);
    lint_race_free = get (Json.to_bool (get (Json.mem "race_free" lint)));
    lint_findings = get (Json.to_int (get (Json.mem "findings" lint)));
    lint_mixed = get (Json.to_int (get (Json.mem "mixed" lint)));
  }

(* -- the store -------------------------------------------------------------- *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  load_failures : int;
}

type shard = {
  lock : Mutex.t;
  lru : (string, verdict * int ref) Hashtbl.t;
  tick : int ref;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable st_stores : int;
  mutable evictions : int;
  mutable load_failures : int;
}

type t = {
  cache_dir : string;
  version : string;
  shards : shard array;
}

(* first two hex digits of the (MD5-hex) key pick the shard: enough
   prefix for 256-way spread, and short enough that every digest the
   digester can produce carries it *)
let prefix_len = 2

let default_dir () =
  match Sys.getenv_opt "TMX_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> ".tmx-cache"

(* shard processes create the same directories at the same time:
   losing that race to a sibling is success *)
let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let shard_dir_name i = Printf.sprintf "shard-%02d" i

let create ?(version = format_version) ?(capacity = 128) ?(shards = 1) ~dir () =
  let shards = max 1 shards in
  ensure_dir dir;
  if shards > 1 then
    for i = 0 to shards - 1 do
      ensure_dir (Filename.concat dir (shard_dir_name i))
    done;
  (* the total LRU budget is split across the shards (at least one
     entry each), so capacity keeps its meaning under sharding *)
  let per_shard = max 1 (capacity / shards) in
  {
    cache_dir = dir;
    version;
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            lru = Hashtbl.create 64;
            tick = ref 0;
            capacity = per_shard;
            hits = 0;
            misses = 0;
            st_stores = 0;
            evictions = 0;
            load_failures = 0;
          });
  }

let dir t = t.cache_dir
let shard_count t = Array.length t.shards

let key t ~config model (program : Ast.program) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Canon.structural program;
            model.Model.name;
            Enumerate.config_key config;
            t.version;
          ]))

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Cache: non-hex digest character %C" c)

(* A digest shorter than the shard prefix cannot be placed (truncated
   keys would silently alias into shard 0 and shadow each other), so it
   is a caller bug worth an exception rather than a miss. *)
let shard_index t k =
  if String.length k < prefix_len then
    invalid_arg
      (Printf.sprintf "Cache: digest %S shorter than the %d-char shard prefix"
         k prefix_len);
  ((hex_digit k.[0] * 16) + hex_digit k.[1]) mod Array.length t.shards

let shard_of_key t k = t.shards.(shard_index t k)

let entry_path t k =
  let i = shard_index t k in
  if Array.length t.shards = 1 then Filename.concat t.cache_dir (k ^ ".json")
  else Filename.concat (Filename.concat t.cache_dir (shard_dir_name i)) (k ^ ".json")

let locked (s : shard) f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* caller holds the shard lock *)
let lru_insert (s : shard) k v =
  (if (not (Hashtbl.mem s.lru k)) && Hashtbl.length s.lru >= s.capacity then
     (* evict the least recently used; capacity is small, a scan is fine *)
     let victim = ref None in
     Hashtbl.iter
       (fun k (_, tick) ->
         match !victim with
         | Some (_, best) when best <= !tick -> ()
         | _ -> victim := Some (k, !tick))
       s.lru;
     match !victim with
     | Some (k, _) ->
         Hashtbl.remove s.lru k;
         s.evictions <- s.evictions + 1
     | None -> ());
  incr s.tick;
  Hashtbl.replace s.lru k (v, ref !(s.tick))

(* An entry's text, or [None] when there is no entry.  The open is the
   existence test: a stat before it would cost every lookup a system
   call, and an entry removed in between (by a concurrent [tmx cache gc]
   or [clear]) would count as a load failure instead of a miss.  Any
   other failure raises. *)
let read_entry path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Everything that can go wrong reading an entry — absent, torn,
   garbage, wrong shape, another version — lands in one of the four
   constructors; no exception escapes. *)
let decode ~version path =
  match read_entry path with
  | exception _ -> `Corrupt
  | None -> `Absent
  | Some text -> (
      match Json.of_string text with
      | exception _ -> `Corrupt
      | Error _ -> `Corrupt
      | Ok j -> (
          match Json.to_str (Option.value ~default:Json.Null (Json.mem "format" j)) with
          | Some v when v = version -> (
              match verdict_of_json j with
              | v -> `Found v
              | exception _ -> `Corrupt)
          | Some _ -> `Stale
          | None -> `Corrupt))

let find_key t k =
  let s = shard_of_key t k in
  let in_lru =
    locked s (fun () ->
        match Hashtbl.find_opt s.lru k with
        | Some (v, tick) ->
            incr s.tick;
            tick := !(s.tick);
            s.hits <- s.hits + 1;
            Some v
        | None -> None)
  in
  match in_lru with
  | Some v -> Some v
  | None -> (
      (* disk I/O outside the lock; a racing duplicate load is benign *)
      match decode ~version:t.version (entry_path t k) with
      | `Found v ->
          locked s (fun () ->
              s.hits <- s.hits + 1;
              lru_insert s k v);
          Some v
      | `Absent ->
          locked s (fun () -> s.misses <- s.misses + 1);
          None
      | `Stale | `Corrupt ->
          locked s (fun () ->
              s.misses <- s.misses + 1;
              s.load_failures <- s.load_failures + 1);
          None)

let find t ~config model program = find_key t (key t ~config model program)

let tmp_counter = Atomic.make 0

let store_key t ~config model k v =
  let s = shard_of_key t k in
  let path = entry_path t k in
  let body =
    Json.to_string
      (json_of_verdict ~version:t.version
         ~model_name:model.Model.name
         ~config_key:(Enumerate.config_key config)
         v)
  in
  (* the temp file lives in the entry's own shard directory so the
     rename stays within one filesystem directory (atomic everywhere) *)
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp-%s-%d-%d" k (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc body;
     close_out oc;
     Unix.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with _ -> ());
     raise e);
  locked s (fun () ->
      s.st_stores <- s.st_stores + 1;
      lru_insert s k v)

let store t ~config model program v =
  store_key t ~config model (key t ~config model program) v

(* one key per lookup: a miss stores under the key it missed *)
let memo t ~config model program =
  let k = key t ~config model program in
  match find_key t k with
  | Some v -> (v, `Hit)
  | None ->
      let v = compute ~config model program in
      store_key t ~config model k v;
      (v, `Miss)

let memo_run t ~config model program =
  (fst (memo t ~config model program)).result

let stats t =
  Array.fold_left
    (fun (acc : stats) s ->
      locked s (fun () ->
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            stores = acc.stores + s.st_stores;
            evictions = acc.evictions + s.evictions;
            load_failures = acc.load_failures + s.load_failures;
          }))
    { hits = 0; misses = 0; stores = 0; evictions = 0; load_failures = 0 }
    t.shards

let resident t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.lru))
    0 t.shards

(* -- maintenance ------------------------------------------------------------ *)

type disk_stats = {
  entries : int;
  bytes : int;
  current : int;
  stale : int;
  corrupt : int;
}

(* maintenance walks the flat layout and any shard-XX/ subdirectories
   in one pass, so one `tmx cache gc` serves both layouts *)
let entry_files dir =
  if not (Sys.file_exists dir) then []
  else
    let entries_in d =
      if not (Sys.file_exists d) then []
      else
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (Filename.concat d)
    in
    let shard_dirs =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "shard-"
             && Sys.is_directory (Filename.concat dir f))
      |> List.map (Filename.concat dir)
    in
    List.concat_map entries_in (dir :: shard_dirs) |> List.sort String.compare

(* an entry listed but gone by the time it is read counts as corrupt *)
let classify ~version path =
  match decode ~version path with
  | `Found _ -> `Current
  | `Stale -> `Stale
  | `Absent | `Corrupt -> `Corrupt

let disk_stats ?(version = format_version) ~dir () =
  List.fold_left
    (fun acc path ->
      let size = try (Unix.stat path).Unix.st_size with _ -> 0 in
      let acc = { acc with entries = acc.entries + 1; bytes = acc.bytes + size } in
      match classify ~version path with
      | `Current -> { acc with current = acc.current + 1 }
      | `Stale -> { acc with stale = acc.stale + 1 }
      | `Corrupt -> { acc with corrupt = acc.corrupt + 1 })
    { entries = 0; bytes = 0; current = 0; stale = 0; corrupt = 0 }
    (entry_files dir)

let gc ?(version = format_version) ~dir () =
  List.fold_left
    (fun removed path ->
      match classify ~version path with
      | `Current -> removed
      | `Stale | `Corrupt -> (
          try
            Sys.remove path;
            removed + 1
          with _ -> removed))
    0 (entry_files dir)

let clear ~dir =
  List.fold_left
    (fun removed path ->
      try
        Sys.remove path;
        removed + 1
      with _ -> removed)
    0 (entry_files dir)
