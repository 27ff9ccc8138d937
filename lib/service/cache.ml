(* Content-addressed verdict cache: one append-only log of records per
   shard, an in-memory index from each key to its newest record, a
   mutex-guarded LRU front shared across domains, and
   corruption-tolerant loads (any failure to read a record is a miss,
   never a crash).

   The store can be sharded by digest prefix: with [shards = n > 1] a
   key's record lives in dir/shard-XX/entries.log, where XX is the
   key's first two hex digits reduced mod n, and each shard carries its
   own lock, log, index, LRU front and counters, so damage to one log
   is contained.  Appends to any shard also take one process-wide mutex
   (see [log_mutex]).  Processes sharing a directory append to the same
   logs under an advisory lock and index each other's records when a
   lookup misses. *)

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

(* One walk: the enumerator takes each execution's races from the hb it
   already holds when it judges the execution. *)
let compute ~config model program =
  let result = Enumerate.run ~config ~races:true model program in
  let races = Option.get result.races in
  let mixed =
    Array.of_list
      (List.mapi
         (fun i (e : Enumerate.execution) -> List.exists (Race.is_mixed e.trace) races.(i))
         result.executions)
  in
  let lint = Tmx_analysis.Lint.lint program in
  {
    result;
    races;
    mixed;
    lint_race_free = Tmx_analysis.Lint.race_free lint;
    lint_findings = List.length lint.findings;
    lint_mixed = Tmx_analysis.Lint.mixed_count lint;
  }

(* -- serialization ---------------------------------------------------------- *)

(* An entry's executions draw on three tables: the locations, once;
   each distinct event, once, as [thread, tag, ...]; and each distinct
   outcome, once.  An execution is [event indices, outcome index, race
   positions, mixed], its race pairs flattened.  The tables are in
   first-use order, so equal verdicts give byte-identical bodies, and
   decoding builds each table entry once: the reloaded traces share their
   events and the executions their outcomes, as a fresh enumeration's
   do. *)
let format_version = "tmx-cache-3"

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
      | ("W" | "R"), [ loc; value; ts ] ->
          let loc = get (Json.to_str loc)
          and value = get (Json.to_int value)
          and ts = get (rat_of_json ts) in
          {
            thread;
            act =
              (if tag = "W" then Action.Write { loc; value; ts }
               else Action.Read { loc; value; ts });
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

(* A table of distinct values, numbered in first-use order: [number]
   gives a value its index, appending it on its first use. *)
type 'a table = { ids : ('a, int) Hashtbl.t; mutable rows : 'a list }

let table () = { ids = Hashtbl.create 64; rows = [] }

let number tbl x =
  match Hashtbl.find_opt tbl.ids x with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl.ids in
      Hashtbl.add tbl.ids x i;
      tbl.rows <- x :: tbl.rows;
      i

let json_of_table f tbl = Json.Arr (List.rev_map f tbl.rows)

let json_of_verdict ~version ~model_name ~config_key v =
  let locs =
    match v.result.executions with [] -> [] | e :: _ -> Trace.locs e.trace
  in
  let events = table () and outcomes = table () in
  let execution i (e : Enumerate.execution) =
    if not (Trace.locs e.trace == locs || List.equal String.equal (Trace.locs e.trace) locs)
    then invalid_arg "Cache.store: executions over different locations";
    Json.Arr
      [
        Json.Arr
          (Array.to_list
             (Array.map (fun ev -> Json.int (number events ev)) (Trace.events e.trace)));
        Json.int (number outcomes e.outcome);
        Json.Arr
          (List.concat_map (fun (a, b) -> [ Json.int a; Json.int b ]) v.races.(i));
        Json.bool v.mixed.(i);
      ]
  in
  let executions = List.mapi execution v.result.executions in
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
      ("locs", Json.Arr (List.map Json.str locs));
      ("events", json_of_table json_of_event events);
      ("outcomes", json_of_table json_of_outcome outcomes);
      ("executions", Json.Arr executions);
    ]

let array_of_json f j = Array.of_list (List.map f (get (Json.to_list j)))

(* [tbl.(i)] for the int [j] = [i]; any other [j] is malformed *)
let entry tbl j =
  match Json.to_int j with
  | Some i when i >= 0 && i < Array.length tbl -> tbl.(i)
  | _ -> raise Malformed

let verdict_of_json j =
  let field k = get (Json.mem k j) in
  let locs = List.map (fun l -> get (Json.to_str l)) (get (Json.to_list (field "locs"))) in
  let events = array_of_json event_of_json (field "events") in
  let outcomes = array_of_json outcome_of_json (field "outcomes") in
  let execution j =
    match Json.to_list j with
    | Some [ evs; outcome; races; mixed ] ->
        (* the events include the WF1 initializing transaction, so the
           raw [of_array] rebuilds the trace exactly *)
        let trace = Trace.of_array ~locs (array_of_json (entry events) evs) in
        let position j =
          let p = get (Json.to_int j) in
          if p < 0 || p >= Trace.length trace then raise Malformed;
          p
        in
        let rec pairs = function
          | [] -> []
          | a :: b :: rest -> (position a, position b) :: pairs rest
          | [ _ ] -> raise Malformed
        in
        ( ({ trace; outcome = entry outcomes outcome } : Enumerate.execution),
          pairs (get (Json.to_list races)),
          get (Json.to_bool mixed) )
    | _ -> raise Malformed
  in
  let parsed = List.map execution (get (Json.to_list (field "executions"))) in
  let races = Array.of_list (List.map (fun (_, r, _) -> r) parsed) in
  let lint = field "lint" in
  {
    result =
      {
        executions = List.map (fun (e, _, _) -> e) parsed;
        truncated = get (Json.to_bool (field "truncated"));
        capped = get (Json.to_bool (field "capped"));
        graphs = get (Json.to_int (field "graphs"));
        explored = get (Json.to_int (field "explored"));
        races = Some races;
      };
    races;
    mixed = Array.of_list (List.map (fun (_, _, m) -> m) parsed);
    lint_race_free = get (Json.to_bool (get (Json.mem "race_free" lint)));
    lint_findings = get (Json.to_int (get (Json.mem "findings" lint)));
    lint_mixed = get (Json.to_int (get (Json.mem "mixed" lint)));
  }

(* -- the log ---------------------------------------------------------------- *)

(* A record is one line: "\n" key TAB md5(body) TAB body "\n", the body
   being the entry's JSON, which [Json.to_string] prints without a
   control character.  The leading newline ends any torn line a crashed
   writer left behind, which then fails to parse or fails its checksum.
   The body's "format" field says which version wrote it. *)
let log_name = "entries.log"
let hex_len = 32 (* a key, and a checksum, in hex *)

let record_text ~key ~md5 body =
  String.concat "" [ "\n"; key; "\t"; Digest.to_hex md5; "\t"; body; "\n" ]

(* Where a record's body lies in its log, and the checksum the record
   gives for it. *)
type slot = { off : int; len : int; md5 : Digest.t }

(* The record held by the line at [line] in the log, of which [buf] has
   the [avail] bytes from [i]; [None] when it is not one. *)
let parse_line buf i ~avail ~line =
  let k1 = i + hex_len in
  let k2 = k1 + 1 + hex_len in
  if avail <= k2 - i || Bytes.get buf k1 <> '\t' || Bytes.get buf k2 <> '\t' then None
  else
    match Digest.from_hex (Bytes.sub_string buf (k1 + 1) hex_len) with
    | exception Invalid_argument _ -> None
    | md5 ->
        let body = k2 + 1 - i in
        Some (Bytes.sub_string buf i hex_len, { off = line + body; len = avail - body; md5 })

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Up to [len] bytes at [off] into [buf]; fewer only at the end of the
   file. *)
let read_at fd buf off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go got =
    if got = len then got
    else
      match restart (fun () -> Unix.read fd buf got (len - got)) with
      | 0 -> got
      | n -> go (got + n)
  in
  go 0

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go
        (off
        + restart (fun () ->
              Unix.single_write_substring fd s off (String.length s - off)))
  in
  go 0

let chunk_size = 65536

(* The first newline in [buf] from [i] below [n], or [n]: eight bytes
   at a time, a word holding a newline being one whose bytes xor '\n'
   has a zero byte.  A process's first lookup reads its shard's whole
   log through here, which a bytewise search made three times slower. *)
let newline buf i n =
  let rec bytewise i = if i >= n || Bytes.unsafe_get buf i = '\n' then i else bytewise (i + 1) in
  let rec words i =
    if i + 8 > n then bytewise i
    else
      let x = Int64.logxor (Bytes.get_int64_le buf i) 0x0a0a0a0a0a0a0a0aL in
      if Int64.(logand (logand (sub x 0x0101010101010101L) (lognot x)) 0x8080808080808080L) = 0L
      then words (i + 8)
      else bytewise i
  in
  words i

(* Calls [f] on each complete non-empty line of the log open as [fd],
   from [from] (a line start) up to [upto], one chunk at a time, a chunk
   that holds no line end being read again at twice the size: [f (Some
   (key, slot))] for a record, [f None] for anything else.  Returns
   where the first incomplete line starts, or [upto]. *)
let scan fd ~from ~upto f =
  let rec go buf start =
    let want = min (Bytes.length buf) (upto - start) in
    let n = read_at fd buf start want in
    let rec lines i =
      let e = newline buf i n in
      if e = n then i
      else begin
        if e > i then f (parse_line buf i ~avail:(e - i) ~line:(start + i));
        lines (e + 1)
      end
    in
    let i = lines 0 in
    if n < want || start + n = upto then start + i
    else if i = 0 then go (Bytes.create (2 * Bytes.length buf)) start
    else go buf (start + i)
  in
  go (Bytes.create (max 1 (min chunk_size (upto - from)))) from

let inode_of (st : Unix.stats) = (st.st_dev, st.st_ino)

(* [lockf] locks from the current offset *)
let lock_whole fd cmd =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  restart (fun () -> Unix.lockf fd cmd 0)

let unlock fd = try lock_whole fd Unix.F_ULOCK with Unix.Unix_error _ -> ()

let names path inode =
  match Unix.stat path with
  | st -> inode_of st = inode
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

(* Lock the file open as [fd] (of [inode]): [true], holding the lock,
   while [path] still names that file, else [false] with the lock
   released.  A compaction renames a new log over the path, and [clear]
   unlinks it, both holding this lock, so an append made under it lands
   in the live log. *)
let lock_live fd cmd ~path ~inode =
  lock_whole fd cmd;
  match names path inode with
  | true -> true
  | false ->
      unlock fd;
      false
  | exception e ->
      unlock fd;
      raise e

(* A [lockf] lock belongs to the process: it does not exclude the
   process's other domains, and it is released when the process closes
   any descriptor of the file.  So every section of this process that
   locks a log or closes a log's descriptor holds [log_mutex] too. *)
let log_mutex = Mutex.create ()

(* descriptors of caches dropped unclosed, which their finaliser could
   not close because [log_mutex] was taken (possibly by the very code
   the finaliser interrupted): its holder closes them *)
let orphans = Atomic.make []

let close_orphans () =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (Atomic.exchange orphans [])

let with_log_mutex f =
  Mutex.lock log_mutex;
  Fun.protect
    ~finally:(fun () ->
      close_orphans ();
      Mutex.unlock log_mutex)
    f

let rec orphan fd =
  if Mutex.try_lock log_mutex then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    close_orphans ();
    Mutex.unlock log_mutex
  end
  else
    let l = Atomic.get orphans in
    if not (Atomic.compare_and_set orphans l (fd :: l)) then orphan fd

(* -- the store -------------------------------------------------------------- *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  load_failures : int;
}

(* A shard's log descriptor, opened on first use, with its device and
   inode: a box of its own, so that the finaliser which closes a dropped
   cache's descriptor keeps only the box alive, not the shard's LRU. *)
type file = { mutable fd : Unix.file_descr option; mutable inode : int * int }

type shard = {
  lock : Mutex.t;
  log : string;
  file : file;
  index : (string, slot) Hashtbl.t;  (* key -> its newest record in [log] *)
  mutable scanned : int;  (* [index] covers [log] up to here, a line start *)
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
  let shard_dir i =
    if shards = 1 then dir
    else begin
      let d = Filename.concat dir (shard_dir_name i) in
      ensure_dir d;
      d
    end
  in
  (* the total LRU budget is split across the shards (at least one
     entry each), so capacity keeps its meaning under sharding *)
  let per_shard = max 1 (capacity / shards) in
  let shard i =
    let file = { fd = None; inode = (0, 0) } in
    Gc.finalise (fun f -> Option.iter orphan f.fd) file;
    {
      lock = Mutex.create ();
      log = Filename.concat (shard_dir i) log_name;
      file;
      index = Hashtbl.create 64;
      scanned = 0;
      lru = Hashtbl.create 64;
      tick = ref 0;
      capacity = per_shard;
      hits = 0;
      misses = 0;
      st_stores = 0;
      evictions = 0;
      load_failures = 0;
    }
  in
  { cache_dir = dir; version; shards = Array.init shards shard }

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
let entry_path t k = (shard_of_key t k).log

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

(* The functions below up to [find_key] run under the shard lock. *)

(* The shard's log descriptor, opened first if need be; [None] when
   there is no log and [create] is false. *)
let open_log s ~create =
  match s.file.fd with
  | Some _ as fd -> fd
  | None -> (
      let flags = Unix.[ O_RDWR; O_APPEND; O_CLOEXEC ] in
      match Unix.openfile s.log (if create then Unix.O_CREAT :: flags else flags) 0o644 with
      | exception Unix.Unix_error (Unix.ENOENT, _, _) when not create -> None
      | fd -> (
          match Unix.fstat fd with
          | st ->
              s.file.fd <- Some fd;
              s.file.inode <- inode_of st;
              s.file.fd
          | exception e ->
              Unix.close fd;
              raise e))

(* caller also holds [log_mutex] *)
let forget s =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) s.file.fd;
  s.file.fd <- None;
  Hashtbl.reset s.index;
  s.scanned <- 0

(* Index the records the log gained since the last scan (other caches'
   and processes' appends), first reopening it if a compaction replaced
   it or [clear] deleted it. *)
let refresh s =
  (match s.file.fd with
  | Some _ when not (names s.log s.file.inode) -> with_log_mutex (fun () -> forget s)
  | _ -> ());
  match open_log s ~create:false with
  | None -> ()
  | Some fd ->
      let size = (Unix.fstat fd).st_size in
      (* truncated in place: what was indexed may be gone *)
      if size < s.scanned then (Hashtbl.reset s.index; s.scanned <- 0);
      if size > s.scanned then
        s.scanned <-
          scan fd ~from:s.scanned ~upto:size (function
            | Some (k, slot) -> Hashtbl.replace s.index k slot
            | None -> ())

(* The body of [k]'s newest record, read from the log. *)
let lookup s k =
  let read slot =
    let body = Bytes.create slot.len in
    if read_at (Option.get s.file.fd) body slot.off slot.len = slot.len then
      `Record (slot, body)
    else `Failed
  in
  match Hashtbl.find_opt s.index k with
  | Some slot -> read slot
  | None -> (
      refresh s;
      match Hashtbl.find_opt s.index k with Some slot -> read slot | None -> `Absent)

(* Append [record] under the log lock, reopening the log if a compaction
   or [clear] replaced it; the offset it landed at. *)
let append s record =
  with_log_mutex (fun () ->
      let rec go () =
        let fd = Option.get (open_log s ~create:true) in
        if lock_live fd Unix.F_LOCK ~path:s.log ~inode:s.file.inode then
          Fun.protect
            ~finally:(fun () -> unlock fd)
            (fun () ->
              let off = Unix.lseek fd 0 Unix.SEEK_END in
              write_all fd record;
              off)
        else begin
          forget s;
          go ()
        end
      in
      go ())

(* A record's verdict, or why there is none — a checksum mismatch,
   another version, garbage, the wrong shape — and no exception. *)
let decode ~version slot body =
  if not (Digest.equal (Digest.bytes body) slot.md5) then `Corrupt
  else
    match Json.of_string (Bytes.unsafe_to_string body) with
    | exception _ -> `Corrupt
    | Error _ -> `Corrupt
    | Ok j -> (
        match Json.to_str (Option.value ~default:Json.Null (Json.mem "format" j)) with
        | Some v when v = version -> (
            match verdict_of_json j with v -> `Found v | exception _ -> `Corrupt)
        | Some _ -> `Stale
        | None -> `Corrupt)

let find_key t k =
  let s = shard_of_key t k in
  let found =
    locked s (fun () ->
        match Hashtbl.find_opt s.lru k with
        | Some (v, tick) ->
            incr s.tick;
            tick := !(s.tick);
            s.hits <- s.hits + 1;
            `Hit v
        | None -> ( try lookup s k with _ -> `Failed))
  in
  let load_failure () =
    locked s (fun () ->
        s.misses <- s.misses + 1;
        s.load_failures <- s.load_failures + 1);
    None
  in
  match found with
  | `Hit v -> Some v
  | `Absent ->
      locked s (fun () -> s.misses <- s.misses + 1);
      None
  | `Failed -> load_failure ()
  | `Record (slot, body) -> (
      (* the checksum and the decoding outside the lock *)
      match decode ~version:t.version slot body with
      | `Found v ->
          locked s (fun () ->
              s.hits <- s.hits + 1;
              lru_insert s k v);
          Some v
      | `Stale | `Corrupt -> load_failure ())

let find t ~config model program = find_key t (key t ~config model program)

let store_key t ~config model k v =
  let s = shard_of_key t k in
  let body =
    Json.to_string
      (json_of_verdict ~version:t.version
         ~model_name:model.Model.name
         ~config_key:(Enumerate.config_key config)
         v)
  in
  let md5 = Digest.string body in
  let record = record_text ~key:k ~md5 body in
  let len = String.length body in
  locked s (fun () ->
      let off = append s record in
      (* nobody else appended since the last scan: still up to date *)
      if s.scanned = off then s.scanned <- off + String.length record;
      Hashtbl.replace s.index k
        { off = off + String.length record - 1 - len; len; md5 };
      s.st_stores <- s.st_stores + 1;
      lru_insert s k v)

let store t ~config model program v =
  store_key t ~config model (key t ~config model program) v

(* One key per lookup: a miss stores under the key it missed.  A log
   that cannot be opened or written costs the cache the record, not the
   caller the verdict; lookups count that log as a load failure until
   [gc] deletes it. *)
let memo t ~config model program =
  let k = key t ~config model program in
  match find_key t k with
  | Some v -> (v, `Hit)
  | None ->
      let v = compute ~config model program in
      (try store_key t ~config model k v with Unix.Unix_error _ -> ());
      (v, `Miss)

let memo_run t ~config model program =
  (fst (memo t ~config model program)).result

let close t =
  Array.iter (fun s -> locked s (fun () -> with_log_mutex (fun () -> forget s))) t.shards

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
  records : int;
  bytes : int;
  current : int;
  superseded : int;
  stale : int;
  corrupt : int;
}

(* The logs under [dir] (flat and shard-XX/ layouts alike), and what the
   one-file-per-entry layout left: its entries ([`Legacy]) and the temp
   files of writers killed before their rename ([`Torn]). *)
let layout dir =
  let exists p = match Unix.lstat p with _ -> true | exception Unix.Unix_error _ -> false in
  let files d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  let dirs =
    dir
    :: List.filter_map
         (fun f ->
           let d = Filename.concat dir f in
           let is_dir = try Sys.is_directory d with Sys_error _ -> false in
           if String.starts_with ~prefix:"shard-" f && is_dir then Some d else None)
         (files dir)
  in
  let dirs = List.sort String.compare dirs in
  let logs = List.filter exists (List.map (fun d -> Filename.concat d log_name) dirs) in
  let leftovers =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun f ->
            let p = Filename.concat d f in
            if String.starts_with ~prefix:".tmp-" f then Some (p, `Torn)
            else if Filename.check_suffix f ".json" then Some (p, `Legacy)
            else None)
          (files d))
      dirs
  in
  (logs, leftovers)

(* [f fd] with the log at [path] open and locked against every writer
   (shared when not [write]) *)
let with_log ~write path f =
  let flags = if write then Unix.[ O_RDWR; O_CLOEXEC ] else Unix.[ O_RDONLY; O_CLOEXEC ] in
  let rec go () =
    match Unix.openfile path flags 0 with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
    | exception Unix.Unix_error _ -> `Unreadable
    | fd -> (
        let live () =
          let inode = inode_of (Unix.fstat fd) in
          if lock_live fd (if write then Unix.F_LOCK else Unix.F_RLOCK) ~path ~inode then
            Some (f fd)
          else None
        in
        (* closing releases the lock *)
        match Fun.protect ~finally:(fun () -> Unix.close fd) live with
        | Some r -> `Done r
        | None -> go ())
  in
  with_log_mutex go

(* Every record of the log open as [fd] in log order, with what reading
   it gives, and the number of lines that hold none (a torn tail
   included).  [kept] maps each key to its newest current record. *)
let census ~version fd =
  let size = (Unix.fstat fd).st_size in
  let lines = ref [] and junk = ref 0 in
  let tail =
    scan fd ~from:0 ~upto:size (function
      | Some line -> lines := line :: !lines
      | None -> incr junk)
  in
  if tail < size then incr junk;
  let records =
    List.rev_map
      (fun (k, slot) ->
        let body = Bytes.create slot.len in
        let cls =
          if read_at fd body slot.off slot.len < slot.len then `Corrupt
          else
            match decode ~version slot body with
            | `Found _ -> `Current
            | (`Stale | `Corrupt) as c -> c
        in
        (k, slot, cls))
      !lines
  in
  let kept = Hashtbl.create 64 in
  List.iter (fun (k, slot, cls) -> if cls = `Current then Hashtbl.replace kept k slot) records;
  (records, !junk, kept)

let count cls records = List.length (List.filter (fun (_, _, c) -> c = cls) records)

let size_of p = try (Unix.lstat p).Unix.st_size with Unix.Unix_error _ -> 0

let disk_stats ?(version = format_version) ~dir () =
  let zero = { records = 0; bytes = 0; current = 0; superseded = 0; stale = 0; corrupt = 0 } in
  let logs, leftovers = layout dir in
  let of_log acc path =
    let acc = { acc with bytes = acc.bytes + size_of path } in
    match with_log ~write:false path (census ~version) with
    | `Absent -> acc
    | `Unreadable -> { acc with records = acc.records + 1; corrupt = acc.corrupt + 1 }
    | `Done (records, junk, kept) ->
        let current = count `Current records in
        {
          acc with
          records = acc.records + List.length records + junk;
          current = acc.current + Hashtbl.length kept;
          superseded = acc.superseded + current - Hashtbl.length kept;
          stale = acc.stale + count `Stale records;
          corrupt = acc.corrupt + count `Corrupt records + junk;
        }
  in
  let of_leftover acc (path, kind) =
    let acc = { acc with records = acc.records + 1; bytes = acc.bytes + size_of path } in
    match kind with
    | `Legacy -> { acc with stale = acc.stale + 1 }
    | `Torn -> { acc with corrupt = acc.corrupt + 1 }
  in
  List.fold_left of_leftover (List.fold_left of_log zero logs) leftovers

let remove path = match Sys.remove path with () -> 1 | exception Sys_error _ -> 0

(* Rewrite the log at [path] (open as [fd]) with only the records that
   [kept] names, through a temp file renamed over it. *)
let compact path fd records kept =
  let tmp = path ^ ".tmp" in
  let out = Unix.openfile tmp Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close out)
    (fun () ->
      List.iter
        (fun (k, slot, _) ->
          match Hashtbl.find_opt kept k with
          | Some s when s == slot ->
              let body = Bytes.create slot.len in
              ignore (read_at fd body slot.off slot.len);
              write_all out
                (record_text ~key:k ~md5:slot.md5 (Bytes.unsafe_to_string body))
          | _ -> ())
        records);
  Unix.rename tmp path

(* [f path fd] on each log under [dir], locked against every writer, a
   log that cannot be opened deleted, and the old layout's files
   deleted; the sum of what [f] returns and of the files deleted. *)
let reclaim dir f =
  let logs, leftovers = layout dir in
  let of_log path =
    match with_log ~write:true path (f path) with
    | `Absent -> 0
    | `Unreadable -> remove path
    | `Done n -> n
  in
  List.fold_left (fun n path -> n + of_log path) 0 logs
  + List.fold_left (fun n (path, _) -> n + remove path) 0 leftovers

let gc ?(version = format_version) ~dir () =
  reclaim dir (fun path fd ->
      let records, junk, kept = census ~version fd in
      let dropped = List.length records + junk - Hashtbl.length kept in
      (* no compaction is running: a leftover temp file is a killed
         one's *)
      if dropped > 0 then compact path fd records kept
      else ignore (remove (path ^ ".tmp"));
      dropped)

let clear ~dir =
  reclaim dir (fun path fd ->
      let size = (Unix.fstat fd).st_size in
      let n = ref 0 in
      if scan fd ~from:0 ~upto:size (fun _ -> incr n) < size then incr n;
      Sys.remove path;
      ignore (remove (path ^ ".tmp"));
      !n)
