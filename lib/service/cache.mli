(** The content-addressed verdict cache.

    Enumeration verdicts are pure: a (program, model, enumeration
    config) triple fully determines the execution set, so the cache key
    is [MD5 (canonical program text, model name, config key, format
    version)] — see [Tmx_lang.Canon] for the canonical form (stable
    under reformatting, loc reordering, and renaming) and
    [Tmx_exec.Enumerate.config_key] for why [jobs] is excluded.

    {b Layout.}  Each shard keeps its verdicts in one append-only log:
    [dir/entries.log], or [dir/shard-XX/entries.log] with [shards = n >
    1], where [XX] is the key's first two hex digits reduced mod [n].  A
    record is one line, ["\n" key TAB md5(body) TAB body "\n"], whose
    body is the entry's JSON, its ["format"] field naming the version
    that wrote it; [Tmx_json.to_string] escapes every control character,
    so a body never holds a newline.  The leading newline ends any torn
    line a crashed writer left, which then fails to parse or fails its
    checksum.  A store appends one record to the open log; no file is
    created per entry.  A key's newest record wins.

    Beside the counts and the lint counters, a body holds three tables
    and the executions that index them: ["locs"], the location list,
    once; ["events"], each distinct event once, as [[thread, tag, ...]];
    ["outcomes"], each distinct outcome once; and ["executions"], one
    [[event indices, outcome index, race positions, mixed]] per
    execution, the indices and positions as JSON int arrays, each race
    pair as two consecutive positions.  The tables are in first-use
    order, so equal verdicts give byte-identical bodies.  Decoding
    builds each table entry once: a reloaded verdict's traces share
    their event records, and its executions their outcomes, as a fresh
    enumeration's do.  An index out of range or not an int, a race
    position outside its trace, an odd-length race list, an execution
    of the wrong arity or a missing table makes the record a load
    failure.

    {b Reads.}  An in-memory LRU front first, then an index from each
    key to its newest record's offset, length and checksum.  An index
    miss first indexes the complete lines the log gained since the last
    scan (other processes' appends), reading one bounded chunk at a
    time; then a hit is one seek and one read.  Loads are
    corruption-tolerant: no record for the key is a plain miss; a
    checksum, format, read or decode failure is a miss counted in
    {!stats} as a load failure; nothing raises.

    {b Cost.}  The index starts empty in every process, so a process's
    first lookup in a shard reads the shard's whole log, and the index
    then holds every key of it.  On 2 vCPUs, with the records a [tmx
    fuzz --cache] campaign leaves (1.6 KB each), a fresh [tmx litmus sb
    --cache] took 22 ms against 10^4 records (15 MB of log) and 0.18 s
    against 10^5 (156 MB), peaking at 24 MB of memory, about 11 MB more
    than beside a small log; a daemon's first request took 0.22 s
    there.  The one-file-per-entry layout took 5 ms.  The log pays for
    itself in a long-lived process ([tmx serve]) or one whose lookups
    are many next to its log's records; a short-lived [tmx litmus
    --cache] beside a large [tmx fuzz --cache] log pays the scan on
    every run.

    {b Across processes.}  Each process opens a shard's log lazily, with
    [O_APPEND], and appends a record while holding an advisory [lockf]
    lock on it, so processes sharing a directory ([tmx serve --shards
    N], or [tmx litmus --cache] beside a daemon) never interleave a
    record, however large.  {!gc} replaces a log by renaming a compacted
    copy over it and {!clear} deletes it, both under the same lock;
    before an append and before a rescan a cache compares its
    descriptor's inode with the path's and reopens on a difference, so
    it never appends to a replaced or unlinked log.

    {b Across domains.}  A [lockf] lock does not exclude the process's
    own domains, so every append in the process, to any shard, also
    holds one process-wide mutex.  A shard's disk reads (a hit's one
    read, an index miss's scan) share the shard's one file offset and
    run under its lock.  So a process's domains serialise their appends,
    and their disk reads on one shard; a record's checksum and decoding
    run outside every lock.

    Damage to one shard's log (corruption, deletion) leaves the other
    shards serving.  A digest shorter than the two-character shard
    prefix is rejected with [Invalid_argument] (truncated keys would
    alias into one shard and shadow each other). *)

open Tmx_core
open Tmx_lang
open Tmx_exec

type verdict = {
  result : Enumerate.result;
      (** its [races] is [Some races], the same array as the field
          below, so [Litmus.run ~enumerate:(memo_run t)] answers race
          checks from it *)
  races : (int * int) list array;
      (** per execution (same order as [result.executions]): its
          L-races at L = every location under the keyed model's
          happens-before *)
  mixed : bool array;  (** per execution: has a mixed race *)
  lint_race_free : bool;
  lint_findings : int;
  lint_mixed : int;
}

val compute : config:Enumerate.config -> Model.t -> Ast.program -> verdict
(** Enumerate and derive the full verdict — the cache-miss path, also
    usable standalone (no cache involved).  Its cost is one
    [Enumerate.run ~races:true], which reads each execution's races off
    the happens-before the walk already built (one hb lookup per
    conflicting pair per execution, no [Lift.make] or [Hb.compute]),
    one scan of each execution's races for a mixed pair, and the lint. *)

type t

val format_version : string
(** Bumped whenever the entry schema or any verdict-affecting semantics
    change; part of the key, so stale entries become unreachable rather
    than wrong.  [tmx cache gc] reclaims them. *)

val default_dir : unit -> string
(** [$TMX_CACHE_DIR] if set, else [".tmx-cache"]. *)

val create :
  ?version:string -> ?capacity:int -> ?shards:int -> dir:string -> unit -> t
(** Opens the store at [dir], creating the directories if needed; a
    shard's log is opened on its first lookup and created by its first
    store.  [capacity] bounds the in-memory LRU front (default 128
    entries, split across shards); [shards] (default 1: one log in
    [dir]) shards the store by digest prefix; [version] overrides
    {!format_version} (tests use this to pin version-mismatch
    invalidation). *)

val close : t -> unit
(** Closes the logs' descriptors.  A cache dropped unclosed has them
    closed by a finaliser; a closed cache reopens them when used
    again. *)

val dir : t -> string
val shard_count : t -> int
val key : t -> config:Enumerate.config -> Model.t -> Ast.program -> string

val newline : Bytes.t -> int -> int -> int
(** [newline buf i n], for [i <= n <= Bytes.length buf]: the index of
    the first ['\n'] of [buf] in \[[i], [n]), else [n] — how the log
    scan finds record ends; exposed for tests. *)

val shard_index : t -> string -> int
(** Which shard a key lands in.
    @raise Invalid_argument when the digest is shorter than the
    two-character shard prefix (or not hex). *)

val entry_path : t -> string -> string
(** The log that holds a key's records (it exists once its shard has
    had a store): [dir/entries.log], or inside the key's [shard-XX/]
    directory when the store is sharded.
    @raise Invalid_argument as {!shard_index}. *)

val find :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> verdict option

val store :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> verdict -> unit
(** Appends the verdict's record to its shard's log.
    @raise Unix.Unix_error when the log cannot be opened or written.
    @raise Invalid_argument when the verdict's executions are over
    different location lists (an enumeration's never are). *)

val memo :
  t ->
  config:Enumerate.config ->
  Model.t ->
  Ast.program ->
  verdict * [ `Hit | `Miss ]
(** [find], else [compute] + [store], all under one {!key}.  A store
    that fails (a log that cannot be opened or written) is skipped: the
    verdict is returned all the same, and lookups count that log as a
    load failure until {!gc} deletes it. *)

val memo_run :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> Enumerate.result
(** {!memo} projected to the enumeration result — the shape of
    [Enumerate.run], pluggable as [Litmus.run ~enumerate], with the
    cached races in [races]. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;  (** LRU front evictions (the records remain) *)
  load_failures : int;  (** unreadable records served as misses *)
}

val stats : t -> stats
val resident : t -> int
(** Entries currently in the LRU front (bounded by [capacity]). *)

(** {1 Maintenance} — operate on a directory, no [t] needed.  Each
    takes a log's lock for as long as it reads or replaces the log, and
    walks the flat and the sharded layout alike. *)

type disk_stats = {
  records : int;
      (** lines in the logs, a torn last line included, plus the files
          the one-file-per-entry layout left behind *)
  bytes : int;  (** the logs' and those files' cumulative size *)
  current : int;  (** keys with a record readable under [version] *)
  superseded : int;
      (** records readable under [version] followed by a newer readable
          record of the same key *)
  stale : int;
      (** records written by another version, and the per-entry
          [*.json] files of the old layout *)
  corrupt : int;
      (** records that fail to parse, their checksum or their decoding,
          logs that cannot be opened, and the [.tmp-*] files of writers
          killed before their rename *)
}

val disk_stats : ?version:string -> dir:string -> unit -> disk_stats

val gc : ?version:string -> dir:string -> unit -> int
(** Keeps the newest current record of each key and drops every other
    record, rewriting each log that loses one into a temp file renamed
    over it; deletes logs that cannot be opened, the old layout's
    [*.json] entries and its [.tmp-*] files.  Returns how many records
    and files it dropped. *)

val clear : dir:string -> int
(** Deletes the logs, the old layout's files and a killed compaction's
    temp file; returns how many records and files were removed. *)
