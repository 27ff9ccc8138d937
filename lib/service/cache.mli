(** The content-addressed verdict cache.

    Enumeration verdicts are pure: a (program, model, enumeration
    config) triple fully determines the execution set, so the cache key
    is [MD5 (canonical program text, model name, config key, format
    version)] — see [Tmx_lang.Canon] for the canonical form (stable
    under reformatting, loc reordering, and renaming) and
    [Tmx_exec.Enumerate.config_key] for why [jobs] is excluded.

    One JSON file per key under [dir], written to a temp file in the
    same directory and [rename]d into place so concurrent writers and
    crashed processes can never expose a torn entry.  Loads are
    corruption-tolerant: any read, parse, or shape failure is a miss
    (never an exception), counted in {!stats} as a load failure; an
    absent entry, including one removed while it was looked up, is a
    plain miss.  An in-memory LRU front
    (shared across domains behind a mutex) short-circuits the disk.

    With [shards = n > 1] the store is sharded by digest prefix: a
    key's entry lives under [dir/shard-XX/] where [XX] is the key's
    first two hex digits reduced mod [n], and each shard has its own
    lock, LRU slice and counters.  Shards are shared-nothing — no two
    ever touch the same file — so damage to one (corruption, deletion)
    leaves the others serving, and domains working different shards
    never contend.  A digest shorter than the two-character shard
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
    usable standalone (no cache involved). *)

type t

val format_version : string
(** Bumped whenever the entry schema or any verdict-affecting semantics
    change; part of the key, so stale entries become unreachable rather
    than wrong.  [tmx cache gc] reclaims them. *)

val default_dir : unit -> string
(** [$TMX_CACHE_DIR] if set, else [".tmx-cache"]. *)

val create :
  ?version:string -> ?capacity:int -> ?shards:int -> dir:string -> unit -> t
(** Opens (and creates if needed) the store at [dir].  [capacity]
    bounds the in-memory LRU front (default 128 entries, split across
    shards); [shards] (default 1: the flat legacy layout) shards the
    store by digest prefix; [version] overrides {!format_version}
    (tests use this to pin version-mismatch invalidation). *)

val dir : t -> string
val shard_count : t -> int
val key : t -> config:Enumerate.config -> Model.t -> Ast.program -> string

val shard_index : t -> string -> int
(** Which shard a key lands in.
    @raise Invalid_argument when the digest is shorter than the
    two-character shard prefix (or not hex). *)

val entry_path : t -> string -> string
(** On-disk path of a key's entry (exists only after a store); inside
    the key's [shard-XX/] directory when the store is sharded.
    @raise Invalid_argument as {!shard_index}. *)

val find :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> verdict option

val store :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> verdict -> unit

val memo :
  t ->
  config:Enumerate.config ->
  Model.t ->
  Ast.program ->
  verdict * [ `Hit | `Miss ]
(** [find], else [compute] + [store], all under one {!key}. *)

val memo_run :
  t -> config:Enumerate.config -> Model.t -> Ast.program -> Enumerate.result
(** {!memo} projected to the enumeration result — the shape of
    [Enumerate.run], pluggable as [Litmus.run ~enumerate], with the
    cached races in [races]. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;  (** LRU front evictions (disk entries remain) *)
  load_failures : int;  (** corrupt / unreadable entries served as misses *)
}

val stats : t -> stats
val resident : t -> int
(** Entries currently in the LRU front (bounded by [capacity]). *)

(** {1 Maintenance} — operate on a directory, no [t] needed. *)

type disk_stats = {
  entries : int;  (** total entry files *)
  bytes : int;  (** their cumulative size *)
  current : int;  (** entries readable under [version] *)
  stale : int;  (** readable, but written by another version *)
  corrupt : int;  (** unreadable or malformed *)
}

val disk_stats : ?version:string -> dir:string -> unit -> disk_stats
val gc : ?version:string -> dir:string -> unit -> int
(** Delete stale and corrupt entries; returns how many were removed. *)

val clear : dir:string -> int
(** Delete every entry; returns how many were removed. *)
