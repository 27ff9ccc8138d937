(** The [tmx serve] daemon: a multi-domain NDJSON query service over a
    Unix socket and/or TCP, backed by the verdict {!Cache}.

    [workers] domains share the listening sockets through a select
    loop; each owns its accepted connection for the connection's
    lifetime, so up to [workers] clients are served concurrently
    (further connects queue in the kernel backlog).  All workers share
    one {!Cache.t} (sharded by digest prefix when [cache_shards > 1])
    and one {!Metrics.t}.

    Binding ({!listen}) is split from serving ({!start}) so a caller
    can bind once, report the bound addresses ({!addresses} — the
    kernel picks the port for port 0), and fork shard processes that
    inherit the same listening fds: the kernel load-balances accepts
    across the processes, and a respawned shard reuses the fds without
    re-binding.

    Overload sheds instead of queueing: at most [max_inflight]
    expensive requests run concurrently per process; an arrival past
    the limit is answered immediately with the structured
    {!Protocol.overloaded} response (the admission budget is
    [Tmx_runtime.Contention.Admission] — the STM Budget policy's bound
    reused as backpressure).  [ping], [stats] and [shutdown] bypass
    admission so liveness probes, observability and the off switch
    survive overload.

    Per-request deadlines are cooperative: the deadline is checked
    before enumeration starts and, for [batch], between sub-requests —
    an in-flight enumeration is never killed mid-way (its store is
    still useful and the cache must never hold torn entries), so
    cancellation is graceful by construction.  A missed deadline
    produces an ["deadline exceeded"] error response, not a dropped
    connection.

    A client disconnecting mid-request only tears down that connection:
    the write failure (SIGPIPE is ignored; [EPIPE] is caught) is
    contained and the worker returns to the accept loop. *)

type config = {
  socket : string option;
      (** Unix-domain socket path (note the ~100-char OS limit) *)
  tcp : (string * int) option;  (** TCP host and port; port 0 = kernel picks *)
  cache_dir : string;
  cache_capacity : int;  (** LRU front bound *)
  cache_shards : int;  (** digest-prefix shards of the verdict cache *)
  workers : int;  (** accept-loop domains *)
  jobs : int;  (** [Tmx_exec.Pool] width for [batch] fan-out *)
  max_inflight : int;
      (** admission bound on concurrent expensive requests; [<= 0] =
          unlimited *)
  enum : Tmx_exec.Enumerate.config;  (** enumeration config for every request *)
  verbose : bool;  (** log requests to stderr *)
}

val default_config : socket:string -> config
(** Unix socket only, workers 2, jobs 1, cache dir {!Cache.default_dir},
    capacity 128, one cache shard, unlimited admission. *)

(** {1 Listeners} *)

type listener
(** Bound, listening sockets — not yet served.  Safe to share across
    [fork]ed processes; each process then passes it to {!start}. *)

val listen : config -> listener
(** Bind and listen on every transport the config names.
    @raise Invalid_argument when the config names no transport.
    @raise Unix.Unix_error when a socket cannot be bound. *)

val addresses : listener -> string list
(** The bound addresses, as [client]-parseable strings:
    ["unix:PATH"], ["tcp:HOST:PORT"] (with the actual kernel-chosen
    port when the config asked for port 0). *)

val close_listener : listener -> unit
(** Close the listening fds and unlink the Unix socket path, unless
    another listener has bound a new socket there since. *)

(** {1 Lifecycle} *)

type t

val start : ?listener:listener -> config -> t
(** Spawns the workers and returns immediately.  Without [?listener],
    binds one itself (and owns it: {!stop} closes and unlinks).  With
    [?listener], the caller keeps ownership — {!stop} only stops the
    workers, so sibling processes sharing the fds keep serving.
    @raise Unix.Unix_error when binding fails. *)

val cache : t -> Cache.t
val server_addresses : t -> string list

val stopping : t -> bool
(** Has a [shutdown] request (or {!stop}) been seen? *)

val stop : t -> unit
(** Idempotent: signal the workers (they notice within the 0.25s
    select/read timeout), join them, close the cache's logs, and — when
    the server owns its listener — close and unlink the sockets. *)

val wait : t -> unit
(** Block until the server stops (a [shutdown] request arrives), then
    clean up as {!stop}. *)
