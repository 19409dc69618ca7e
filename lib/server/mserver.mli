(** pmpd on OCaml 5 domains: a domain-sharded allocation daemon.

    The machine's [N] leaves are partitioned into [K] contiguous
    subtree ranges of [N/K] PEs, one per worker domain. Each worker
    runs its own {!Pmp_cluster.Cluster} of size [N/K] and its own
    {!Pmp_telemetry.Metrics} registry, and serves its connections
    through the same {!Loop} and {!Front} as the single-core server:
    the shard supplies only its handler for one request. The caller's
    thread is the acceptor: it [select]s on the listeners and hands
    each accepted connection to a shard round-robin over a bounded
    {!Pmp_util.Spsc} ring; the shard's loop takes it in through its
    wakeup descriptor, as it does peer messages. One further domain is
    the only WAL writer.

    {b Id namespace.} Shard [s]'s [i]-th task is globally
    [i * K + s] ({!Pmp_util.Sharding.global_id}), so [owner g = g mod
    K] routes any client-visible id back to its shard exactly, with no
    shared counter. Placements are globalised by adding the shard's
    leaf offset, so clients see coordinates on the full [N]-leaf
    machine.

    {b Cross-shard operations.} A request naming another shard's task
    (finish, query), a steal, or a fan-out (stats, loads, metrics)
    becomes a synchronous peer call over per-pair SPSC rings. While
    waiting for its response a shard keeps servicing its own inbound
    peer requests, so cycles of waiting shards cannot deadlock, and at
    most one call is outstanding per shard, so the rings never fill.
    Such a wait (and the commit wait below) spins briefly, then parks
    on the shard's wakeup pipe for at most 1 ms at a time.

    {b Durability.} The written-vs-durable acknowledgement contract of
    the single-core server holds by the same ordering: every mutation
    a batch applies — locally, or on a peer by a remote finish or a
    steal — takes a ticket on the applying shard, and the shard's
    loop commit hook waits, serving the peer rings meanwhile, until
    the WAL domain's durable watermarks cover every ticket of the
    batch. Only then does the loop write any of the batch's
    responses. The WAL domain assigns global sequence numbers in drain
    order and group-commits per the configured {!Wal.fsync_policy};
    crash injection trips there, after the covering commit and before
    any watermark moves — acknowledged, durable, unreported.

    {b Work stealing.} When admission would queue at the home shard
    (or its queue is already [steal_threshold] deep), the home shard
    asks the least-loaded idle peer to admit instead; the victim
    admits in its {e own} id namespace, so the stolen task executes
    exactly once and routes exactly thereafter. Refusals (a lost race)
    fall back to home admission.

    {b Restrictions vs the single-core server.} Snapshots are
    unsupported (requests answer an error; {!create} refuses a state
    directory holding one); latency profiling, the slow-request log
    and the flight recorder are inert; the largest admissible task is
    [N/K] PEs. A state directory is stamped with a [domains] marker
    and each server refuses the other's directories. *)

type config = {
  base : Server.config;  (** the single-core configuration, shared *)
  domains : int;  (** K ≥ 2 worker shards; must divide the machine *)
  steal_threshold : int;
      (** steal when the home queue is at least this deep (a depth of
          0 never steals; admissions that would queue always try) *)
}

val default_steal_threshold : int

val merge_stats :
  machine_size:int ->
  Pmp_cluster.Cluster.stats list ->
  Pmp_cluster.Cluster.stats
(** Combine per-shard statistics into the machine-wide view a client
    of the single-core server would see: additive fields sum, peak
    fields take the max, and [optimal_now] is recomputed at the full
    machine size. *)

type t

val create : config -> (t, string) result
(** Create or recover the state directory. Recovery routes each WAL
    record to its owner shard by id, replays it there (after id
    translation) through {!Server.apply_wal_op}, runs
    {!Server.audit_recovery} from genesis on {e every} shard, cross-checks
    the merged statistics against the record counts, stamps the
    [domains] marker and opens the WAL for appending. Refuses:
    [domains < 2], a shard count that doesn't divide the machine, a
    directory with a snapshot, a directory stamped for a different
    shard count, or an unstamped directory with single-core history. *)

val seq : t -> int
(** Global WAL sequence recovered (mutations applied since genesis). *)

val recovered_ops : t -> int
(** WAL records replayed by {!create} (0 on a fresh start). *)

val shard_stats : t -> Pmp_cluster.Cluster.stats list
(** Per-shard statistics of the recovered clusters, in shard order. *)

val merged_stats : t -> Pmp_cluster.Cluster.stats
(** {!merge_stats} over {!shard_stats}. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Spawn the WAL domain and the K shard domains, run the acceptor on
    the calling thread, and block until a [shutdown] request drains
    the system: each shard's loop stops reading sockets and flushes
    its connections, then lingers answering peer calls until every
    shard is done with its clients; the WAL domain writes its final
    commit and closes the log. A failed domain
    fails the whole server: {!serve} joins everything, then raises
    [Failure] with the first recorded error. *)
