(** The federation router: many tree machines behind one allocator.

    A router sits in front of [M] independent pmpd shards — each a
    {!Pmp_server.Server} (or [Mserver]) over its own disjoint machine
    — and speaks the existing wire protocol on both sides, so a
    federated endpoint is a drop-in replacement for a single shard.
    Placement is the paper's greedy rule one level up: each submit
    goes to the up shard with the minimum summary max-load
    ({!Fed_index}), ids are shard-tagged ({!Fed_id}) with a ledger
    overlay for tasks re-homed by failover or rebalancing, per-tenant
    admission quotas are enforced router-side on top of each shard's
    own [Cluster.admission_capacity], and rid-tagged responses carry
    the serving shard so clients can attribute throughput.

    Periodic work rides the event loop's tick: stats polls refresh
    the index summaries, health probes reconnect and re-mark downed
    shards, and a {!Rebalance} round drains tasks from the hottest to
    the coldest shard under a migration budget, audited against the
    shards' own accounting after every round.

    On an upstream failure mid-request the shard is marked down, its
    queued tasks are re-admitted to healthy shards under the same
    federated ids, and in-flight submits fail over — at-least-once
    semantics: a crashed shard's WAL may keep an orphan copy of a
    re-routed task, which its own recovery audits but the ledger no
    longer points at. No acknowledged task is ever lost: every acked
    id resolves on a healthy shard, or again on the crashed shard once
    a probe brings it back. *)

type config = {
  sockets : string array;  (** one upstream Unix socket per shard *)
  tenant_quota : float option;
      (** per-tenant cap on admitted PEs, as a multiple of the
          aggregate machine size; [None] = no tenant quotas *)
  poll_interval : float;  (** seconds between stats polls *)
  probe_interval : float;  (** seconds between down-shard probes *)
  rebalance : Rebalance.config option;
  rebalance_interval : float;
  shutdown_shards : bool;
      (** forward [shutdown] to every up shard before stopping — for
          routers that own their shards *)
  dir : string;  (** flight-recorder dumps land here *)
  recorder_size : int;
  loop : Pmp_server.Loop.config;
}

val default_config : sockets:string array -> dir:string -> config
(** No tenant quotas, 0.5 s polls, 0.5 s probes, no rebalancing,
    [shutdown_shards = false], recorder of 4096 entries, default loop
    config. *)

type t

val create : config -> (t, string) result
(** Connect to every shard and learn its machine size (every shard
    must be reachable and ready at creation; failures {e after} that
    are handled by mark-down and probes). *)

val shards : t -> int
val aggregate_size : t -> int

val shard_up : t -> int -> bool

val tenants : t -> int
(** Tenants (one per connection) holding admitted PEs. The router
    keeps no other per-connection state, so this is bounded by live
    work, not by how many connections have come and gone. *)

val tick : t -> float
(** Run due periodic work (polls, probes, rebalance, requested
    recorder dumps); returns the select-timeout cap. Exposed for
    in-process tests. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Run the event loop until a [shutdown] request. Dumps the flight
    recorder to [dir/flightrec.jsonl] on abnormal exit or [SIGUSR1]. *)

val dump_recorder : t -> string
(** Dump the flight ring now; returns the path written. *)

val close : t -> unit
(** Close every upstream connection. *)
