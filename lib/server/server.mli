(** pmpd: the durable allocation daemon.

    Wraps a {!Pmp_cluster.Cluster} in the {!Protocol}, a {!Wal} and
    periodic {!Snapshot}s, and serves it over TCP and/or Unix-domain
    sockets through {!Loop}.

    {b Durability contract.} Every acknowledged mutation reaches the
    WAL before its response reaches the socket — structurally: the
    event loop runs the WAL's group {!commit} after handling each
    batch and before writing any response byte. Under the default
    [Group] policy the commit fsyncs, so acknowledgements imply
    stable storage at a per-batch (not per-record) fsync cost;
    [Always] forces every record individually, [Interval] trades the
    tail of an interval for even fewer fsyncs, [Never] leaves
    durability to the OS. On startup, {!create} adopts the latest
    live-state snapshot ({!Pmp_cluster.Cluster.adopt}: no history is
    replayed), replays the WAL tail on top of it, cross-checks every
    replayed submission against the id the original run acknowledged,
    and then audits the result in O(live + N + tail) with
    {!audit_recovery}. A recovery that cannot prove itself equal to the
    uninterrupted execution refuses to start.

    {b Snapshots.} Every [snapshot_every] mutations (and on the
    [snapshot] request) the live state is written, the directory
    fsynced, the WAL truncated and every older snapshot deleted, so
    the state directory holds one snapshot and at most
    [snapshot_every] WAL records: its size, and restart time, follow
    the live state, not the history.

    {b Hot path.} Binary-framed requests ({!Wire.request_magic} first
    byte) are decoded straight out of the connection's input buffer
    and answered through a reused scratch buffer — no intermediate
    request/response values, strings or JSON on the submit, finish,
    query and stats opcodes, rid-tagged or not ({!Front} peels the
    tag). JSON lines remain fully supported as the
    debug encoding; the two can interleave on one connection.

    {b Crash injection.} With [crash_after = Some k], {!Crash} is
    raised once the [k]-th mutation accepted by this process is
    covered by a WAL commit — after durability, before its response is
    delivered: the harshest acknowledged-but-unreported point. Tests
    and the CI smoke job use it to prove recovery equals uninterrupted
    execution. *)

type config = {
  machine_size : int;
  policy : Pmp_cluster.Cluster.policy;
  admission_cap : float option;
  dir : string;  (** state directory: WAL + snapshots (created) *)
  fsync_policy : Wal.fsync_policy;  (** when WAL batches hit disk *)
  wal_format : Wal.format;  (** encoding of fresh WAL records *)
  snapshot_every : int;  (** snapshot every k mutations; 0 = only on demand *)
  crash_after : int option;  (** crash-injection test mode *)
  loop : Loop.config;
  latency_profile : bool;
      (** time every request and pipeline stage into the registry's
          log-bucket histograms. Off by default: the timestamps box
          floats, which would break the zero-allocation dispatch path *)
  slow_ms : float option;
      (** log requests slower than this many milliseconds to stderr
          (implies timing, like [latency_profile]) *)
  recorder_size : int;
      (** flight-recorder ring capacity in records; 0 disables it *)
}

val default_config :
  machine_size:int -> policy:Pmp_cluster.Cluster.policy -> dir:string -> config
(** No admission cap, [fsync_policy = Group], [wal_format =
    Binary_records], [snapshot_every = 1024], no crash injection,
    {!Loop.default_config}, no latency profiling or slow-request log,
    [recorder_size = 256]. *)

exception Crash
(** Raised by the crash-injection trip; escapes {!serve} with all
    buffers abandoned. *)

type t

val create : config -> (t, string) result
(** Create the state directory if needed, recover from whatever
    snapshot and WAL it holds (an empty directory is a fresh cluster),
    verify the recovery, and open the WAL for appending. *)

val cluster : t -> Pmp_cluster.Cluster.t
val seq : t -> int
(** Mutations applied since genesis (the durable sequence number). *)

val recovered_ops : t -> int
(** WAL records replayed by {!create} (0 on a fresh start). *)

val same_state : Pmp_cluster.Cluster.t -> Pmp_cluster.Cluster.t -> (unit, string) result
(** Bit-for-bit behavioural equality of two clusters — stats, loads
    and the whole exported live state: every live placement, the
    queue, the counters and the allocator carry, which together fix
    every later decision. This is the relation recovery is verified
    under (and the one the crash-recovery tests assert). *)

val apply_wal_op : Pmp_cluster.Cluster.t -> Wal.op -> (unit, string) result
(** Replay one WAL record against a cluster, cross-checking that a
    submission is assigned the id the original run acknowledged. The
    unit of recovery for both the single-threaded server and (per
    shard, after id translation) the sharded one. *)

val audit_recovery :
  machine_size:int ->
  policy:Pmp_cluster.Cluster.policy ->
  admission_cap:float option ->
  base:Pmp_cluster.Cluster.State.t ->
  tail:Wal.op list ->
  Pmp_cluster.Cluster.t ->
  (unit, string) result
(** The recovery audit of a cluster that was adopted from [base] (a
    snapshot's state, or a fresh cluster's export) and then had [tail]
    replayed onto it, in O(live + N + tail):
    - {!Pmp_cluster.Cluster.audit} of the state adopted from [base]
      and of the recovered cluster;
    - the structural conformance oracle over the tail's
      allocator-visible events, on an allocator adopted from [base]
      ({!Pmp_oracle.Oracle.run_from});
    - {!same_state} between the recovered cluster and an independent
      adopt-then-replay of [tail].
    {!create} runs it on the recovered cluster; the sharded server
    runs it on every shard's, from genesis. *)

val verify_cluster :
  machine_size:int ->
  policy:Pmp_cluster.Cluster.policy ->
  admission_cap:float option ->
  Pmp_cluster.Cluster.t ->
  (unit, string) result
(** {!audit_recovery} of a cluster against its own export and an empty
    tail: the structural audit, and adoption of its live state
    reproducing it bit for bit. O(live + N). *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents. *)

val rolling_p99 : float array -> int -> float
(** [rolling_p99 ring pushed]: p99 of a rolling window into which
    [pushed] samples have been written round-robin. *)

val registry : t -> Pmp_telemetry.Metrics.Registry.t
val metrics : t -> string
(** Prometheus dump of the server registry: requests, mutations,
    batches, group sizes, connections, fsyncs, snapshots, recoveries
    and spans, plus the SLO gauges — [pmpd_wal_lag] (records written
    but not yet known durable) and [pmpd_p99_load_ratio] (rolling p99
    of max-load over optimal) — and, when timing is on, per-opcode
    [pmpd_request_seconds{op=...}] and per-stage
    [pmpd_stage_seconds{stage=...}] latency histograms. The rolling
    p99 gauge is recomputed by this call. *)

val recorder : t -> Recorder.t
(** The flight recorder: mutations replayed at recovery, then every
    request handled (opcode, payload size, covering WAL seq, duration
    and timestamp when timing is on, success flag). *)

val flightrec_path : t -> string
(** Where dumps go: [<dir>/flightrec.jsonl]. *)

val dump_recorder : t -> string
(** Dump the flight recorder to {!flightrec_path} now (truncating any
    previous dump); returns the path. {!serve} does this on SIGUSR1
    and on any abnormal exit — crash injection included — and
    {!create} does it when recovery fails, so a refused startup (an
    oracle violation, a WAL gap, a divergent replay) leaves its black
    box behind. *)

val request_dump : t -> string
(** Alias of {!dump_recorder} — the deterministic, signal-free way for
    tests and embedders to trigger what SIGUSR1 triggers. *)

val handle : t -> Protocol.request -> Protocol.response * bool
(** Apply one request; the boolean is [true] when the server should
    stop ([Shutdown]). Accepted mutations are appended to the WAL
    (pending) before returning; call {!commit} to make them durable —
    the event loop does this once per batch.
    @raise Crash when crash injection trips under [fsync_policy =
    Always] (other policies trip in {!commit}). *)

val handle_conn :
  t ->
  Netbuf.t ->
  Netbuf.t ->
  budget:int ->
  [ `Handled of int | `Stop of int ]
(** {!Front.handle} with this server's handler: drain up to [budget]
    complete requests from the in-buffer (binary frames and JSON
    lines, told apart by their first byte), encoding responses into
    the out-buffer. Returns the number of requests consumed; a framing
    error clears the in-buffer and counts as handled. *)

val commit : t -> unit
(** Group-commit the pending WAL batch (one write; fsync per policy),
    refresh the load gauges, and fire any armed crash injection. The
    event loop calls this after every batch, before responses are
    written; tests driving {!handle} directly must call it themselves
    to make mutations durable.
    @raise Crash when crash injection tripped in this batch. *)

val snapshot_now : t -> (string, string) result
(** Write a live-state snapshot covering everything applied so far,
    fsync it and the state directory, truncate the WAL and delete every
    older snapshot; returns the path written. *)

val close : t -> unit
(** Flush and fsync the WAL, then close it (no implicit final
    snapshot). *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, replacing a stale
    socket file if one exists. @raise Unix.Unix_error. *)

val listen_tcp : host:string -> port:int -> Unix.file_descr * int
(** Bind and listen on [host:port]; returns the bound port (useful
    with [port = 0]). @raise Unix.Unix_error. *)

val serve : t -> listeners:Unix.file_descr list -> unit
(** Run the event loop until a [shutdown] request, then {!close}.
    {!Crash} (and any other exception) escapes without closing the
    WAL cleanly — which is the point — but not before the flight
    recorder is dumped. SIGUSR1 requests a dump from a live server:
    the handler (installed race-free before the first [select]) only
    sets a flag; the loop writes the dump on its next tick or batch. *)
