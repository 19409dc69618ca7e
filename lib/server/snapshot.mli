(** Durable live-state snapshots.

    A snapshot holds what determines the cluster's future, not how it
    got there: the static configuration, the counters, the allocator's
    scalar carry (d·N budget accumulator, PRNG state), the active
    placements and the admission queue — plus [seq], the number of WAL
    mutations it covers, so recovery knows which log records are
    already folded in. Its size and write time are O(live tasks),
    whatever the length of the history.

    Files are [snapshot-<seq, zero-padded>.bin], written atomically
    ([.tmp] + fsync + rename + directory fsync). The encoding is binary
    ({!Wire} varints, fixed-width counters) and ends with a [Digest] of
    everything before it:

    {v
    "PMPS" format=2 seq:i64 machine_size policy(len,bytes) cap(0 | 1 f64)
    next_id submitted completed peak_load tasks_migrated reallocations
    arrived_since_repack rng_state                       (all i64, LE)
    n_live   { next_id−1−id, order:u8, index, copy }*   (any order)
    n_queued { next_id−1−id, size }*                    (FIFO)
    md5(all of the above)
    v}

    The JSON history snapshots of earlier versions
    ([snapshot-<seq>.json]) are refused, naming the file; there is no
    upgrade path. *)

type t = {
  seq : int;  (** mutations covered (the WAL position at capture) *)
  machine_size : int;
  policy : Pmp_cluster.Cluster.policy;
  admission_cap : float option;
  state : Pmp_cluster.Cluster.State.t;
}

val policy_to_string : Pmp_cluster.Cluster.policy -> string
(** Stable encoding: ["greedy"], ["copies"], ["optimal"],
    ["periodic:<d>"], ["hybrid:<d>"] (with [d] an integer or ["inf"]),
    ["randomized:<seed>"]. *)

val policy_of_string :
  string -> (Pmp_cluster.Cluster.policy, string) result

val restore : t -> (Pmp_cluster.Cluster.t, string) result
(** {!Pmp_cluster.Cluster.adopt} of this snapshot's state: no replay. *)

type buffer
(** A reusable encoding buffer. *)

val buffer : unit -> buffer

val save :
  ?buf:buffer ->
  dir:string ->
  seq:int ->
  admission_cap:float option ->
  Pmp_cluster.Cluster.t ->
  string
(** Encode the cluster's live state into [buf] (a caller-owned buffer
    reused across snapshots; a fresh one by default) and write it
    atomically into [dir], the directory entry included; returns the
    path written. The encoder walks the task table in place
    ({!Pmp_cluster.Cluster.iter_live}): O(live), no sort, no export,
    and nothing allocated in proportion to the live state once the
    buffer has grown to fit.
    [admission_cap] is the cluster's original [create] argument (it
    only retains the derived PE capacity).
    @raise Sys_error when the directory is not writable. *)

val load : string -> (t, string) result
(** Errors on a digest mismatch, a malformed body, or a legacy
    [snapshot-*.json] path. The live tasks come in file order. *)

val latest : dir:string -> (string * int) option
(** Highest-sequence snapshot file in [dir] as [(path, seq)]. A legacy
    [snapshot-*.json] file, if any, is returned in preference (with
    seq [-1]) so that {!load} refuses it. *)

val prune : dir:string -> keep:string -> unit
(** Delete every [snapshot-*] file in [dir] (leftover [.tmp] files
    included) except [keep]. Only safe once
    [keep] is durable and the WAL before it is truncated: an older
    snapshot can then never be recovered from. *)
