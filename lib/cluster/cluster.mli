(** The operator facade: one object that composes admission control,
    a processor-allocation policy, and live accounting.

    The rest of the library is organised for experiments (explicit
    sequences, replayed engines). A system embedding this work wants
    the inverse shape: a long-lived machine object it can push
    submissions and completions into and query for load. [Cluster]
    provides that, with the paper's algorithms behind a policy knob:

    {[
      let cluster =
        Cluster.create ~machine_size:256
          ~policy:(Cluster.Periodic (Pmp_core.Realloc.Budget 2))
          ~admission_cap:(Some 2.0) ()
      in
      match Cluster.submit cluster ~size:16 with
      | Ok (Placed (id, placement)) -> ...
      | Ok (Queued id) -> (* will be placed when capacity frees *) ...
      | Error msg -> ...
    ]}

    All ids are allocated by the cluster; completions of queued tasks
    cancel them. Every mutation updates the running statistics. *)

type policy =
  | Greedy
  | Copies
  | Optimal
  | Periodic of Pmp_core.Realloc.t
  | Hybrid of Pmp_core.Realloc.t
  | Randomized of int  (** seed *)

val policy_name : policy -> string

val make_allocator : policy -> Pmp_machine.Machine.t -> Pmp_core.Allocator.t
(** A fresh allocator of the policy: the one {!create} builds. *)

type t

val create :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  ?trace:(Pmp_workload.Event.t -> unit) ->
  unit ->
  (t, string) result
(** [admission_cap] (default [None] = the paper's real-time model)
    caps the cumulative active size at [cap *. machine_size]; excess
    submissions queue FIFO.

    The cluster keeps no history: its memory is a function of the live
    tasks. [trace] is handed every event the {e allocator} sees, in
    order — admissions as arrivals (queued tasks when they are actually
    placed) and completions of admitted tasks as departures — so a
    caller that wants the traffic ("what would d = 4 have cost us
    yesterday?") can keep it, or feed it to the conformance oracle. The
    events form a valid {!Pmp_workload.Sequence.t}. *)

type submission = Placed of Pmp_workload.Task.id * Pmp_core.Placement.t
                | Queued of Pmp_workload.Task.id

val submit : t -> size:int -> (submission, string) result
(** Errors on a size that is not a power of two or exceeds the machine
    (or the admission capacity). *)

val finish : t -> Pmp_workload.Task.id -> (unit, string) result
(** Completion (or cancellation of a queued submission). Frees
    capacity and admits queued work; the placements of newly admitted
    tasks are visible through {!placement}. *)

val placement : t -> Pmp_workload.Task.id -> Pmp_core.Placement.t option
(** [None] when the task is queued, finished, or unknown. *)

val is_queued : t -> Pmp_workload.Task.id -> bool

type stats = {
  submitted : int;
  completed : int;
  queued_now : int;
  active_now : int;
  active_size : int;
  max_load : int;  (** current *)
  peak_load : int;  (** high-water mark over the cluster's lifetime *)
  optimal_now : int;  (** [ceil (active_size / N)] *)
  reallocations : int;
  tasks_migrated : int;
}

val stats : t -> stats
val leaf_loads : t -> int array
val machine_size : t -> int

val queued_tasks : t -> (Pmp_workload.Task.id * int) list
(** Queued [(id, size)] pairs in FIFO admission order. *)

val next_id : t -> int
(** The id the next submission will receive. *)

val policy : t -> policy

val admission_capacity : t -> int option
(** The capacity in PEs ([cap *. machine_size] truncated), or [None]
    for the paper's unlimited real-time model. *)

val restore :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  events:Pmp_workload.Event.t list ->
  queued:(Pmp_workload.Task.id * int) list ->
  next_id:int ->
  submitted:int ->
  completed:int ->
  unit ->
  (t, string) result
(** Rebuild a cluster from an allocator-visible history (as collected
    through [create ~trace]): replays [events] through a fresh
    allocator of [policy] (allocator internals, mirror, peak load and
    migration counters are deterministic functions of the history),
    then re-enqueues [queued] and installs the counters.
    Errors if the history is not a valid sequence, a queued task
    collides with a history id or violates the admission rules, or the
    counters do not balance the live tasks. The reference that
    {!adopt} is tested against; recovery uses {!adopt}. *)

(** {1 Live state}

    Everything that determines the cluster's future decisions is a
    function of its live state: the active placements, the queue, the
    counters and the allocator's scalar {!Pmp_core.Allocator.carry}
    (budget accumulator, PRNG state). Copy-stack free space is the
    complement of the occupied set, and load views are sums over it. *)

module State : sig
  type t = {
    next_id : int;
    submitted : int;
    completed : int;
    peak_load : int;  (** high-water mark of the max load *)
    tasks_migrated : int;
    carry : Pmp_core.Allocator.carry;
        (** includes [realloc_count], the [reallocations] statistic *)
    live : (Pmp_workload.Task.t * Pmp_core.Placement.t) array;
        (** active tasks and their homes: ascending id from {!export},
            any order for {!adopt} *)
    queued : (Pmp_workload.Task.id * int) list;  (** FIFO admission order *)
  }
end

val export : t -> State.t
(** The live state, O(live log live). *)

val iter_live : t -> (int -> int -> int -> int -> unit) -> unit
(** [iter_live t f] calls [f id order index copy] for every active task
    and its home (submachine [(order, index)] of virtual copy [copy]),
    in unspecified order, over flat arrays and allocating nothing: the
    snapshot writer's view of {!export}'s [live]. *)

val carry : t -> Pmp_core.Allocator.carry
(** The allocator's scalar state ({!export}'s [carry]). *)

val adopt :
  machine_size:int ->
  policy:policy ->
  ?admission_cap:float option ->
  ?trace:(Pmp_workload.Event.t -> unit) ->
  State.t ->
  (t, string) result
(** A cluster in exactly the exported state, built without replaying
    any history: the placements are installed into a fresh allocator
    ({!Pmp_core.Allocator.t.adopt}), the queue and counters are set.
    From then on it makes the same decisions, byte for byte, as the
    cluster the export was taken from. O(live + queue) apart from the
    allocator's own inserts. Errors when the export is inconsistent:
    overlapping copy-stack placements, ids at or above [next_id], a
    queued id that is live, a queue head that would fit, counters that
    do not balance, a peak load below the live load. *)

val audit : t -> (unit, string) result
(** Structural audit of the live state in O(live log live + N):
    every placement fits its task inside the machine; on copy-stack
    policies live tasks of one copy are disjoint; every leaf's load
    equals an independent recount of the placements, and the max load
    is their maximum and at most the peak; the counters balance live +
    queued tasks and every id is below [next_id]; the allocator's own
    placement view equals an independent table of the live set. *)
