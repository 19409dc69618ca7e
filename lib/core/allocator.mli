(** The online allocator interface.

    An allocator must answer each arrival with a submachine of the
    task's size knowing only the sizes seen so far and its own previous
    assignments — never the future (§2 of the paper). Some allocators
    additionally relocate already-active tasks when their reallocation
    budget allows; those moves are reported alongside the triggering
    arrival so the simulator can account load changes and migration
    traffic.

    Allocators are first-class values (a record of operations closing
    over private state) because different algorithms need different
    construction parameters ([d], a PRNG, a fit policy) while the
    simulator, the adversaries, and the benchmarks drive them
    uniformly. *)

type move = {
  task : Pmp_workload.Task.t;
  from_ : Placement.t;
  to_ : Placement.t;
}
(** One task relocated by a reallocation. *)

type response = {
  placement : Placement.t;  (** where the arriving task was put *)
  moves : move list;
      (** tasks relocated by the reallocation (if any) that this
          arrival triggered; excludes the arriving task itself *)
}

type carry = {
  arrived_since_repack : int;
      (** PEs arrived since the last repack: the d·N budget accumulator
          of the budgeted copy-stack and hybrid policies; 0 elsewhere *)
  realloc_count : int;  (** what [realloc_events] reports *)
  rng_state : int64;
      (** SplitMix64 state of a randomized policy; [0L] elsewhere *)
}
(** The scalar state an allocator carries beside its live placements.
    Together with the placements it determines every later decision. *)

val no_carry : carry
(** All zero: the carry of a fresh deterministic allocator. *)

type t = {
  name : string;
  machine : Pmp_machine.Machine.t;
  assign : Pmp_workload.Task.t -> response;
  remove : Pmp_workload.Task.id -> unit;
      (** departure of an active task. Implementations may raise
          [Invalid_argument] on unknown ids. *)
  placements : unit -> (Pmp_workload.Task.t * Placement.t) list;
      (** all active tasks and their current homes. *)
  realloc_events : unit -> int;
      (** number of reallocation (repack) operations performed. *)
  carry : unit -> carry;
  adopt : carry -> (Pmp_workload.Task.t * Placement.t) list -> unit;
      (** Install live placements and a carry into a {e fresh}
          allocator (no task seen yet) without running any placement
          decision. Afterwards the allocator answers every request as
          the one whose [placements ()] and [carry ()] were taken would
          have. Copy-stack policies reserve each placement in its copy,
          so the free blocks are those the live set leaves; load-based
          policies add each placement to their load view.
          @raise Invalid_argument if the allocator is not fresh, a
          placement does not fit its task or the machine, two
          placements of one copy overlap on a copy-stack policy, or the
          allocator does not support adoption (baselines). *)
}

val adopt_unsupported : string -> carry -> (Pmp_workload.Task.t * Placement.t) list -> unit
(** The [adopt] of an allocator that cannot be adopted into: raises
    [Invalid_argument] naming it. *)

val check_adoptable :
  string ->
  Pmp_machine.Machine.t ->
  (Pmp_workload.Task.t * Placement.t) list ->
  unit
(** [check_adoptable who machine live] raises [Invalid_argument] (prefixed
    with [who]) unless every placement has its task's size, lies inside
    the machine, and no id repeats. Shared by the [adopt]
    implementations. *)

val check_response :
  ?active:(Pmp_workload.Task.id -> bool) ->
  t -> Pmp_workload.Task.t -> response -> (unit, string) result
(** Structural validity of a response: the placement's submachine has
    exactly the task's size and lies inside the machine; every move
    preserves its task's size and both its source and destination lie
    inside the machine; no task is moved twice and the arriving task is
    never listed as a move. When [active] is given, moves of ids for
    which it returns [false] (departed or never-seen tasks) are also
    rejected. Used by the simulator in checked mode, the conformance
    oracle, and the test suite. *)
