(** Deterministic SplitMix64 pseudo-random number generator.

    All randomness in the repository — randomized allocation, workload
    generation, the Theorem 5.2 random sequence — flows through this
    generator so that every experiment is exactly reproducible from a
    seed. SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) passes BigCrush,
    has a one-word state, and supports cheap stream splitting, which we
    use to give independent substreams to independent components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds
    yield equal streams. *)

val copy : t -> t
(** Independent copy with identical current state. *)

val state : t -> int64
(** The one-word state: [set_state (create s) (state g)] continues
    exactly as [g] does. *)

val set_state : t -> int64 -> unit

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    (statistically) independent of the continuation of [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)
