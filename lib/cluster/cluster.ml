module Machine = Pmp_machine.Machine
module Task = Pmp_workload.Task
module Allocator = Pmp_core.Allocator
module Mirror = Pmp_core.Mirror
module Placement = Pmp_core.Placement
module Event = Pmp_workload.Event

type policy =
  | Greedy
  | Copies
  | Optimal
  | Periodic of Pmp_core.Realloc.t
  | Hybrid of Pmp_core.Realloc.t
  | Randomized of int

let policy_name = function
  | Greedy -> "greedy"
  | Copies -> "copies"
  | Optimal -> "optimal"
  | Periodic d -> Printf.sprintf "periodic(d=%s)" (Pmp_core.Realloc.to_string d)
  | Hybrid d -> Printf.sprintf "hybrid(d=%s)" (Pmp_core.Realloc.to_string d)
  | Randomized seed -> Printf.sprintf "randomized(seed=%d)" seed

type queued_task = { task : Task.t }

type t = {
  machine : Machine.t;
  policy : policy;
  alloc : Allocator.t;
  mirror : Mirror.t;
  capacity : int option;  (** PEs; [None] = unlimited (real-time model) *)
  queue : queued_task Queue.t;
  queued_ids : (Task.id, unit) Hashtbl.t;
  mutable next_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable peak_load : int;
  mutable tasks_migrated : int;
  trace : (Event.t -> unit) option;
      (** sees every allocator-visible event; the cluster keeps no
          history of its own *)
}

let make_allocator policy machine =
  match policy with
  | Greedy -> Pmp_core.Greedy.create machine
  | Copies -> Pmp_core.Copies.create machine
  | Optimal -> Pmp_core.Optimal.create machine
  | Periodic d -> Pmp_core.Periodic.create machine ~d
  | Hybrid d -> Pmp_core.Hybrid.create machine ~d
  | Randomized seed ->
      Pmp_core.Randomized.create machine ~rng:(Pmp_prng.Splitmix64.create seed)

let create ~machine_size ~policy ?(admission_cap = None) ?trace () =
  if not (Pmp_util.Pow2.is_pow2 machine_size) then
    Error "machine size must be a positive power of two"
  else begin
    match admission_cap with
    | Some cap when cap <= 0.0 -> Error "admission cap must be positive"
    | _ ->
        let machine = Machine.create machine_size in
        Ok
          {
            machine;
            policy;
            alloc = make_allocator policy machine;
            mirror = Mirror.create machine;
            capacity =
              Option.map
                (fun cap -> int_of_float (cap *. float_of_int machine_size))
                admission_cap;
            queue = Queue.create ();
            queued_ids = Hashtbl.create 16;
            next_id = 0;
            submitted = 0;
            completed = 0;
            peak_load = 0;
            tasks_migrated = 0;
            trace;
          }
  end

type submission = Placed of Task.id * Pmp_core.Placement.t | Queued of Task.id

let fits t size =
  match t.capacity with
  | None -> true
  | Some cap -> Mirror.active_size t.mirror + size <= cap

let place t task =
  let resp = t.alloc.Allocator.assign task in
  (match t.trace with Some f -> f (Event.Arrive task) | None -> ());
  Mirror.apply_assign t.mirror task resp;
  t.tasks_migrated <- t.tasks_migrated + List.length resp.Allocator.moves;
  let load = Mirror.max_load t.mirror in
  if load > t.peak_load then t.peak_load <- load;
  resp.Allocator.placement

let drain t =
  let rec go () =
    match Queue.peek_opt t.queue with
    | Some q when fits t q.task.Task.size ->
        ignore (Queue.pop t.queue);
        Hashtbl.remove t.queued_ids q.task.Task.id;
        ignore (place t q.task);
        go ()
    | Some _ | None -> ()
  in
  go ()

let depart t id =
  t.alloc.Allocator.remove id;
  Mirror.apply_remove t.mirror id;
  match t.trace with Some f -> f (Event.Depart id) | None -> ()

let submit t ~size =
  if not (Pmp_util.Pow2.is_pow2 size) then
    Error "size must be a positive power of two"
  else if size > Machine.size t.machine then Error "size exceeds the machine"
  else begin
    match t.capacity with
    | Some cap when size > cap -> Error "size exceeds the admission capacity"
    | _ ->
        let task = Task.make ~id:t.next_id ~size in
        t.next_id <- t.next_id + 1;
        t.submitted <- t.submitted + 1;
        if Queue.is_empty t.queue && fits t size then
          Ok (Placed (task.Task.id, place t task))
        else begin
          Queue.push { task } t.queue;
          Hashtbl.replace t.queued_ids task.Task.id ();
          Ok (Queued task.Task.id)
        end
  end

let finish t id =
  if Hashtbl.mem t.queued_ids id then begin
    (* cancellation of queued work *)
    Hashtbl.remove t.queued_ids id;
    let survivors = Queue.create () in
    Queue.iter
      (fun q -> if q.task.Task.id <> id then Queue.push q survivors)
      t.queue;
    Queue.clear t.queue;
    Queue.transfer survivors t.queue;
    t.completed <- t.completed + 1;
    drain t;
    Ok ()
  end
  else begin
    match Mirror.placement t.mirror id with
    | None -> Error (Printf.sprintf "task %d is not active" id)
    | Some _ ->
        depart t id;
        t.completed <- t.completed + 1;
        drain t;
        Ok ()
  end

let placement t id = Mirror.placement t.mirror id
let is_queued t id = Hashtbl.mem t.queued_ids id

type stats = {
  submitted : int;
  completed : int;
  queued_now : int;
  active_now : int;
  active_size : int;
  max_load : int;
  peak_load : int;
  optimal_now : int;
  reallocations : int;
  tasks_migrated : int;
}

let stats (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    queued_now = Queue.length t.queue;
    active_now = Mirror.num_active t.mirror;
    active_size = Mirror.active_size t.mirror;
    max_load = Mirror.max_load t.mirror;
    peak_load = t.peak_load;
    optimal_now =
      Pmp_util.Pow2.ceil_div (Mirror.active_size t.mirror)
        (Machine.size t.machine);
    reallocations = t.alloc.Allocator.realloc_events ();
    tasks_migrated = t.tasks_migrated;
  }

let leaf_loads t = Mirror.leaf_loads t.mirror
let machine_size t = Machine.size t.machine

let queued_tasks t =
  List.rev
    (Queue.fold
       (fun acc q -> (q.task.Task.id, q.task.Task.size) :: acc)
       [] t.queue)

let next_id t = t.next_id
let policy t = t.policy
let admission_capacity t = t.capacity

(* Rebuild a cluster from externalised state (snapshot + WAL replay).
   The allocator, mirror, peak load and migration count are all
   deterministic functions of the event history for a fixed policy, so
   they are reconstructed by replaying the events through the same code
   path live traffic took; only the queue and the submit/complete
   counters (which queued cancellations decouple from the history) are
   taken from the caller. *)
let ( let* ) = Result.bind

let restore ~machine_size ~policy ?(admission_cap = None) ~events:evs ~queued
    ~next_id ~submitted ~completed () =
  let* t = create ~machine_size ~policy ~admission_cap () in
  let* seq = Pmp_workload.Sequence.of_events evs in
  if not (Pmp_workload.Sequence.fits seq ~machine_size) then
    Error "history contains a task larger than the machine"
  else begin
    List.iter
      (fun ev ->
        match ev with
        | Pmp_workload.Event.Arrive task -> ignore (place t task)
        | Pmp_workload.Event.Depart id -> depart t id)
      evs;
    let used = Hashtbl.create 64 in
    List.iter
      (function
        | Pmp_workload.Event.Arrive task -> Hashtbl.replace used task.Task.id ()
        | Pmp_workload.Event.Depart _ -> ())
      evs;
    let queued_ok =
      List.for_all
        (fun (id, size) ->
          let fresh = id >= 0 && not (Hashtbl.mem used id) in
          Hashtbl.replace used id ();
          fresh && Pmp_util.Pow2.is_pow2 size && size <= machine_size
          && match t.capacity with Some cap -> size <= cap | None -> true)
        queued
    in
    if not queued_ok then Error "queued tasks are inconsistent with the history"
    else if queued <> [] && t.capacity = None then
      Error "queued tasks without an admission capacity"
    else if Hashtbl.fold (fun id () acc -> max acc id) used (-1) >= next_id then
      Error "next id collides with a used task id"
    else begin
      List.iter
        (fun (id, size) ->
          let task = Task.make ~id ~size in
          Queue.push { task } t.queue;
          Hashtbl.replace t.queued_ids id ())
        queued;
      let departed =
        List.length
          (List.filter
             (function Pmp_workload.Event.Depart _ -> true | _ -> false)
             evs)
      in
      if completed < departed then
        Error "completed count below the departures in the history"
      else if
        submitted - completed
        <> Mirror.num_active t.mirror + Queue.length t.queue
      then Error "submitted/completed counters do not balance the live tasks"
      else begin
        t.next_id <- next_id;
        t.submitted <- submitted;
        t.completed <- completed;
        Ok t
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* live state: export, adoption, audit                                 *)

(* A submodule, so that its labels never shadow those of [stats] in
   code that opens [Cluster]. *)
module State = struct
  type t = {
    next_id : int;
    submitted : int;
    completed : int;
    peak_load : int;
    tasks_migrated : int;
    carry : Allocator.carry;
    live : (Task.t * Placement.t) array;
    queued : (Task.id * int) list;
  }
end

let iter_live t f = Mirror.iter_flat t.mirror f
let carry t = t.alloc.Allocator.carry ()

let export (t : t) =
  let live = Array.of_list (Mirror.active t.mirror) in
  Array.sort
    (fun ((a : Task.t), _) ((b : Task.t), _) -> Int.compare a.Task.id b.Task.id)
    live;
  {
    State.next_id = t.next_id;
    submitted = t.submitted;
    completed = t.completed;
    peak_load = t.peak_load;
    tasks_migrated = t.tasks_migrated;
    carry = t.alloc.Allocator.carry ();
    live;
    queued = queued_tasks t;
  }

(* Copy-stack policies keep live tasks of one copy on disjoint leaves;
   the direct ones (greedy, hybrid, randomized, and [A_M] above its
   greedy threshold) stack load on copy 0. *)
let disjoint_copies t =
  match t.policy with
  | Copies | Optimal -> true
  | Periodic d -> not (Pmp_core.Realloc.exceeds_greedy_threshold d t.machine)
  | Greedy | Hybrid _ | Randomized _ -> false

let check b fmt =
  Printf.ksprintf (fun msg -> if b then Ok () else Error msg) fmt

let adopt ~machine_size ~policy ?(admission_cap = None) ?trace (x : State.t) =
  let* t = create ~machine_size ~policy ~admission_cap ?trace () in
  let live = Array.to_list x.live in
  let* () =
    check
      (x.next_id >= 0 && x.completed >= 0 && x.peak_load >= 0
     && x.tasks_migrated >= 0 && x.carry.Allocator.realloc_count >= 0
     && x.carry.Allocator.arrived_since_repack >= 0)
      "negative counter"
  in
  let* () =
    check
      (Array.for_all (fun ((task : Task.t), _) -> task.Task.id < x.next_id) x.live
      && List.for_all (fun (id, _) -> id >= 0 && id < x.next_id) x.queued)
      "a live or queued id is not below next id %d" x.next_id
  in
  let* () =
    match t.alloc.Allocator.adopt x.carry live with
    | () -> Ok ()
    | exception Invalid_argument e -> Error e
  in
  List.iter
    (fun ((task : Task.t), p) ->
      Mirror.apply_assign t.mirror task { Allocator.placement = p; moves = [] })
    live;
  let* () =
    check
      (match t.capacity with
      | Some cap -> Mirror.active_size t.mirror <= cap
      | None -> true)
      "live tasks exceed the admission capacity"
  in
  let* () =
    List.fold_left
      (fun acc (id, size) ->
        let* () = acc in
        let fresh =
          Mirror.placement t.mirror id = None && not (Hashtbl.mem t.queued_ids id)
        in
        let* () = check fresh "queued task %d is live or queued twice" id in
        let* () =
          check
            (Pmp_util.Pow2.is_pow2 size && size <= machine_size
            && match t.capacity with Some cap -> size <= cap | None -> false)
            "queued task %d has an inadmissible size %d" id size
        in
        Queue.push { task = Task.make ~id ~size } t.queue;
        Hashtbl.replace t.queued_ids id ();
        Ok ())
      (Ok ()) x.queued
  in
  let* () =
    check
      (match Queue.peek_opt t.queue with
      | Some q -> not (fits t q.task.Task.size)
      | None -> true)
      "the queue head fits: it would have been admitted"
  in
  let* () =
    check
      (x.submitted - x.completed = Mirror.num_active t.mirror + Queue.length t.queue)
      "submitted/completed counters do not balance the live tasks"
  in
  let* () =
    check (x.peak_load >= Mirror.max_load t.mirror) "peak load below the current load"
  in
  t.next_id <- x.next_id;
  t.submitted <- x.submitted;
  t.completed <- x.completed;
  t.peak_load <- x.peak_load;
  t.tasks_migrated <- x.tasks_migrated;
  Ok t

(* The audit works from the cluster's own task table (its mirror) and
   recomputes everything else independently of the adoption path. *)
let audit t =
  let n = Machine.size t.machine in
  let x = export t in
  let* () =
    Array.fold_left
      (fun acc ((task : Task.t), (p : Placement.t)) ->
        let* () = acc in
        let sub = p.Placement.sub in
        check
          (Pmp_util.Pow2.is_pow2 task.Task.size
          && Pmp_machine.Submachine.size sub = task.Task.size
          && Pmp_machine.Submachine.first_leaf sub >= 0
          && Pmp_machine.Submachine.last_leaf sub < n
          && p.Placement.copy >= 0)
          "task %d does not fit its placement in the machine" task.Task.id)
      (Ok ()) x.live
  in
  let* () =
    if not (disjoint_copies t) then Ok ()
    else begin
      (* sorted by (copy, first leaf), each block must end before the
         next one of its copy starts *)
      let spans =
        Array.map
          (fun ((task : Task.t), (p : Placement.t)) ->
            ( p.Placement.copy,
              Pmp_machine.Submachine.first_leaf p.Placement.sub,
              Pmp_machine.Submachine.last_leaf p.Placement.sub,
              task.Task.id ))
          x.live
      in
      Array.sort compare spans;
      let clash = ref None in
      for i = 1 to Array.length spans - 1 do
        let c0, _, last0, id0 = spans.(i - 1) and c1, first1, _, id1 = spans.(i) in
        if c0 = c1 && first1 <= last0 && !clash = None then clash := Some (id0, id1, c1)
      done;
      match !clash with
      | None -> Ok ()
      | Some (a, b, c) -> Error (Printf.sprintf "tasks %d and %d overlap on copy %d" a b c)
    end
  in
  let recount = Array.make (n + 1) 0 in
  Array.iter
    (fun (_, (p : Placement.t)) ->
      let sub = p.Placement.sub in
      recount.(Pmp_machine.Submachine.first_leaf sub) <-
        recount.(Pmp_machine.Submachine.first_leaf sub) + 1;
      recount.(Pmp_machine.Submachine.last_leaf sub + 1) <-
        recount.(Pmp_machine.Submachine.last_leaf sub + 1) - 1)
    x.live;
  for i = 1 to n do
    recount.(i) <- recount.(i) + recount.(i - 1)
  done;
  let loads = Mirror.leaf_loads t.mirror in
  let* () =
    let rec go i =
      if i = n then Ok ()
      else if loads.(i) <> recount.(i) then
        Error
          (Printf.sprintf "leaf %d carries load %d, its placements add up to %d" i
             loads.(i) recount.(i))
      else go (i + 1)
    in
    go 0
  in
  let max_recount = Array.fold_left max 0 (Array.sub recount 0 n) in
  let* () =
    check
      (Mirror.max_load t.mirror = max_recount && t.peak_load >= max_recount)
      "max load %d / peak load %d disagree with the recount %d"
      (Mirror.max_load t.mirror) t.peak_load max_recount
  in
  let* () =
    check
      (t.submitted - t.completed = Array.length x.live + Queue.length t.queue
      && Hashtbl.length t.queued_ids = Queue.length t.queue
      && Array.for_all (fun ((task : Task.t), _) -> task.Task.id < t.next_id) x.live
      && List.for_all
           (fun (id, _) -> id < t.next_id && Mirror.placement t.mirror id = None)
           x.queued)
      "counters and ids do not balance the live and queued tasks"
  in
  (* the allocator's own view against an independent table of the live
     set: same tasks, same homes (a mirror without the load view) *)
  let homes = Hashtbl.create (Array.length x.live) in
  Array.iter (fun ((task : Task.t), p) -> Hashtbl.replace homes task.Task.id p) x.live;
  let theirs = t.alloc.Allocator.placements () in
  let* () =
    check
      (List.length theirs = Hashtbl.length homes)
      "allocator view: %d active tasks, the cluster has %d" (List.length theirs)
      (Hashtbl.length homes)
  in
  match
    List.find_opt
      (fun ((task : Task.t), p) ->
        match Hashtbl.find_opt homes task.Task.id with
        | Some q -> not (Placement.equal p q)
        | None -> true)
      theirs
  with
  | None -> Ok ()
  | Some (task, _) ->
      Error (Printf.sprintf "allocator view: task %d is not where the cluster has it" task.Task.id)
