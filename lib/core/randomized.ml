module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine

let create m ~rng : Allocator.t =
  let table : (Task.id, Task.t * Placement.t) Hashtbl.t = Hashtbl.create 64 in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Randomized.assign: task larger than machine";
    let order = Task.order task in
    let slots = Sub.count_at_order m order in
    let index = Pmp_prng.Splitmix64.int rng slots in
    let placement = Placement.direct (Sub.make m ~order ~index) in
    Hashtbl.replace table task.id (task, placement);
    { Allocator.placement; moves = [] }
  in
  let remove id =
    if not (Hashtbl.mem table id) then
      invalid_arg "Randomized.remove: unknown task";
    Hashtbl.remove table id
  in
  let placements () = Hashtbl.fold (fun _ tp acc -> tp :: acc) table [] in
  let adopt (c : Allocator.carry) live =
    if Hashtbl.length table > 0 then invalid_arg "Randomized.adopt: not fresh";
    Allocator.check_adoptable "Randomized.adopt" m live;
    List.iter
      (fun ((task : Task.t), p) -> Hashtbl.replace table task.id (task, p))
      live;
    Pmp_prng.Splitmix64.set_state rng c.Allocator.rng_state
  in
  let carry () =
    { Allocator.no_carry with rng_state = Pmp_prng.Splitmix64.state rng }
  in
  {
    Allocator.name = "randomized";
    machine = m;
    assign;
    remove;
    placements;
    realloc_events = (fun () -> 0);
    carry;
    adopt;
  }
