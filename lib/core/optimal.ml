module Task = Pmp_workload.Task

let create m : Allocator.t =
  let table : (Task.id, Task.t * Placement.t) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref (Copystack.create m) in
  let reallocs = ref 0 in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Optimal.assign: task larger than machine";
    let actives = Hashtbl.fold (fun _ (t, p) acc -> (t, p) :: acc) table [] in
    let all_tasks = task :: List.map fst actives in
    let new_stack, packed = Repack.pack m all_tasks in
    stack := new_stack;
    incr reallocs;
    let moves =
      List.filter_map
        (fun ((t : Task.t), old_p) ->
          let new_p = Hashtbl.find packed t.id in
          Hashtbl.replace table t.id (t, new_p);
          if Placement.equal old_p new_p then None
          else Some { Allocator.task = t; from_ = old_p; to_ = new_p })
        actives
    in
    let placement = Hashtbl.find packed task.id in
    Hashtbl.replace table task.id (task, placement);
    { Allocator.placement; moves }
  in
  let remove id =
    match Hashtbl.find_opt table id with
    | None -> invalid_arg "Optimal.remove: unknown task"
    | Some (_, p) ->
        Copystack.free !stack p;
        Hashtbl.remove table id
  in
  let placements () = Hashtbl.fold (fun _ tp acc -> tp :: acc) table [] in
  let adopt (c : Allocator.carry) live =
    if Hashtbl.length table > 0 || !reallocs > 0 then
      invalid_arg "Optimal.adopt: not fresh";
    Allocator.check_adoptable "Optimal.adopt" m live;
    List.iter
      (fun ((task : Task.t), p) ->
        Copystack.reserve !stack p;
        Hashtbl.replace table task.id (task, p))
      live;
    reallocs := c.Allocator.realloc_count
  in
  {
    Allocator.name = "optimal";
    machine = m;
    assign;
    remove;
    placements;
    realloc_events = (fun () -> !reallocs);
    carry = (fun () -> { Allocator.no_carry with realloc_count = !reallocs });
    adopt;
  }
