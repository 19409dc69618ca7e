module Task = Pmp_workload.Task

let create ?(fit = Copystack.Leftmost) m : Allocator.t =
  let stack = Copystack.create ~fit m in
  let table : (Task.id, Task.t * Placement.t) Hashtbl.t = Hashtbl.create 64 in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Copies.assign: task larger than machine";
    let placement = Copystack.alloc stack ~order:(Task.order task) in
    Hashtbl.replace table task.id (task, placement);
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Hashtbl.find_opt table id with
    | None -> invalid_arg "Copies.remove: unknown task"
    | Some (_, p) ->
        Copystack.free stack p;
        Hashtbl.remove table id
  in
  let placements () = Hashtbl.fold (fun _ tp acc -> tp :: acc) table [] in
  let adopt _ live =
    if Hashtbl.length table > 0 then invalid_arg "Copies.adopt: not fresh";
    Allocator.check_adoptable "Copies.adopt" m live;
    List.iter
      (fun ((task : Task.t), p) ->
        Copystack.reserve stack p;
        Hashtbl.replace table task.id (task, p))
      live
  in
  {
    Allocator.name =
      (match fit with
      | Copystack.Leftmost -> "copies"
      | Copystack.Best_fit -> "copies-bestfit");
    machine = m;
    assign;
    remove;
    placements;
    realloc_events = (fun () -> 0);
    carry = (fun () -> Allocator.no_carry);
    adopt;
  }
