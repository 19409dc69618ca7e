module Task = Pmp_workload.Task
module Load_view = Pmp_index.Load_view
module Probe = Pmp_telemetry.Probe

let create ?(probe = Probe.noop) ?(backend = Load_view.Indexed) m : Allocator.t =
  let loads = Load_view.create ~backend m in
  let table : (Task.id, Task.t * Placement.t) Hashtbl.t = Hashtbl.create 64 in
  let assign (task : Task.t) =
    if task.size > Pmp_machine.Machine.size m then
      invalid_arg "Greedy.assign: task larger than machine";
    let t0 = Probe.now probe in
    let _, sub = Load_view.min_max_at_order loads (Task.order task) in
    Probe.record_placement probe ~elapsed:(Probe.now probe -. t0);
    Load_view.add loads sub 1;
    let placement = Placement.direct sub in
    Hashtbl.replace table task.id (task, placement);
    { Allocator.placement; moves = [] }
  in
  let remove id =
    match Hashtbl.find_opt table id with
    | None -> invalid_arg "Greedy.remove: unknown task"
    | Some (_, p) ->
        Load_view.add loads p.sub (-1);
        Hashtbl.remove table id
  in
  let placements () = Hashtbl.fold (fun _ tp acc -> tp :: acc) table [] in
  let adopt _ live =
    if Hashtbl.length table > 0 then invalid_arg "Greedy.adopt: not fresh";
    Allocator.check_adoptable "Greedy.adopt" m live;
    List.iter
      (fun ((task : Task.t), (p : Placement.t)) ->
        Load_view.add loads p.sub 1;
        Hashtbl.replace table task.id (task, p))
      live
  in
  {
    Allocator.name = "greedy";
    machine = m;
    assign;
    remove;
    placements;
    realloc_events = (fun () -> 0);
    carry = (fun () -> Allocator.no_carry);
    adopt;
  }
