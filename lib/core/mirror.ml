module Task = Pmp_workload.Task
module Sub = Pmp_machine.Submachine
module Load_view = Pmp_index.Load_view

(* Besides the id-keyed table, every active task owns a slot in flat
   int arrays (id, packed submachine, copy), kept dense by swap-remove.
   Walking the live set then reads a few contiguous arrays instead of
   chasing a table cell, an entry, a task, a placement and a
   submachine per task, which on a large cold heap costs a cache miss
   each: the snapshot writer's path. *)
type entry = { task : Task.t; mutable p : Placement.t; mutable slot : int }

type t = {
  m : Pmp_machine.Machine.t;
  loads : Load_view.t;
  table : (Task.id, entry) Hashtbl.t;
  mutable active_size : int;
  mutable n : int;  (** live slots *)
  mutable ids : int array;
  mutable subs : int array;  (** [index lsl 6 lor order] *)
  mutable copies : int array;
  mutable entries : entry array;
}

(* fills unused slots, so no departed task is kept alive *)
let vacant =
  {
    task = Task.make ~id:0 ~size:1;
    p = Placement.direct { Sub.order = 0; index = 0 };
    slot = -1;
  }

let pack_sub sub = (Sub.index sub lsl 6) lor Sub.order sub

let create ?backend m =
  {
    m;
    loads = Load_view.create ?backend m;
    table = Hashtbl.create 64;
    active_size = 0;
    n = 0;
    ids = [||];
    subs = [||];
    copies = [||];
    entries = [||];
  }

let machine t = t.m

let set_slot t i (e : entry) =
  t.ids.(i) <- e.task.Task.id;
  t.subs.(i) <- pack_sub e.p.Placement.sub;
  t.copies.(i) <- e.p.Placement.copy;
  t.entries.(i) <- e;
  e.slot <- i

let grow t =
  let cap = max 16 (2 * t.n) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.ids <- extend t.ids 0;
  t.subs <- extend t.subs 0;
  t.copies <- extend t.copies 0;
  t.entries <- extend t.entries vacant

(* [Hashtbl.add]: callers have checked the id is not in the table *)
let add_entry t e =
  if t.n = Array.length t.ids then grow t;
  set_slot t t.n e;
  t.n <- t.n + 1;
  Hashtbl.add t.table e.task.Task.id e

let remove_entry t (e : entry) =
  Hashtbl.remove t.table e.task.Task.id;
  t.n <- t.n - 1;
  if e.slot < t.n then set_slot t e.slot t.entries.(t.n);
  t.entries.(t.n) <- vacant

let apply_move t (mv : Allocator.move) =
  let id = mv.task.Task.id in
  match Hashtbl.find_opt t.table id with
  | None -> invalid_arg "Mirror.apply_assign: move of unknown task"
  | Some e ->
      if not (Placement.equal e.p mv.from_) then
        invalid_arg "Mirror.apply_assign: move disagrees on old placement";
      Load_view.add t.loads e.p.Placement.sub (-1);
      Load_view.add t.loads mv.to_.Placement.sub 1;
      e.p <- mv.to_;
      t.subs.(e.slot) <- pack_sub mv.to_.Placement.sub;
      t.copies.(e.slot) <- mv.to_.Placement.copy

let apply_assign t (task : Task.t) (resp : Allocator.response) =
  if Hashtbl.mem t.table task.id then
    invalid_arg "Mirror.apply_assign: task already active";
  List.iter (apply_move t) resp.moves;
  add_entry t { task; p = resp.placement; slot = -1 };
  Load_view.add t.loads resp.placement.Placement.sub 1;
  t.active_size <- t.active_size + task.size

let apply_remove t id =
  match Hashtbl.find t.table id with
  | exception Not_found -> invalid_arg "Mirror.apply_remove: unknown task"
  | e ->
      Load_view.add t.loads e.p.Placement.sub (-1);
      remove_entry t e;
      t.active_size <- t.active_size - e.task.Task.size

(* [Hashtbl.find] + handler rather than [find_opt]: one [Some] on the
   daemon's query fast path. *)
let placement t id =
  match Hashtbl.find t.table id with
  | e -> Some e.p
  | exception Not_found -> None

let iter_flat t f =
  for i = 0 to t.n - 1 do
    let s = t.subs.(i) in
    f t.ids.(i) (s land 63) (s lsr 6) t.copies.(i)
  done

let active t = Hashtbl.fold (fun _ e acc -> (e.task, e.p) :: acc) t.table []
let num_active t = Hashtbl.length t.table
let active_size t = t.active_size

let max_load t = Load_view.max_overall t.loads
let max_load_in t sub = Load_view.max_load t.loads sub
let imbalance t = Load_view.imbalance t.loads
let loads_at_order t ~order = Load_view.loads_at_order t.loads order

let assigned_size_in t sub =
  Hashtbl.fold
    (fun _ { task; p; _ } acc ->
      let home = p.Placement.sub in
      let intersects =
        Sub.contains sub home || Sub.contains home sub
      in
      if intersects then acc + task.size else acc)
    t.table 0

let tasks_inside t sub =
  Hashtbl.fold
    (fun _ { task; p; _ } acc ->
      if Sub.contains sub p.Placement.sub then task :: acc else acc)
    t.table []

let leaf_loads t = Load_view.leaf_loads t.loads

let check_against t (alloc : Allocator.t) =
  let theirs = alloc.placements () in
  if List.length theirs <> Hashtbl.length t.table then
    Error
      (Printf.sprintf "mirror has %d active tasks, allocator reports %d"
         (Hashtbl.length t.table) (List.length theirs))
  else begin
    let rec check = function
      | [] -> Ok ()
      | ((task : Task.t), their_p) :: rest -> begin
          match Hashtbl.find_opt t.table task.id with
          | None ->
              Error (Printf.sprintf "allocator reports unknown task %d" task.id)
          | Some { p = our_p; _ } ->
              if Placement.equal our_p their_p then check rest
              else
                Error
                  (Printf.sprintf "task %d: mirror and allocator disagree"
                     task.id)
        end
    in
    check theirs
  end
