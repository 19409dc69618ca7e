module Cluster = Pmp_cluster.Cluster
module Realloc = Pmp_core.Realloc
module Allocator = Pmp_core.Allocator
module Placement = Pmp_core.Placement
module Sub = Pmp_machine.Submachine
module Task = Pmp_workload.Task

type t = {
  seq : int;
  machine_size : int;
  policy : Cluster.policy;
  admission_cap : float option;
  state : Cluster.State.t;
}

let d_to_string = function
  | Realloc.Every -> "0"
  | Realloc.Budget b -> string_of_int b
  | Realloc.Never -> "inf"

let d_of_string s =
  match s with
  | "inf" -> Ok Realloc.Never
  | _ -> (
      match int_of_string_opt s with
      | Some v when v >= 0 -> Ok (Realloc.make_budget v)
      | Some _ | None -> Error (Printf.sprintf "bad d value %S" s))

let policy_to_string = function
  | Cluster.Greedy -> "greedy"
  | Cluster.Copies -> "copies"
  | Cluster.Optimal -> "optimal"
  | Cluster.Periodic d -> "periodic:" ^ d_to_string d
  | Cluster.Hybrid d -> "hybrid:" ^ d_to_string d
  | Cluster.Randomized seed -> "randomized:" ^ string_of_int seed

let ( let* ) = Result.bind

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "greedy" ] -> Ok Cluster.Greedy
  | [ "copies" ] -> Ok Cluster.Copies
  | [ "optimal" ] -> Ok Cluster.Optimal
  | [ "periodic"; d ] ->
      let* d = d_of_string d in
      Ok (Cluster.Periodic d)
  | [ "hybrid"; d ] ->
      let* d = d_of_string d in
      Ok (Cluster.Hybrid d)
  | [ "randomized"; seed ] -> (
      match int_of_string_opt seed with
      | Some seed -> Ok (Cluster.Randomized seed)
      | None -> Error (Printf.sprintf "bad randomized seed %S" seed))
  | _ -> Error (Printf.sprintf "unknown policy %S" s)

let restore t =
  Cluster.adopt ~machine_size:t.machine_size ~policy:t.policy
    ~admission_cap:t.admission_cap t.state

(* ------------------------------------------------------------------ *)
(* the binary encoding                                                 *)

let magic = "PMPS"
let format = 2
let digest_len = 16

(* The encoding buffer: a growable [Bytes.t] the server keeps across
   snapshots, so a snapshot allocates nothing in proportion to the live
   state, and the digest and the write read it in place. *)
type buffer = { mutable b : Bytes.t; mutable n : int }

let buffer () = { b = Bytes.create 4096; n = 0 }

let ensure w k =
  if w.n + k > Bytes.length w.b then begin
    let b' = Bytes.create (max (w.n + k) (2 * Bytes.length w.b)) in
    Bytes.blit w.b 0 b' 0 w.n;
    w.b <- b'
  end

let add_byte w c =
  ensure w 1;
  Bytes.unsafe_set w.b w.n (Char.unsafe_chr c);
  w.n <- w.n + 1


(* The unchecked varint store of the per-task loop: one [ensure] per
   entry covers all of its fields. *)
let rec put_varint b pos v =
  if v land lnot 0x7f = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_varint b (pos + 1) (v lsr 7)
  end

let entry_max = (3 * Wire.max_varint_bytes) + 1

let add_varint w v =
  ensure w Wire.max_varint_bytes;
  w.n <- put_varint w.b w.n v

let add_int64 w v =
  ensure w 8;
  Bytes.set_int64_le w.b w.n v;
  w.n <- w.n + 8

(* Counters are fixed-width so the header's size does not grow with
   history. *)
let add_fixed w v = add_int64 w (Int64.of_int v)

let add_string w s =
  ensure w (String.length s);
  Bytes.blit_string s 0 w.b w.n (String.length s);
  w.n <- w.n + String.length s

(* Each live task's id is written as its age in ids, [next_id - 1 -
   id]. The task table is walked in place (no export, no sort), so the
   entry order is unspecified; adoption takes any order. *)
let encode w ~seq ~admission_cap cluster =
  let st = Cluster.stats cluster and next_id = Cluster.next_id cluster in
  w.n <- 0;
  add_string w magic;
  add_varint w format;
  add_fixed w seq;
  add_varint w (Cluster.machine_size cluster);
  let policy = policy_to_string (Cluster.policy cluster) in
  add_varint w (String.length policy);
  add_string w policy;
  (match admission_cap with
  | None -> add_byte w 0
  | Some c ->
      add_byte w 1;
      add_int64 w (Int64.bits_of_float c));
  add_fixed w next_id;
  add_fixed w st.Cluster.submitted;
  add_fixed w st.Cluster.completed;
  add_fixed w st.Cluster.peak_load;
  add_fixed w st.Cluster.tasks_migrated;
  let c = Cluster.carry cluster in
  add_fixed w c.Allocator.realloc_count;
  add_fixed w c.Allocator.arrived_since_repack;
  add_int64 w c.Allocator.rng_state;
  add_varint w st.Cluster.active_now;
  Cluster.iter_live cluster (fun id order index copy ->
      ensure w entry_max;
      let b = w.b in
      let pos = put_varint b w.n (next_id - 1 - id) in
      Bytes.unsafe_set b pos (Char.unsafe_chr order);
      let pos = put_varint b (pos + 1) index in
      w.n <- put_varint b pos copy);
  add_varint w st.Cluster.queued_now;
  List.iter
    (fun (id, size) ->
      add_varint w (next_id - 1 - id);
      add_varint w size)
    (Cluster.queued_tasks cluster);
  add_string w (Digest.subbytes w.b 0 w.n)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let decode str =
  let len = String.length str - digest_len in
  if len < String.length magic then bad "truncated";
  if String.sub str len digest_len <> Digest.substring str 0 len then
    bad "digest mismatch (corrupt or truncated file)";
  if String.sub str 0 (String.length magic) <> magic then bad "bad magic";
  let pos = ref (String.length magic) in
  let varint () =
    match Wire.get_varint_string str !pos len with
    | v, p ->
        pos := p;
        v
    | exception Wire.Corrupt e -> bad "%s" e
  in
  let take n =
    if !pos + n > len then bad "truncated";
    let p = !pos in
    pos := p + n;
    p
  in
  let fixed () = Int64.to_int (String.get_int64_le str (take 8)) in
  let v = varint () in
  if v <> format then bad "unknown format %d" v;
  let seq = fixed () in
  let machine_size = varint () in
  let policy =
    let n = varint () in
    if n < 0 then bad "bad policy length";
    match policy_of_string (String.sub str (take n) n) with
    | Ok p -> p
    | Error e -> bad "%s" e
  in
  let admission_cap =
    match str.[take 1] with
    | '\000' -> None
    | '\001' -> Some (Int64.float_of_bits (String.get_int64_le str (take 8)))
    | _ -> bad "bad admission cap tag"
  in
  let next_id = fixed () in
  let submitted = fixed () in
  let completed = fixed () in
  let peak_load = fixed () in
  let tasks_migrated = fixed () in
  let realloc_count = fixed () in
  let arrived_since_repack = fixed () in
  let rng_state = String.get_int64_le str (take 8) in
  if not (Pmp_util.Pow2.is_pow2 machine_size) then bad "bad machine size";
  let machine = Pmp_machine.Machine.create machine_size in
  let levels = Pmp_machine.Machine.levels machine in
  let n_live = varint () in
  (* every entry takes at least four bytes: bounds the allocation *)
  if n_live < 0 || n_live > (len - !pos) / 4 then bad "bad live count";
  let live = Array.make n_live (Task.make ~id:0 ~size:1, Placement.direct (Sub.root machine)) in
  for i = 0 to n_live - 1 do
    let id = next_id - 1 - varint () in
    let order = Char.code str.[take 1] in
    if order > levels then bad "task %d: order %d exceeds the machine" id order;
    let index = varint () in
    let copy = varint () in
    match Sub.make machine ~order ~index with
    | sub when copy >= 0 && id >= 0 ->
        live.(i) <- (Task.make ~id ~size:(1 lsl order), Placement.make ~copy sub)
    | _ | (exception Invalid_argument _) -> bad "task %d: bad placement" id
  done;
  let n_queued = varint () in
  if n_queued < 0 || n_queued > (len - !pos) / 2 then bad "bad queue length";
  let queued =
    List.init n_queued (fun _ ->
        let id = next_id - 1 - varint () in
        let size = varint () in
        (id, size))
  in
  if !pos <> len then bad "trailing bytes";
  {
    seq;
    machine_size;
    policy;
    admission_cap;
    state =
      {
        Cluster.State.next_id;
        submitted;
        completed;
        peak_load;
        tasks_migrated;
        carry = { Allocator.realloc_count; arrived_since_repack; rng_state };
        live;
        queued;
      };
  }

(* ------------------------------------------------------------------ *)
(* files                                                               *)

let file_of_seq seq = Printf.sprintf "snapshot-%010d.bin" seq

let is_snapshot name = String.starts_with ~prefix:"snapshot-" name

let seq_of_file name =
  match Scanf.sscanf_opt name "snapshot-%d.bin%!" Fun.id with
  | Some seq when name = file_of_seq seq -> Some seq
  | _ -> None

let is_legacy name = is_snapshot name && Filename.check_suffix name ".json"

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write_all fd b len =
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0

let save ?(buf = buffer ()) ~dir ~seq ~admission_cap cluster =
  encode buf ~seq ~admission_cap cluster;
  let path = Filename.concat dir (file_of_seq seq) in
  let tmp = path ^ ".tmp" in
  (try
     let fd =
       Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
     in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         write_all fd buf.b buf.n;
         Unix.fsync fd);
     Sys.rename tmp path;
     (* the rename itself must be durable before the caller truncates
        the WAL it makes redundant *)
     fsync_dir dir
   with Unix.Unix_error (e, fn, _) ->
     raise (Sys_error (Printf.sprintf "%s: %s: %s" tmp fn (Unix.error_message e))));
  path

let load path =
  if is_legacy (Filename.basename path) then
    Error
      (Printf.sprintf
         "%s is a JSON history snapshot, a format this pmpd no longer reads \
          (it recovers live-state snapshot-*.bin files only); there is no \
          upgrade path: serve from an empty state directory"
         path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | str -> (
        match decode str with
        | t -> Ok t
        | exception Bad e -> Error (Printf.sprintf "snapshot %s: %s" path e))

(* A legacy JSON snapshot wins over everything else, so that a state
   directory holding one is refused rather than silently recovered
   from the WAL alone. *)
let latest ~dir =
  if not (Sys.file_exists dir) then None
  else
    let names = Sys.readdir dir in
    match Array.find_opt is_legacy names with
    | Some name -> Some (Filename.concat dir name, -1)
    | None ->
        Array.fold_left
          (fun best name ->
            match seq_of_file name with
            | Some seq
              when match best with None -> true | Some (_, s) -> seq > s ->
                Some (Filename.concat dir name, seq)
            | _ -> best)
          None names

let prune ~dir ~keep =
  let keep = Filename.basename keep in
  Array.iter
    (fun name ->
      if is_snapshot name && name <> keep then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])
