(* The domain-sharded pmpd: K worker domains, each owning one aligned
   subtree of the machine, an acceptor feeding them connections over
   SPSC rings, and a single WAL-writer domain that preserves the
   written-vs-durable acknowledgement contract of the single-core
   server. See mserver.mli for the architecture notes. *)

module Cluster = Pmp_cluster.Cluster
module Metrics = Pmp_telemetry.Metrics
module Sharding = Pmp_util.Sharding
module Spsc = Pmp_util.Spsc

type config = {
  base : Server.config;
  domains : int;
  steal_threshold : int;
}

let default_steal_threshold = 1

exception Fatal of string

(* ------------------------------------------------------------------ *)
(* messages between domains                                            *)

(* Work a shard asks of a peer. Ids are global; sizes are raw. *)
type peer_kind =
  | P_submit of int  (** steal: admit a task of this size over there *)
  | P_finish of int
  | P_query of int
  | P_stats
  | P_loads
  | P_metrics

(* Peer traffic shares one ring per ordered pair. Calls are
   synchronous (a shard has at most one outstanding request, and at
   most one response owed), so every peer ring holds at most two
   messages and [`Full] is unreachable on them. The int on [Presp] is
   the responder's durability ticket: the origin must not release the
   client acknowledgement until the responder's durable watermark
   reaches it (0 = nothing to wait for). *)
type peer_msg =
  | Preq of int * peer_kind  (** origin shard, request *)
  | Presp of Protocol.response * int

(* One accepted mutation on its way to the WAL domain: the op (global
   id) plus the owning shard's mutation ticket. *)
type wal_msg = { w_shard : int; w_mut : int; w_op : Wal.op }

(* ------------------------------------------------------------------ *)
(* shared state                                                        *)

(* Everything the domains share. Rings are SPSC by construction
   (exactly one producer and one consumer each); the rest is Atomics
   and self-pipes. Pipes are pure wake-up hints — every loop is
   level-triggered, so a lost or spurious byte costs one timeout, not
   correctness. Pipe index: shard [s] at [s], the WAL writer at [K],
   the acceptor at [K + 1]. *)
type shared = {
  plan : Sharding.plan;
  cfg : config;
  acc : Unix.file_descr Spsc.t array;  (** acceptor -> shard *)
  peer : peer_msg Spsc.t array array;  (** [peer.(src).(dst)] *)
  walq : wal_msg Spsc.t array;  (** shard -> WAL writer *)
  durable : int Atomic.t array;
      (** per shard: highest mutation ticket covered by the WAL per the
          fsync policy — advanced only by the WAL domain *)
  queued_pub : int Atomic.t array;  (** published queued_now, per shard *)
  active_pub : int Atomic.t array;  (** published active PE-size *)
  fsyncs : int Atomic.t;
  wal_lag : int Atomic.t;
  wal_seq : int Atomic.t;  (** last global sequence number assigned *)
  stop : bool Atomic.t;
  quiesced_n : int Atomic.t;  (** shards that stopped reading sockets *)
  shards_done : int Atomic.t;
  fail : string option Atomic.t;
  pipes_r : Unix.file_descr array;
  pipes_w : Unix.file_descr array;
  started : float;
  recovered : int;
}

let wake sh i =
  let b = Bytes.make 1 '!' in
  match Unix.single_write sh.pipes_w.(i) b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _)
    -> ()

let wake_all sh = Array.iteri (fun i _ -> wake sh i) sh.pipes_w

let note_fail sh msg =
  ignore (Atomic.compare_and_set sh.fail None (Some msg));
  Atomic.set sh.stop true;
  wake_all sh

let fatal sh msg =
  note_fail sh msg;
  raise (Fatal msg)

let check_fail sh =
  match Atomic.get sh.fail with Some m -> raise (Fatal m) | None -> ()

(* Producer side of any ring. Spins on [`Full] (only possible on the
   acceptor and WAL rings, whose consumers always drain); wakes the
   consumer on the empty->nonempty transition, which is enough because
   every consumer fully drains its rings before sleeping. *)
let spin_push sh ring msg ~wake_i =
  let rec go n =
    match Spsc.push ring msg with
    | `Pushed `Was_empty -> wake sh wake_i
    | `Pushed `Was_nonempty -> ()
    | `Full ->
        check_fail sh;
        if n land 1023 = 0 then wake sh wake_i;
        Domain.cpu_relax ();
        go (n + 1)
  in
  go 1

let drain_pipe fd =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read fd buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* merged statistics                                                   *)

(* Sums the additive fields, maxes the load fields (the shards
   partition the PEs, so the global max load is the max of the shard
   maxes and likewise for the peaks), and recomputes [optimal_now]
   over the whole machine. *)
let merge_stats ~machine_size parts =
  match parts with
  | [] -> invalid_arg "Mserver.merge_stats: no shards"
  | (hd : Cluster.stats) :: tl ->
      let acc =
        List.fold_left
          (fun (a : Cluster.stats) (s : Cluster.stats) ->
            {
              Cluster.submitted = a.Cluster.submitted + s.Cluster.submitted;
              completed = a.Cluster.completed + s.Cluster.completed;
              queued_now = a.Cluster.queued_now + s.Cluster.queued_now;
              active_now = a.Cluster.active_now + s.Cluster.active_now;
              active_size = a.Cluster.active_size + s.Cluster.active_size;
              max_load = max a.Cluster.max_load s.Cluster.max_load;
              peak_load = max a.Cluster.peak_load s.Cluster.peak_load;
              optimal_now = 0;
              reallocations = a.Cluster.reallocations + s.Cluster.reallocations;
              tasks_migrated =
                a.Cluster.tasks_migrated + s.Cluster.tasks_migrated;
            })
          hd tl
      in
      {
        acc with
        Cluster.optimal_now =
          (if acc.Cluster.active_size = 0 then 0
           else (acc.Cluster.active_size + machine_size - 1) / machine_size);
      }

(* ------------------------------------------------------------------ *)
(* creation and recovery                                               *)

let ( let* ) = Result.bind

let marker_path dir = Filename.concat dir "domains"

let read_marker dir =
  match In_channel.with_open_text (marker_path dir) In_channel.input_all with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> None

let write_marker dir k =
  Out_channel.with_open_text (marker_path dir) (fun oc ->
      Out_channel.output_string oc (string_of_int k ^ "\n"))

type t = {
  cfg : config;
  plan : Sharding.plan;
  clusters : Cluster.t array;
  wal : Wal.t;
  seq0 : int;
  recovered : int;
}

let recovered_ops t = t.recovered
let seq t = t.seq0
let shard_stats t = Array.to_list (Array.map Cluster.stats t.clusters)

let merged_stats t =
  merge_stats ~machine_size:t.plan.Sharding.machine_size (shard_stats t)

(* Replay every WAL record into the owning shard's cluster. Ids are
   interleaved ([global = local * K + shard]), so the owner and the
   expected local id fall straight out of the arithmetic — no routing
   table survives the crash because none is needed. Each shard's
   translated records are collected (newest first) in [local_ops] for
   the audit. *)
let replay_records plan clusters local_ops records =
  List.fold_left
    (fun acc (rec_seq, op) ->
      let* prev = acc in
      if rec_seq <> prev + 1 then
        Error
          (Printf.sprintf "wal gap: expected seq %d, found %d" (prev + 1)
             rec_seq)
      else begin
        let gid =
          match op with Wal.Submit { id; _ } | Wal.Finish { id } -> id
        in
        if gid < 0 then
          Error (Printf.sprintf "wal record %d has negative id %d" rec_seq gid)
        else begin
          let s = Sharding.owner plan gid in
          let lid = Sharding.local_id plan gid in
          let lop =
            match op with
            | Wal.Submit { size; _ } -> Wal.Submit { id = lid; size }
            | Wal.Finish _ -> Wal.Finish { id = lid }
          in
          local_ops.(s) <- lop :: local_ops.(s);
          match Server.apply_wal_op clusters.(s) lop with
          | Ok () -> Ok rec_seq
          | Error e -> Error (Printf.sprintf "shard %d: %s" s e)
        end
      end)
    (Ok 0) records

(* The sharded equivalents of the single-core startup audit: every
   shard's recovered cluster passes {!Server.audit_recovery} on its own
   subtree from genesis (shards take no snapshots), and the merged
   statistics must balance against the raw WAL record counts. *)
let audit_recovery cfg plan ~genesis clusters local_ops records =
  let shard_size = plan.Sharding.shard_size in
  let rec per_shard s =
    if s >= Array.length clusters then Ok ()
    else
      match
        Server.audit_recovery ~machine_size:shard_size
          ~policy:cfg.base.Server.policy
          ~admission_cap:cfg.base.Server.admission_cap ~base:genesis
          ~tail:(List.rev local_ops.(s)) clusters.(s)
      with
      | Ok () -> per_shard (s + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" s e)
  in
  let* () = per_shard 0 in
  let merged =
    merge_stats ~machine_size:plan.Sharding.machine_size
      (Array.to_list (Array.map Cluster.stats clusters))
  in
  let submits, finishes =
    List.fold_left
      (fun (s, f) (_, op) ->
        match op with
        | Wal.Submit _ -> (s + 1, f)
        | Wal.Finish _ -> (s, f + 1))
      (0, 0) records
  in
  if merged.Cluster.submitted <> submits then
    Error
      (Printf.sprintf
         "merged stats: %d submissions recovered, wal holds %d submit records"
         merged.Cluster.submitted submits)
  else if merged.Cluster.completed <> finishes then
    Error
      (Printf.sprintf
         "merged stats: %d completions recovered, wal holds %d finish records"
         merged.Cluster.completed finishes)
  else if
    merged.Cluster.submitted - merged.Cluster.completed
    <> merged.Cluster.active_now + merged.Cluster.queued_now
  then Error "merged stats do not balance: submitted - completed <> live"
  else Ok ()

let create cfg =
  let base = cfg.base in
  let* () =
    if cfg.domains < 2 then
      Error "Mserver.create: --domains must be at least 2 (Server handles 1)"
    else Ok ()
  in
  let* plan =
    Sharding.plan ~machine_size:base.Server.machine_size ~shards:cfg.domains
  in
  Server.mkdir_p base.Server.dir;
  let* () =
    match Snapshot.latest ~dir:base.Server.dir with
    | Some (path, _) ->
        Error
          (Printf.sprintf
             "snapshots are not supported with --domains > 1, and %s exists; \
              serve this directory single-core or start from a fresh one"
             path)
    | None -> Ok ()
  in
  let* records = Wal.load (Filename.concat base.Server.dir "wal.log") in
  let* () =
    match read_marker base.Server.dir with
    | Some k when k <> cfg.domains ->
        Error
          (Printf.sprintf
             "state directory %s was written with --domains=%d; restart with \
              --domains=%d (id routing depends on the shard count)"
             base.Server.dir k k)
    | Some _ -> Ok ()
    | None ->
        if records = [] then Ok ()
        else
          Error
            (Printf.sprintf
               "state directory %s was written by a single-core pmpd; its \
                WAL can only be replayed with --domains=1"
               base.Server.dir)
  in
  let* clusters =
    let rec build acc s =
      if s >= cfg.domains then Ok (Array.of_list (List.rev acc))
      else
        let* c =
          Cluster.create ~machine_size:plan.Sharding.shard_size
            ~policy:base.Server.policy
            ~admission_cap:base.Server.admission_cap ()
        in
        build (c :: acc) (s + 1)
    in
    build [] 0
  in
  let genesis = Cluster.export clusters.(0) in
  let local_ops = Array.make cfg.domains [] in
  let* last = replay_records plan clusters local_ops records in
  let* () = audit_recovery cfg plan ~genesis clusters local_ops records in
  write_marker base.Server.dir cfg.domains;
  let wal =
    Wal.open_log ~format:base.Server.wal_format
      (Filename.concat base.Server.dir "wal.log")
  in
  Ok { cfg; plan; clusters; wal; seq0 = last; recovered = List.length records }

(* ------------------------------------------------------------------ *)
(* per-shard instruments                                               *)

(* Every shard registers the same instruments in the same order, each
   carrying a [shard] label: Metrics.merge_prometheus then zips the K
   dumps positionally into one snapshot whose series names and order
   match what scrapers of the single-core server expect. Names under
   [pmpd_shard_] stay per-shard in the merged dump. *)
type shard_ins = {
  c_requests : Metrics.Counter.t;
  c_mutations : Metrics.Counter.t;
  c_errors : Metrics.Counter.t;
  c_connections : Metrics.Counter.t;
  c_fsyncs : Metrics.Counter.t;  (** shard 0 mirrors the WAL domain's count *)
  c_slow : Metrics.Counter.t;  (** always 0: timing is single-core only *)
  g_active : Metrics.Gauge.t;
  g_load : Metrics.Gauge.t;
  g_queued : Metrics.Gauge.t;
  g_wal_lag : Metrics.Gauge.t;  (** shard 0 mirrors the WAL domain's lag *)
  g_p99 : Metrics.Gauge.t;
  g_shard_queue : Metrics.Gauge.t;
  c_steal_in : Metrics.Counter.t;
  c_steal_out : Metrics.Counter.t;
  g_shard_p99 : Metrics.Gauge.t;
}

(* Sequenced [let]s, not a record literal: record fields evaluate in
   unspecified order, and registration order is the dump order every
   scraper (and the merge) depends on. *)
let make_shard_ins reg s =
  let l = [ ("shard", string_of_int s) ] in
  let counter ?help name = Metrics.Registry.counter reg ~labels:l ?help name in
  let gauge ?help name = Metrics.Registry.gauge reg ~labels:l ?help name in
  let c_requests = counter ~help:"Requests handled" "pmpd_requests_total" in
  let c_mutations =
    counter ~help:"Accepted mutations (WAL records)" "pmpd_mutations_total"
  in
  let c_errors =
    counter ~help:"Requests answered with an error" "pmpd_errors_total"
  in
  let c_connections =
    counter ~help:"Connections accepted" "pmpd_connections_total"
  in
  let c_fsyncs = counter ~help:"WAL fsyncs" "pmpd_fsync_total" in
  let c_slow =
    counter ~help:"Requests over the slow-request threshold"
      "pmpd_slow_requests_total"
  in
  let g_active = gauge ~help:"Active tasks" "pmpd_active_tasks" in
  let g_load = gauge ~help:"Current max PE load" "pmpd_max_load" in
  let g_queued = gauge ~help:"Queued tasks" "pmpd_queued_tasks" in
  let g_wal_lag =
    gauge ~help:"WAL records written but not yet known durable" "pmpd_wal_lag"
  in
  let g_p99 =
    gauge ~help:"Rolling-window p99 of max-load over optimal load"
      "pmpd_p99_load_ratio"
  in
  let g_shard_queue =
    gauge ~help:"Admission-queue depth of this shard" "pmpd_shard_queue_depth"
  in
  let c_steal_in =
    Metrics.Registry.counter reg
      ~labels:(l @ [ ("dir", "in") ])
      ~help:"Tasks stolen between shards" "pmpd_shard_steals_total"
  in
  let c_steal_out =
    Metrics.Registry.counter reg
      ~labels:(l @ [ ("dir", "out") ])
      "pmpd_shard_steals_total"
  in
  let g_shard_p99 =
    gauge ~help:"Rolling p99 load ratio of this shard's subtree"
      "pmpd_shard_p99_load_ratio"
  in
  {
    c_requests;
    c_mutations;
    c_errors;
    c_connections;
    c_fsyncs;
    c_slow;
    g_active;
    g_load;
    g_queued;
    g_wal_lag;
    g_p99;
    g_shard_queue;
    c_steal_in;
    c_steal_out;
    g_shard_p99;
  }

(* Series where the global value is the max of the shard values, not
   the sum (gauge [_max] high-water lines are maxed by suffix). *)
let merge_max_names = [ "pmpd_max_load"; "pmpd_p99_load_ratio" ]

(* ------------------------------------------------------------------ *)
(* shard worker state                                                  *)

type shard = {
  s_id : int;
  sh : shared;
  cluster : Cluster.t;
  reg : Metrics.Registry.t;
  ins : shard_ins;
  front : Front.t;
  need : int array;
      (** per shard: the highest mutation ticket this batch's
          acknowledgements wait for (0 = none) *)
  mutable awaiting : int;  (** the peer called, or -1 *)
  mutable answer : (Protocol.response * int) option;  (** its reply *)
  mutable mut : int;  (** mutation tickets issued by this shard *)
  mutable unsent : wal_msg list;  (** not yet pushed to the WAL domain *)
  mutable quiesced : bool;  (** done serving clients *)
  ratio_ring : float array;
  mutable ratio_n : int;
  cap_pes : int option;
}

let update_shard_gauges st =
  let s = Cluster.stats st.cluster in
  Metrics.Gauge.set st.ins.g_active (float_of_int s.Cluster.active_now);
  Metrics.Gauge.set st.ins.g_load (float_of_int s.Cluster.max_load);
  Metrics.Gauge.set st.ins.g_queued (float_of_int s.Cluster.queued_now);
  Metrics.Gauge.set st.ins.g_shard_queue (float_of_int s.Cluster.queued_now);
  Atomic.set st.sh.queued_pub.(st.s_id) s.Cluster.queued_now;
  Atomic.set st.sh.active_pub.(st.s_id) s.Cluster.active_size;
  if s.Cluster.optimal_now > 0 then begin
    st.ratio_ring.(st.ratio_n mod Array.length st.ratio_ring) <-
      float_of_int s.Cluster.max_load /. float_of_int s.Cluster.optimal_now;
    st.ratio_n <- st.ratio_n + 1
  end

(* The shard's own Prometheus dump (one input of the merge). Shard 0
   additionally mirrors the WAL domain's counters into its series so
   the merged dump carries them — reading the Atomics here keeps the
   WAL domain free of registry writes (no shared mutable metrics). *)
let shard_dump st =
  update_shard_gauges st;
  let p99 = Server.rolling_p99 st.ratio_ring st.ratio_n in
  Metrics.Gauge.set st.ins.g_p99 p99;
  Metrics.Gauge.set st.ins.g_shard_p99 p99;
  if st.s_id = 0 then begin
    let f = Atomic.get st.sh.fsyncs in
    Metrics.Counter.inc st.ins.c_fsyncs
      (max 0 (f - Metrics.Counter.value st.ins.c_fsyncs));
    Metrics.Gauge.set st.ins.g_wal_lag
      (float_of_int (Atomic.get st.sh.wal_lag))
  end;
  Metrics.prometheus st.reg

(* ------------------------------------------------------------------ *)
(* local operations (shard-side halves of the protocol)                *)

let globalize_placement st (p : Protocol.placement) =
  {
    p with
    Protocol.base = p.Protocol.base + Sharding.leaf_offset st.sh.plan st.s_id;
  }

(* Mutations queue up on the shard and reach the WAL domain together
   ({!flush_wal}): at the batch's commit, or at once when applied for
   a waiting peer. A whole batch then lands in one WAL group commit
   instead of being split across fsyncs that start while it is still
   being applied. *)
let wal_send st op =
  st.mut <- st.mut + 1;
  Metrics.Counter.incr st.ins.c_mutations;
  st.unsent <- { w_shard = st.s_id; w_mut = st.mut; w_op = op } :: st.unsent

let flush_wal st =
  if st.unsent <> [] then begin
    List.iter
      (fun m ->
        spin_push st.sh st.sh.walq.(st.s_id) m
          ~wake_i:st.sh.plan.Sharding.shards)
      (List.rev st.unsent);
    st.unsent <- []
  end

(* Admit a task here, whoever asked (the home shard or a thief's
   victim): the admitting shard assigns the id out of its own
   namespace, so [owner (id)] routes every later finish and query
   exactly — stolen or not. Returns the response plus the durability
   ticket its acknowledgement must wait for (0 on rejection). *)
let admit_here st size =
  match Cluster.submit st.cluster ~size with
  | Ok sub ->
      let lid =
        match sub with Cluster.Placed (i, _) | Cluster.Queued i -> i
      in
      let gid = Sharding.global_id st.sh.plan ~shard:st.s_id lid in
      wal_send st (Wal.Submit { id = gid; size });
      let resp =
        match sub with
        | Cluster.Placed (_, p) ->
            Protocol.Placed
              (gid, globalize_placement st (Protocol.placement_of_core p))
        | Cluster.Queued _ -> Protocol.Queued gid
      in
      (resp, st.mut)
  | Error e -> (Protocol.Error e, 0)

let finish_here st gid =
  match Cluster.finish st.cluster (Sharding.local_id st.sh.plan gid) with
  | Ok () ->
      wal_send st (Wal.Finish { id = gid });
      (Protocol.Finished, st.mut)
  | Error e -> (Protocol.Error e, 0)

let query_here st gid =
  let lid = Sharding.local_id st.sh.plan gid in
  let state =
    match Cluster.placement st.cluster lid with
    | Some p ->
        Protocol.Active (globalize_placement st (Protocol.placement_of_core p))
    | None ->
        if Cluster.is_queued st.cluster lid then Protocol.Queued_task
        else Protocol.Unknown
  in
  (Protocol.State (gid, state), 0)

(* Service one peer request and push the response back. Never blocks
   (WAL pushes spin only until the always-draining WAL domain catches
   up), which is what makes waiting-while-serving deadlock-free. *)
let service_peer st origin kind =
  let resp, ticket =
    match kind with
    | P_submit size ->
        Metrics.Counter.incr st.ins.c_steal_in;
        admit_here st size
    | P_finish gid -> finish_here st gid
    | P_query gid -> query_here st gid
    | P_stats -> (Protocol.Stats_reply (Cluster.stats st.cluster), 0)
    | P_loads ->
        (Protocol.Loads_reply (Array.copy (Cluster.leaf_loads st.cluster)), 0)
    | P_metrics -> (Protocol.Metrics_reply (shard_dump st), 0)
  in
  flush_wal st;
  spin_push st.sh st.sh.peer.(st.s_id).(origin) (Presp (resp, ticket))
    ~wake_i:origin

(* Drain every inbound peer ring: serve the requests, keep the one
   response a pending call may be owed. *)
let serve_peers st =
  for src = 0 to st.sh.plan.Sharding.shards - 1 do
    if src <> st.s_id then begin
      let ring = st.sh.peer.(src).(st.s_id) in
      let rec go () =
        match Spsc.pop ring with
        | Some (Preq (origin, kind)) ->
            service_peer st origin kind;
            go ()
        | Some (Presp (r, ticket)) ->
            if src <> st.awaiting || st.answer <> None then
              fatal st.sh "peer protocol: response from an uncalled shard";
            st.answer <- Some (r, ticket);
            go ()
        | None -> ()
      in
      go ()
    end
  done

(* Wait for [ready ()] while serving the peer rings: a cycle of shards
   all waiting on each other still makes progress because each one
   answers the others' requests from inside its wait. Spins [spins]
   times (a peer answers in microseconds; an fsync takes far longer),
   then sleeps on the shard's pipe. A pipe byte consumed here may have
   announced a connection or the stop for the shard's loop; the pipe
   is re-armed on the way out when one is pending. *)
let wait_until ?(spins = 0) st ready =
  let pipe = st.sh.pipes_r.(st.s_id) in
  let drained = ref false in
  let rec go n =
    check_fail st.sh;
    serve_peers st;
    if not (ready ()) then
      if n < spins then begin
        Domain.cpu_relax ();
        go (n + 1)
      end
      else begin
        (match Unix.select [ pipe ] [] [] 0.001 with
        | [ _ ], _, _ ->
            drain_pipe pipe;
            drained := true
        | _ -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go 0
      end
  in
  go 0;
  if
    !drained
    && ((not (Spsc.is_empty st.sh.acc.(st.s_id))) || Atomic.get st.sh.stop)
  then wake st.sh st.s_id

(* One synchronous remote call (a shard has at most one outstanding). *)
let peer_call st dest kind =
  st.awaiting <- dest;
  spin_push st.sh st.sh.peer.(st.s_id).(dest) (Preq (st.s_id, kind))
    ~wake_i:dest;
  wait_until ~spins:200 st (fun () -> st.answer <> None);
  st.awaiting <- -1;
  match st.answer with
  | Some r ->
      st.answer <- None;
      r
  | None -> fatal st.sh "peer protocol: no response"

(* ------------------------------------------------------------------ *)
(* gathers (stats / loads / metrics span every shard)                  *)

let gather_stats st =
  let k = st.sh.plan.Sharding.shards in
  let parts =
    List.init k (fun d ->
        if d = st.s_id then Cluster.stats st.cluster
        else
          match peer_call st d P_stats with
          | Protocol.Stats_reply s, _ -> s
          | _ -> fatal st.sh "peer stats: unexpected response")
  in
  merge_stats ~machine_size:st.sh.plan.Sharding.machine_size parts

(* Loads concatenate in shard order: shard [s] owns the global leaf
   range [[s*N/K, (s+1)*N/K)], so the merged vector is positionally
   the single-core one. *)
let gather_loads st =
  let k = st.sh.plan.Sharding.shards in
  Array.concat
    (List.init k (fun d ->
         if d = st.s_id then Array.copy (Cluster.leaf_loads st.cluster)
         else
           match peer_call st d P_loads with
           | Protocol.Loads_reply l, _ -> l
           | _ -> fatal st.sh "peer loads: unexpected response"))

let gather_metrics st =
  let k = st.sh.plan.Sharding.shards in
  let dumps =
    List.init k (fun d ->
        if d = st.s_id then shard_dump st
        else
          match peer_call st d P_metrics with
          | Protocol.Metrics_reply m, _ -> m
          | _ -> fatal st.sh "peer metrics: unexpected response")
  in
  Metrics.merge_prometheus ~max_names:merge_max_names dumps

(* ------------------------------------------------------------------ *)
(* stealing                                                            *)

(* Consulted at admission, before touching the local cluster: when the
   home shard's queue has run hot (or this task would join it), ask
   [Sharding.pick_victim] for a shard that can admit the task now.
   Peer depths come from the published Atomics — stale by at most one
   batch, which can make the choice suboptimal but never wrong, since
   the victim re-checks admission under its own cluster. *)
let maybe_steal st size =
  if st.sh.cfg.steal_threshold <= 0 then None
  else begin
    let s = Cluster.stats st.cluster in
    let would_queue =
      match st.cap_pes with
      | Some c -> s.Cluster.active_size + size > c
      | None -> false
    in
    if s.Cluster.queued_now >= st.sh.cfg.steal_threshold || would_queue then begin
      let k = st.sh.plan.Sharding.shards in
      let queued =
        Array.init k (fun i ->
            if i = st.s_id then s.Cluster.queued_now
            else Atomic.get st.sh.queued_pub.(i))
      in
      let active =
        Array.init k (fun i ->
            if i = st.s_id then s.Cluster.active_size
            else Atomic.get st.sh.active_pub.(i))
      in
      Sharding.pick_victim st.sh.plan ~self:st.s_id ~size ~cap_pes:st.cap_pes
        ~queued ~active
    end
    else None
  end

(* ------------------------------------------------------------------ *)
(* client requests                                                     *)

(* Apply one client request. A mutation's acknowledgement must wait
   for its ticket on the shard that applied it: [gated] records that
   in [need], which the batch's commit waits out before any response
   of the batch reaches a socket. *)
let respond st req =
  let gated shard ticket resp =
    if ticket > st.need.(shard) then st.need.(shard) <- ticket;
    resp
  in
  let plan = st.sh.plan in
  match req with
  | Protocol.Submit size ->
      if size > plan.Sharding.shard_size then
        Protocol.Error
          (Printf.sprintf
             "size %d exceeds the per-shard maximum %d (machine %d over %d \
              domains)"
             size plan.Sharding.shard_size plan.Sharding.machine_size
             plan.Sharding.shards)
      else begin
        match maybe_steal st size with
        | Some dest -> (
            match peer_call st dest (P_submit size) with
            | (Protocol.Error _ as _refused), _ ->
                (* the victim's view changed under us; admit at home
                   (which may queue — the correct fallback) *)
                let resp, ticket = admit_here st size in
                gated st.s_id ticket resp
            | resp, ticket ->
                Metrics.Counter.incr st.ins.c_steal_out;
                gated dest ticket resp)
        | None ->
            let resp, ticket = admit_here st size in
            gated st.s_id ticket resp
      end
  | Protocol.Finish gid ->
      if gid < 0 then Protocol.Error "unknown task"
      else begin
        let owner = Sharding.owner plan gid in
        let resp, ticket =
          if owner = st.s_id then finish_here st gid
          else peer_call st owner (P_finish gid)
        in
        gated owner ticket resp
      end
  | Protocol.Query gid ->
      if gid < 0 then Protocol.State (gid, Protocol.Unknown)
      else begin
        let owner = Sharding.owner plan gid in
        if owner = st.s_id then fst (query_here st gid)
        else fst (peer_call st owner (P_query gid))
      end
  | Protocol.Stats -> Protocol.Stats_reply (gather_stats st)
  | Protocol.Loads -> Protocol.Loads_reply (gather_loads st)
  | Protocol.Metrics -> Protocol.Metrics_reply (gather_metrics st)
  | Protocol.Snapshot ->
      Protocol.Error "snapshots are not supported with --domains > 1"
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Health ->
      Protocol.Health_reply
        {
          Protocol.ready = true;
          uptime_ms =
            int_of_float ((Unix.gettimeofday () -. st.sh.started) *. 1000.0);
          seq = max 0 (Atomic.get st.sh.wal_seq);
          recovered_ops = st.sh.recovered;
        }
  | Protocol.Shutdown ->
      Atomic.set st.sh.stop true;
      wake_all st.sh;
      Protocol.Bye

(* ------------------------------------------------------------------ *)
(* the shard worker: Loop.run over the shared front end                *)

let handler =
  {
    Front.fast = Front.pass;
    respond = (fun st ~conn:_ req -> (respond st req, None));
    start = ignore;
    finish =
      (fun st ~op:_ ~size:_ ~ok ->
        Metrics.Counter.incr st.ins.c_requests;
        if not ok then Metrics.Counter.incr st.ins.c_errors);
  }

let covered st =
  let rec go s =
    s >= Array.length st.need
    || (Atomic.get st.sh.durable.(s) >= st.need.(s) && go (s + 1))
  in
  go 0

(* The batch's group commit, as ordering: the loop writes no response
   of the batch before this returns, and this returns only once the
   WAL domain's watermarks cover every ticket of the batch — the
   written-vs-durable contract of the single-core server. *)
let commit st =
  flush_wal st;
  if not (covered st) then wait_until st (fun () -> covered st);
  Array.fill st.need 0 (Array.length st.need) 0;
  update_shard_gauges st

let close_queued_conns st =
  let rec go () =
    match Spsc.pop st.sh.acc.(st.s_id) with
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        go ()
    | None -> ()
  in
  go ()

(* The loop's wakeup hook: serve the peers, then adopt the connections
   the acceptor handed over — or stop, once shutdown is under way. *)
let on_wake st () =
  drain_pipe st.sh.pipes_r.(st.s_id);
  check_fail st.sh;
  serve_peers st;
  if Atomic.get st.sh.stop then begin
    close_queued_conns st;
    None
  end
  else begin
    let rec adopt acc =
      match Spsc.pop st.sh.acc.(st.s_id) with
      | Some fd ->
          Metrics.Counter.incr st.ins.c_connections;
          adopt (fd :: acc)
      | None -> acc
    in
    Some (adopt [])
  end

(* Serve clients until shutdown, then linger serving peers until every
   shard is done with its clients: a shard still flushing may yet call
   this one, and every call it makes is answered before it counts
   itself quiesced. *)
let shard_main st =
  let sh = st.sh in
  let k = sh.plan.Sharding.shards in
  Loop.run ~config:sh.cfg.base.Server.loop
    ~on_commit:(fun () -> commit st)
    ~wakeup:(sh.pipes_r.(st.s_id), on_wake st)
    ~listeners:[]
    ~handle:(fun conn inbuf out ~budget ->
      Front.handle handler st st.front ~conn inbuf out ~budget)
    ();
  st.quiesced <- true;
  Atomic.incr sh.quiesced_n;
  wait_until st (fun () -> Atomic.get sh.quiesced_n = k);
  close_queued_conns st;
  Atomic.incr sh.shards_done;
  wake sh k

(* ------------------------------------------------------------------ *)
(* the WAL-writer domain                                               *)

(* The only writer of the log, which is what keeps the single-core
   durability story intact: it drains the K shard rings, assigns
   global sequence numbers in drain order, group-commits per policy,
   and only then advances each shard's durable watermark — the gate
   the shards' parked acknowledgements wait behind. Crash injection
   fires here, after the covering commit and before any watermark
   moves: acknowledged, durable, unreported. *)
let wal_main (sh : shared) wal =
  let k = sh.plan.Sharding.shards in
  let base = sh.cfg.base in
  let watermark = Array.make k 0 in
  let touched = Array.make k false in
  let fresh = ref 0 in
  let seq = ref (Atomic.get sh.wal_seq) in
  let last_fsync = ref (Unix.gettimeofday ()) in
  let pipe = sh.pipes_r.(k) in
  let crash_check () =
    match base.Server.crash_after with
    | Some kk when !fresh >= kk ->
        prerr_endline
          "pmpd: crash injection tripped after the covering WAL commit";
        flush stderr;
        Stdlib.exit 42
    | _ -> ()
  in
  let publish () =
    Atomic.set sh.wal_seq !seq;
    let last = Wal.last_seq wal in
    Atomic.set sh.wal_lag
      (if last = min_int then 0 else max 0 (last - Wal.durable_seq wal))
  in
  let commit_and_advance ~fsync =
    if Wal.commit wal ~fsync then Atomic.incr sh.fsyncs;
    crash_check ();
    for s = 0 to k - 1 do
      if touched.(s) then begin
        touched.(s) <- false;
        Atomic.set sh.durable.(s) watermark.(s);
        wake sh s
      end
    done;
    publish ()
  in
  let rec loop () =
    check_fail sh;
    let moved = ref false in
    for s = 0 to k - 1 do
      let rec drain () =
        match Spsc.pop sh.walq.(s) with
        | Some m ->
            incr seq;
            Wal.append wal ~seq:!seq m.w_op;
            incr fresh;
            watermark.(s) <- m.w_mut;
            touched.(s) <- true;
            moved := true;
            (match base.Server.fsync_policy with
            | Wal.Always -> commit_and_advance ~fsync:true
            | Wal.Group | Wal.Interval _ | Wal.Never -> ());
            drain ()
        | None -> ()
      in
      drain ()
    done;
    if !moved then begin
      match base.Server.fsync_policy with
      | Wal.Always -> ()
      | Wal.Group -> commit_and_advance ~fsync:true
      | Wal.Interval every ->
          let now = Unix.gettimeofday () in
          let fsync = now -. !last_fsync >= every in
          if fsync then last_fsync := now;
          commit_and_advance ~fsync
      | Wal.Never -> commit_and_advance ~fsync:false
    end;
    let rings_empty =
      let ok = ref true in
      for s = 0 to k - 1 do
        if not (Spsc.is_empty sh.walq.(s)) then ok := false
      done;
      !ok
    in
    if Atomic.get sh.stop && Atomic.get sh.shards_done = k && rings_empty
    then begin
      Wal.sync wal;
      Wal.close wal
    end
    else begin
      if not !moved then begin
        (match Unix.select [ pipe ] [] [] 0.02 with
        | [ _ ], _, _ -> drain_pipe pipe
        | _ -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> ())
      end;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* the acceptor (runs on the caller's domain)                          *)

let acceptor (sh : shared) listeners =
  let k = sh.plan.Sharding.shards in
  let pipe = sh.pipes_r.(k + 1) in
  let n = ref 0 in
  while not (Atomic.get sh.stop) do
    match Unix.select (pipe :: listeners) [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd == pipe then drain_pipe pipe
            else begin
              match Unix.accept ~cloexec:true fd with
              | client, _ ->
                  Unix.set_nonblock client;
                  let s = Sharding.conn_shard sh.plan !n in
                  incr n;
                  spin_push sh sh.acc.(s) client ~wake_i:s
              | exception
                  Unix.Unix_error
                    ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
                  ()
            end)
          readable
  done;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let make_shared t =
  let k = t.cfg.domains in
  let pipes = Array.init (k + 2) (fun _ -> Unix.pipe ~cloexec:true ()) in
  Array.iter
    (fun (r, w) ->
      Unix.set_nonblock r;
      Unix.set_nonblock w)
    pipes;
  {
    plan = t.plan;
    cfg = t.cfg;
    acc = Array.init k (fun _ -> Spsc.create 1024);
    peer = Array.init k (fun _ -> Array.init k (fun _ -> Spsc.create 8));
    walq = Array.init k (fun _ -> Spsc.create 4096);
    durable = Array.init k (fun _ -> Atomic.make 0);
    queued_pub = Array.init k (fun _ -> Atomic.make 0);
    active_pub = Array.init k (fun _ -> Atomic.make 0);
    fsyncs = Atomic.make 0;
    wal_lag = Atomic.make 0;
    wal_seq = Atomic.make t.seq0;
    stop = Atomic.make false;
    quiesced_n = Atomic.make 0;
    shards_done = Atomic.make 0;
    fail = Atomic.make None;
    pipes_r = Array.map fst pipes;
    pipes_w = Array.map snd pipes;
    started = Unix.gettimeofday ();
    recovered = t.recovered;
  }

let make_shard (sh : shared) cluster s =
  let reg = Metrics.Registry.create () in
  let st =
    {
      s_id = s;
      sh;
      cluster;
      reg;
      ins = make_shard_ins reg s;
      front = Front.create ();
      need = Array.make sh.plan.Sharding.shards 0;
      awaiting = -1;
      answer = None;
      mut = 0;
      unsent = [];
      quiesced = false;
      ratio_ring = Array.make 1024 0.0;
      ratio_n = 0;
      cap_pes = Cluster.admission_capacity cluster;
    }
  in
  update_shard_gauges st;
  st

let serve t ~listeners =
  Loop.ignore_sigpipe ();
  Loop.setup_sigusr1 None;
  let sh = make_shared t in
  let k = t.cfg.domains in
  let shards = Array.init k (fun s -> make_shard sh t.clusters.(s) s) in
  (* A dead shard must still count itself quiesced and done, or the
     WAL domain (and its peers' gathers) would wait forever. *)
  let guarded_shard st () =
    match shard_main st with
    | () -> ()
    | exception Fatal _ ->
        if not st.quiesced then Atomic.incr sh.quiesced_n;
        Atomic.incr sh.shards_done;
        wake_all sh
    | exception e ->
        note_fail sh
          (Printf.sprintf "shard %d: %s" st.s_id (Printexc.to_string e));
        if not st.quiesced then Atomic.incr sh.quiesced_n;
        Atomic.incr sh.shards_done;
        wake_all sh
  in
  let guarded_wal () =
    match wal_main sh t.wal with
    | () -> ()
    | exception Fatal _ -> ( try Wal.close t.wal with _ -> ())
    | exception e ->
        note_fail sh ("wal writer: " ^ Printexc.to_string e);
        (try Wal.close t.wal with _ -> ())
  in
  let wal_domain = Domain.spawn guarded_wal in
  let shard_domains =
    Array.map (fun st -> Domain.spawn (guarded_shard st)) shards
  in
  (match acceptor sh listeners with
  | () -> ()
  | exception e -> note_fail sh ("acceptor: " ^ Printexc.to_string e));
  Array.iter Domain.join shard_domains;
  Domain.join wal_domain;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    sh.pipes_r;
  Array.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    sh.pipes_w;
  match Atomic.get sh.fail with
  | Some m -> failwith ("pmpd multicore: " ^ m)
  | None -> ()
