module Client = Pmp_server.Client
module Front = Pmp_server.Front
module Loop = Pmp_server.Loop
module Protocol = Pmp_server.Protocol
module Recorder = Pmp_server.Recorder
module Mserver = Pmp_server.Mserver
module Metrics = Pmp_telemetry.Metrics
module Cluster = Pmp_cluster.Cluster

type config = {
  sockets : string array;
  tenant_quota : float option;
  poll_interval : float;
  probe_interval : float;
  rebalance : Rebalance.config option;
  rebalance_interval : float;
  shutdown_shards : bool;
  dir : string;
  recorder_size : int;
  loop : Loop.config;
}

let default_config ~sockets ~dir =
  {
    sockets;
    tenant_quota = None;
    poll_interval = 0.5;
    probe_interval = 0.5;
    rebalance = None;
    rebalance_interval = 1.0;
    shutdown_shards = false;
    dir;
    recorder_size = 4096;
    loop = Loop.default_config;
  }

type shard = {
  socket : string;
  size : int;
  mutable client : Client.t option;
  g_up : Metrics.Gauge.t;
  g_load : Metrics.Gauge.t;
  c_routed : Metrics.Counter.t;
}

(* A ledger entry is the router's overlay over the [Fed_id] arithmetic:
   where the task lives *now*, which can differ from its birth shard
   after failover re-admission or a rebalance move. *)
type entry = {
  mutable e_shard : int;
  mutable e_local : int;
  e_size : int;
  e_tenant : int;
  mutable e_queued : bool;
}

type t = {
  config : config;
  plan : Fed_id.plan;
  shardv : shard array;
  shard_sizes : int array;
  offsets : int array;  (** first aggregate leaf per shard *)
  aggregate : int;
  quota_pes : int option;
  index : Fed_index.t;
  ledger : (int, entry) Hashtbl.t;
  tenant_used : (int, int) Hashtbl.t;
      (** PEs admitted per tenant (one tenant per connection); a tenant
          leaves the table when its usage returns to zero *)
  registry : Metrics.Registry.t;
  c_requests : Metrics.Counter.t;
  c_rejects : Metrics.Counter.t;
  c_markdowns : Metrics.Counter.t;
  c_readmitted : Metrics.Counter.t;
  c_rebalanced : Metrics.Counter.t;
  c_rebalanced_bytes : Metrics.Counter.t;
  c_audit_failures : Metrics.Counter.t;
  recorder : Recorder.t;
  t0 : float;
  mutable last_poll : float;
  mutable last_probe : float;
  mutable last_rebalance : float;
  mutable dump_requested : bool;
  front : Front.t;
}

let shards t = Array.length t.shardv
let aggregate_size t = t.aggregate
let shard_up t sx = t.shardv.(sx).client <> None
let tenants t = Hashtbl.length t.tenant_used

let dump_recorder t =
  (try Unix.mkdir t.config.dir 0o755 with Unix.Unix_error _ -> ());
  let path = Filename.concat t.config.dir "flightrec.jsonl" in
  Recorder.dump t.recorder path;
  path

let close t =
  Array.iter
    (fun s ->
      (match s.client with Some c -> Client.close c | None -> ());
      s.client <- None)
    t.shardv

(* ------------------------------------------------------------------ *)
(* creation                                                            *)

let probe_shard socket =
  match Client.connect_unix ~proto:Client.Binary socket with
  | Error e -> Error (Printf.sprintf "%s: %s" socket e)
  | Ok c -> (
      match Client.request c Protocol.Loads with
      | Ok (Protocol.Loads_reply loads) -> Ok (c, Array.length loads)
      | Ok _ ->
          Client.close c;
          Error (Printf.sprintf "%s: unexpected loads reply" socket)
      | Error e ->
          Client.close c;
          Error (Printf.sprintf "%s: %s" socket e))

let create config =
  let m = Array.length config.sockets in
  (* the recorder dumps (and, for routers serving on a Unix socket
     under [dir], the listen socket) need the directory to exist —
     shards the router spawns itself create only their own subdirs *)
  Pmp_server.Server.mkdir_p config.dir;
  match Fed_id.plan ~shards:m with
  | Error e -> Error e
  | Ok plan -> (
      let rec connect acc sx =
        if sx = m then Ok (Array.of_list (List.rev acc))
        else
          match probe_shard config.sockets.(sx) with
          | Ok cs -> connect (cs :: acc) (sx + 1)
          | Error e ->
              List.iter (fun (c, _) -> Client.close c) acc;
              Error ("shard " ^ string_of_int sx ^ ": " ^ e)
      in
      match connect [] 0 with
      | Error e -> Error e
      | Ok conns ->
          let shard_sizes = Array.map snd conns in
          let offsets =
            Array.init m (fun sx -> Fed_id.leaf_offset ~shard_sizes sx)
          in
          let aggregate = Array.fold_left ( + ) 0 shard_sizes in
          let registry = Metrics.Registry.create () in
          let counter name help =
            Metrics.Registry.counter registry ~help name
          in
          let c_requests = counter "fed_requests_total" "requests routed" in
          let c_rejects =
            counter "fed_admission_rejects_total"
              "submits rejected by router-level admission"
          in
          let c_markdowns =
            counter "fed_markdowns_total" "shards marked down"
          in
          let c_readmitted =
            counter "fed_readmitted_total"
              "queued tasks re-admitted to healthy shards after a mark-down"
          in
          let c_rebalanced =
            counter "fed_rebalanced_total" "tasks migrated between shards"
          in
          let c_rebalanced_bytes =
            counter "fed_rebalanced_bytes_total" "migration bytes moved"
          in
          let c_audit_failures =
            counter "fed_audit_failures_total"
              "rebalance audits that found inconsistent shard accounting"
          in
          let shard_labels sx = [ ("shard", string_of_int sx) ] in
          let ups =
            Array.init m (fun sx ->
                Metrics.Registry.gauge registry ~labels:(shard_labels sx)
                  ~help:"1 when the shard is serving" "fed_shard_up")
          in
          let loadsg =
            Array.init m (fun sx ->
                Metrics.Registry.gauge registry ~labels:(shard_labels sx)
                  ~help:"summary max PE load of the shard" "fed_shard_load")
          in
          let routed =
            Array.init m (fun sx ->
                Metrics.Registry.counter registry ~labels:(shard_labels sx)
                  ~help:"submits routed to the shard" "fed_shard_routed_total")
          in
          let shardv =
            Array.init m (fun sx ->
                Metrics.Gauge.set ups.(sx) 1.0;
                {
                  socket = config.sockets.(sx);
                  size = shard_sizes.(sx);
                  client = Some (fst conns.(sx));
                  g_up = ups.(sx);
                  g_load = loadsg.(sx);
                  c_routed = routed.(sx);
                })
          in
          let now = Unix.gettimeofday () in
          Ok
            {
              config;
              plan;
              shardv;
              shard_sizes;
              offsets;
              aggregate;
              quota_pes =
                Option.map
                  (fun q -> int_of_float (q *. float_of_int aggregate))
                  config.tenant_quota;
              index =
                Fed_index.create ~shard_sizes
                  ~capacities:(Array.make m None);
              ledger = Hashtbl.create 1024;
              tenant_used = Hashtbl.create 16;
              registry;
              c_requests;
              c_rejects;
              c_markdowns;
              c_readmitted;
              c_rebalanced;
              c_rebalanced_bytes;
              c_audit_failures;
              recorder = Recorder.create config.recorder_size;
              t0 = now;
              last_poll = now;
              last_probe = now;
              last_rebalance = now;
              dump_requested = false;
              front = Front.create ();
            })

(* ------------------------------------------------------------------ *)
(* upstream RPC, mark-down and failover                                *)

let used t tenant = try Hashtbl.find t.tenant_used tenant with Not_found -> 0

let charge t tenant delta =
  let u = used t tenant + delta in
  if u > 0 then Hashtbl.replace t.tenant_used tenant u
  else Hashtbl.remove t.tenant_used tenant

let note_event t =
  Recorder.record t.recorder ~kind:Recorder.kind_event ~op:0 ~tenant:0 ~size:0
    ~seq:0 ~dur_ns:0 ~ts_us:0 ~ok:false

let rec mark_down t sx =
  (match t.shardv.(sx).client with
  | Some c ->
      Client.close c;
      t.shardv.(sx).client <- None;
      Fed_index.set_up t.index sx false;
      Metrics.Gauge.set t.shardv.(sx).g_up 0.0;
      Metrics.Counter.incr t.c_markdowns;
      note_event t;
      readmit_queued t sx
  | None -> ())

(* A queued task on a dead shard is pure backlog the federation can
   still serve: re-admit it to a healthy shard under the same
   federated id. At-least-once: the dead shard's WAL also remembers
   it, so its recovery may revive an orphan copy the ledger no longer
   points at. *)
and readmit_queued t sx =
  let queued =
    Hashtbl.fold
      (fun gid e acc ->
        if e.e_shard = sx && e.e_queued then (gid, e) :: acc else acc)
      t.ledger []
    |> List.sort compare
  in
  List.iter
    (fun (_gid, e) ->
      match route_submit t ~size:e.e_size with
      | Ok (sx', Protocol.Placed (local', _)) ->
          e.e_shard <- sx';
          e.e_local <- local';
          e.e_queued <- false;
          Fed_index.note_submit t.index sx' ~size:e.e_size;
          Metrics.Counter.incr t.shardv.(sx').c_routed;
          Metrics.Counter.incr t.c_readmitted
      | Ok (sx', Protocol.Queued local') ->
          e.e_shard <- sx';
          e.e_local <- local';
          e.e_queued <- true;
          Metrics.Counter.incr t.shardv.(sx').c_routed;
          Metrics.Counter.incr t.c_readmitted
      | Ok _ | Error _ -> ()
      (* stays pointed at the dead shard; resolves again if a probe
         brings the shard back *))
    queued

and rpc t sx req =
  match t.shardv.(sx).client with
  | None -> Error "shard down"
  | Some c -> (
      match Client.send c req with
      | Error e ->
          mark_down t sx;
          Error e
      | Ok () -> (
          match Client.receive c with
          | Error e ->
              mark_down t sx;
              Error e
          | Ok r -> Ok r))

(* Route a submit, failing over: a shard that dies mid-request is
   marked down (which re-admits its queued backlog) and the pick is
   retried against the survivors. *)
and route_submit t ~size =
  let rec attempt tries =
    if tries <= 0 then Error "no shard available"
    else
      match Fed_index.pick t.index ~size with
      | None -> Error (Printf.sprintf "no shard can host size %d" size)
      | Some sx -> (
          match rpc t sx req_submit with
          | Ok resp -> Ok (sx, resp)
          | Error _ -> attempt (tries - 1))
  and req_submit = Protocol.Submit size in
  attempt (Array.length t.shardv)

(* ------------------------------------------------------------------ *)
(* request dispatch                                                    *)

let globalize_state t sx = function
  | Protocol.Active p ->
      Protocol.Active { p with Protocol.base = p.Protocol.base + t.offsets.(sx) }
  | (Protocol.Queued_task | Protocol.Unknown) as st -> st

let dispatch t ~tenant req =
  Metrics.Counter.incr t.c_requests;
  match req with
  | Protocol.Submit size -> (
      let over_quota =
        match t.quota_pes with
        | Some q -> size > 0 && used t tenant + size > q
        | None -> false
      in
      if over_quota then begin
        Metrics.Counter.incr t.c_rejects;
        (Protocol.Error "tenant admission quota exceeded", None)
      end
      else
        match route_submit t ~size with
        | Error e ->
            Metrics.Counter.incr t.c_rejects;
            (Protocol.Error e, None)
        | Ok (sx, Protocol.Placed (local, p)) ->
            let gid = Fed_id.global_id t.plan ~shard:sx local in
            Hashtbl.replace t.ledger gid
              {
                e_shard = sx;
                e_local = local;
                e_size = size;
                e_tenant = tenant;
                e_queued = false;
              };
            charge t tenant size;
            Fed_index.note_submit t.index sx ~size;
            Metrics.Counter.incr t.shardv.(sx).c_routed;
            ( Protocol.Placed
                (gid, { p with Protocol.base = p.Protocol.base + t.offsets.(sx) }),
              Some sx )
        | Ok (sx, Protocol.Queued local) ->
            let gid = Fed_id.global_id t.plan ~shard:sx local in
            Hashtbl.replace t.ledger gid
              {
                e_shard = sx;
                e_local = local;
                e_size = size;
                e_tenant = tenant;
                e_queued = true;
              };
            charge t tenant size;
            Metrics.Counter.incr t.shardv.(sx).c_routed;
            (Protocol.Queued gid, Some sx)
        | Ok (sx, (Protocol.Error _ as e)) -> (e, Some sx)
        | Ok (sx, _) ->
            (Protocol.Error "unexpected shard reply", Some sx))
  | Protocol.Finish gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> (Protocol.Error "unknown or finished task", None)
      | Some e when not (shard_up t e.e_shard) ->
          ( Protocol.Error (Printf.sprintf "shard %d down" e.e_shard),
            None )
      | Some e -> (
          match rpc t e.e_shard (Protocol.Finish e.e_local) with
          | Ok Protocol.Finished ->
              Hashtbl.remove t.ledger gid;
              charge t e.e_tenant (-e.e_size);
              if not e.e_queued then
                Fed_index.note_finish t.index e.e_shard ~size:e.e_size;
              (Protocol.Finished, Some e.e_shard)
          | Ok (Protocol.Error _ as err) -> (err, Some e.e_shard)
          | Ok _ ->
              (Protocol.Error "unexpected shard reply", Some e.e_shard)
          | Error err ->
              (Protocol.Error ("shard failure: " ^ err), None)))
  | Protocol.Query gid -> (
      match Hashtbl.find_opt t.ledger gid with
      | None -> (Protocol.State (gid, Protocol.Unknown), None)
      | Some e when not (shard_up t e.e_shard) ->
          ( Protocol.Error (Printf.sprintf "shard %d down" e.e_shard),
            None )
      | Some e -> (
          match rpc t e.e_shard (Protocol.Query e.e_local) with
          | Ok (Protocol.State (_, st)) ->
              ( Protocol.State (gid, globalize_state t e.e_shard st),
                Some e.e_shard )
          | Ok (Protocol.Error _ as err) -> (err, Some e.e_shard)
          | Ok _ ->
              (Protocol.Error "unexpected shard reply", Some e.e_shard)
          | Error err ->
              (Protocol.Error ("shard failure: " ^ err), None)))
  | Protocol.Stats -> (
      let collected = ref [] in
      for sx = shards t - 1 downto 0 do
        if shard_up t sx then
          match rpc t sx Protocol.Stats with
          | Ok (Protocol.Stats_reply s) -> collected := s :: !collected
          | Ok _ | Error _ -> ()
      done;
      match !collected with
      | [] -> (Protocol.Error "no shard up", None)
      | stats ->
          ( Protocol.Stats_reply
              (Mserver.merge_stats ~machine_size:t.aggregate stats),
            None ))
  | Protocol.Loads ->
      let parts =
        Array.to_list
          (Array.init (shards t) (fun sx ->
               if shard_up t sx then
                 match rpc t sx Protocol.Loads with
                 | Ok (Protocol.Loads_reply l)
                   when Array.length l = t.shard_sizes.(sx) ->
                     l
                 | _ -> Array.make t.shard_sizes.(sx) 0
               else Array.make t.shard_sizes.(sx) 0))
      in
      (Protocol.Loads_reply (Array.concat parts), None)
  | Protocol.Metrics ->
      Array.iteri
        (fun sx s ->
          Metrics.Gauge.set s.g_load (float_of_int (Fed_index.load t.index sx));
          Metrics.Gauge.set s.g_up (if shard_up t sx then 1.0 else 0.0))
        t.shardv;
      let router_dump = Metrics.prometheus t.registry in
      let shard_dumps = ref [] in
      for sx = shards t - 1 downto 0 do
        if shard_up t sx then
          match rpc t sx Protocol.Metrics with
          | Ok (Protocol.Metrics_reply txt) -> shard_dumps := txt :: !shard_dumps
          | Ok _ | Error _ -> ()
      done;
      ( Protocol.Metrics_reply
          (router_dump ^ Metrics.merge_prometheus !shard_dumps),
        None )
  | Protocol.Snapshot ->
      ( Protocol.Error "snapshots are per-shard; connect to a shard directly",
        None )
  | Protocol.Ping -> (Protocol.Pong, None)
  | Protocol.Health ->
      let any_up =
        Array.exists (fun s -> s.client <> None) t.shardv
      in
      ( Protocol.Health_reply
          {
            Protocol.ready = any_up;
            uptime_ms =
              int_of_float ((Unix.gettimeofday () -. t.t0) *. 1000.0);
            seq = 0;
            recovered_ops = 0;
          },
        None )
  | Protocol.Shutdown ->
      if t.config.shutdown_shards then
        for sx = 0 to shards t - 1 do
          if shard_up t sx then ignore (rpc t sx Protocol.Shutdown)
        done;
      (Protocol.Bye, None)

(* ------------------------------------------------------------------ *)
(* periodic work                                                       *)

let poll t =
  for sx = 0 to shards t - 1 do
    if shard_up t sx then
      match rpc t sx Protocol.Stats with
      | Ok (Protocol.Stats_reply s) ->
          Fed_index.observe t.index sx ~max_load:s.Cluster.max_load
            ~active_size:s.Cluster.active_size;
          Metrics.Gauge.set t.shardv.(sx).g_load
            (float_of_int (Fed_index.load t.index sx))
      | Ok _ | Error _ -> ()
  done

let probe t =
  for sx = 0 to shards t - 1 do
    if not (shard_up t sx) then
      match Client.connect_unix ~proto:Client.Binary t.shardv.(sx).socket with
      | Error _ -> ()
      | Ok c -> (
          match Client.request c Protocol.Health with
          | Ok (Protocol.Health_reply { Protocol.ready = true; _ }) ->
              t.shardv.(sx).client <- Some c;
              Fed_index.set_up t.index sx true;
              Metrics.Gauge.set t.shardv.(sx).g_up 1.0;
              (* refresh the summary right away: the recovered shard
                 still carries its durable active tasks *)
              (match rpc t sx Protocol.Stats with
              | Ok (Protocol.Stats_reply s) ->
                  Fed_index.observe t.index sx ~max_load:s.Cluster.max_load
                    ~active_size:s.Cluster.active_size
              | Ok _ | Error _ -> ())
          | Ok _ | Error _ -> Client.close c)
  done

(* Consistency audit after a rebalance round: the shard's own
   accounting must still balance (sum of PE loads = active size, max
   of PE loads = reported max). The full conformance oracle runs
   inside each shard at recovery; this is the cheap online check the
   router can make from outside. *)
let audit t sx =
  if shard_up t sx then begin
    match (rpc t sx Protocol.Stats, rpc t sx Protocol.Loads) with
    | Ok (Protocol.Stats_reply s), Ok (Protocol.Loads_reply loads) ->
        let sum = Array.fold_left ( + ) 0 loads in
        let mx = Array.fold_left max 0 loads in
        if sum <> s.Cluster.active_size || mx <> s.Cluster.max_load then begin
          Metrics.Counter.incr t.c_audit_failures;
          note_event t
        end
    | _ -> ()
  end

let rebalance_round t config =
  let m = shards t in
  let loads = Array.init m (fun sx -> Fed_index.load t.index sx) in
  let up = Array.init m (fun sx -> shard_up t sx) in
  let tasks sx =
    Hashtbl.fold
      (fun gid e acc ->
        if e.e_shard = sx then
          { Rebalance.gid; size = e.e_size; queued = e.e_queued } :: acc
        else acc)
      t.ledger []
    |> List.sort (fun a b -> compare a.Rebalance.gid b.Rebalance.gid)
  in
  let moves =
    Rebalance.plan config ~loads ~up ~shard_sizes:t.shard_sizes ~tasks
  in
  let touched = Hashtbl.create 4 in
  List.iter
    (fun (mv : Rebalance.move) ->
      match Hashtbl.find_opt t.ledger mv.task.gid with
      | None -> ()
      | Some e -> (
          (* replay on the destination first, then drain the source,
             so an acknowledged task always has at least one home *)
          match rpc t mv.dst (Protocol.Submit e.e_size) with
          | Ok (Protocol.Placed (local', _) | Protocol.Queued local') as r -> (
              let queued' =
                match r with Ok (Protocol.Queued _) -> true | _ -> false
              in
              match rpc t mv.src (Protocol.Finish e.e_local) with
              | Ok Protocol.Finished ->
                  if not e.e_queued then
                    Fed_index.note_finish t.index mv.src ~size:e.e_size;
                  if not queued' then
                    Fed_index.note_submit t.index mv.dst ~size:e.e_size;
                  e.e_shard <- mv.dst;
                  e.e_local <- local';
                  e.e_queued <- queued';
                  Metrics.Counter.incr t.c_rebalanced;
                  Metrics.Counter.inc t.c_rebalanced_bytes
                    (Rebalance.move_bytes config mv);
                  Hashtbl.replace touched mv.src ();
                  Hashtbl.replace touched mv.dst ()
              | Ok _ | Error _ ->
                  (* drain refused or source died: undo the replay *)
                  ignore (rpc t mv.dst (Protocol.Finish local')))
          | Ok _ | Error _ -> ()))
    moves;
  Hashtbl.iter (fun sx () -> audit t sx) touched

let tick t =
  if t.dump_requested then begin
    t.dump_requested <- false;
    ignore (dump_recorder t)
  end;
  let now = Unix.gettimeofday () in
  if now -. t.last_poll >= t.config.poll_interval then begin
    t.last_poll <- now;
    poll t
  end;
  if now -. t.last_probe >= t.config.probe_interval then begin
    t.last_probe <- now;
    probe t
  end;
  (match t.config.rebalance with
  | Some config when now -. t.last_rebalance >= t.config.rebalance_interval ->
      t.last_rebalance <- now;
      rebalance_round t config
  | _ -> ());
  Float.max 0.05 (Float.min t.config.poll_interval t.config.probe_interval)

(* ------------------------------------------------------------------ *)
(* connection handling                                                 *)

(* The router's request core for the shared front end: every request
   takes the generic path, and a connection is its own tenant. *)
let handler =
  {
    Front.fast = Front.pass;
    respond =
      (fun t ~conn req ->
        let resp, served_by = dispatch t ~tenant:conn req in
        Recorder.record t.recorder ~kind:Recorder.kind_request
          ~op:(Protocol.opcode req) ~tenant:conn
          ~size:(match req with Protocol.Submit s -> s | _ -> 0)
          ~seq:0 ~dur_ns:0 ~ts_us:0
          ~ok:(match resp with Protocol.Error _ -> false | _ -> true);
        (resp, served_by));
    start = ignore;
    finish = (fun _ ~op:_ ~size:_ ~ok:_ -> ());
  }

let serve t ~listeners =
  match
    Loop.run ~config:t.config.loop
      ~on_usr1:(fun () -> t.dump_requested <- true)
      ~tick:(fun () -> tick t)
      ~listeners
      ~handle:(fun conn inbuf out ~budget ->
        Front.handle handler t t.front ~conn inbuf out ~budget)
      ()
  with
  | () -> close t
  | exception e ->
      (try ignore (dump_recorder t) with _ -> ());
      close t;
      raise e
