(* Service-level benchmark: drive a live pmpd in its own domain over a
   Unix socket through the shared Loadgen driver, one point per
   (protocol, fsync policy) corner, and merge the results into
   BENCH_telemetry.json under a "service" key — throughput, latency
   percentiles from the client side, and the server's own WAL
   telemetry (group-commit size distribution, fsync count) scraped
   from its metrics endpoint at the end of each run.

     dune exec bench/service.exe                 # merge into BENCH_telemetry.json
     dune exec bench/service.exe -- --out FILE   # write elsewhere *)

module L = Pmp_server.Loadgen
module Client = Pmp_server.Client
module Wal = Pmp_server.Wal
module Protocol = Pmp_server.Protocol
module Metrics = Pmp_telemetry.Metrics
module Json = Pmp_util.Json

(* fsync-per-append runs a real fsync per mutation, so its corner gets
   a tenth of the requests — the per-request cost is what matters *)
let requests_for = function Wal.Always -> 3_000 | _ -> 30_000

(* scrape one "<name> <value>" sample out of a prometheus text dump *)
let metric_value dump name =
  let prefix = name ^ " " in
  let plen = String.length prefix in
  List.find_map
    (fun line ->
      if String.length line > plen && String.sub line 0 plen = prefix then
        float_of_string_opt
          (String.sub line plen (String.length line - plen))
      else None)
    (String.split_on_char '\n' dump)

(* cumulative buckets of one labelled histogram series, e.g.
   pmpd_stage_seconds_bucket{stage="fsync",le="..."} — the dump renders
   the le label last, so a prefix match pins the selector *)
let scrape_buckets dump name selector =
  let prefix = Printf.sprintf "%s_bucket{%s,le=\"" name selector in
  let plen = String.length prefix in
  List.filter_map
    (fun l ->
      if String.length l > plen && String.sub l 0 plen = prefix then
        match String.index_opt l '}' with
        | Some j when j > plen ->
            let bound = String.sub l plen (j - 1 - plen) in
            let upper =
              if bound = "+Inf" then infinity
              else Option.value ~default:nan (float_of_string_opt bound)
            in
            let v = String.sub l (j + 1) (String.length l - j - 1) in
            Option.map
              (fun cum -> (upper, cum))
              (int_of_string_opt (String.trim v))
        | _ -> None
      else None)
    (String.split_on_char '\n' dump)

let stage_names = [ "read"; "decode"; "apply"; "wal_append"; "fsync"; "ack" ]

(* per-stage quantiles (seconds) out of a dump; [None] when the stage
   saw no samples (telemetry off or the stage never ran) *)
let stage_quantiles dump stage =
  let buckets =
    scrape_buckets dump "pmpd_stage_seconds"
      (Printf.sprintf "stage=\"%s\"" stage)
  in
  match List.rev buckets with
  | (_, total) :: _ when total > 0 ->
      let max_seen =
        List.fold_left
          (fun acc (u, c) -> if Float.is_finite u && c > 0 then u else acc)
          0.0 buckets
      in
      let q q' = Metrics.quantile_of_buckets buckets ~max_seen ~count:total q' in
      Some (q 0.5, q 0.99, q 0.999, total)
  | _ -> None

let point ~label ~proto ~fsync_policy ~wal_format ?(latency_profile = false)
    ?(snapshot_every = 0) () =
  Printf.printf "running %-14s ...%!" label;
  let requests = requests_for fsync_policy in
  let latency =
    Metrics.Histogram.make (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:24)
  in
  let result =
    L.with_local_service ~fsync_policy ~wal_format ~latency_profile
      ~snapshot_every (fun socket ->
        match Client.connect_unix ~proto socket with
        | Error e -> Error e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let gen = L.make_gen ~seed:0xB00 ~machine_size:256 in
                match L.drive c gen ~requests ~window:32 ~latency () with
                | Error e -> Error e
                | Ok outcome ->
                    let dump =
                      match Client.request c Protocol.Metrics with
                      | Ok (Protocol.Metrics_reply m) -> m
                      | Ok _ | Error _ -> ""
                    in
                    let live =
                      match Client.request c Protocol.Stats with
                      | Ok (Protocol.Stats_reply st) ->
                          st.Pmp_cluster.Cluster.active_now
                      | Ok _ | Error _ -> 0
                    in
                    Ok (outcome, dump, live, L.snapshot_files socket)))
  in
  match result with
  | Error e -> failwith (Printf.sprintf "service bench (%s): %s" label e)
  | Ok (o, dump, live, snapshots) ->
      let metric name = Option.value ~default:nan (metric_value dump name) in
      let group_count = metric "pmpd_wal_group_size_count" in
      let group_sum = metric "pmpd_wal_group_size_sum" in
      Printf.printf " %8.0f req/s  p99 %6.0f us  avg group %.1f\n%!"
        (L.requests_per_sec o)
        (L.percentile latency 99.0)
        (if group_count > 0.0 then group_sum /. group_count else 0.0);
      let stages =
        List.filter_map
          (fun stage ->
            Option.map
              (fun (p50, p99, p999, n) ->
                ( stage,
                  Json.Obj
                    [
                      ("p50_us", Json.Num (p50 *. 1e6));
                      ("p99_us", Json.Num (p99 *. 1e6));
                      ("p999_us", Json.Num (p999 *. 1e6));
                      ("count", Json.Num (float_of_int n));
                    ] ))
              (stage_quantiles dump stage))
          stage_names
      in
      if stages <> [] then
        List.iter
          (fun (stage, j) ->
            let f k =
              Option.value ~default:nan (Option.bind (Json.member k j) Json.to_float)
            in
            Printf.printf
              "    stage %-10s p50 %8.1f us  p99 %8.1f us  p999 %8.1f us\n%!"
              stage (f "p50_us") (f "p99_us") (f "p999_us"))
          stages;
      (* the durable state a shipped-defaults daemon leaves behind:
         one live-state snapshot, sized by the live tasks *)
      let durability =
        if snapshot_every = 0 then []
        else begin
          let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 snapshots in
          let per_task = float_of_int bytes /. float_of_int (max 1 live) in
          Printf.printf "    snapshots: %d file(s), %d bytes, %d live tasks (%.1f B/task)\n%!"
            (List.length snapshots) bytes live per_task;
          [
            ("snapshot_every", Json.Num (float_of_int snapshot_every));
            ("snapshots_total", Json.Num (metric "pmpd_snapshots_total"));
            ("snapshot_seconds_sum", Json.Num (metric "pmpd_snapshot_seconds_sum"));
            ("snapshot_files", Json.Num (float_of_int (List.length snapshots)));
            ("snapshot_bytes", Json.Num (float_of_int bytes));
            ("live_tasks", Json.Num (float_of_int live));
            ("snapshot_bytes_per_live_task", Json.Num per_task);
          ]
        end
      in
      Json.Obj
        ((if stages = [] then []
          else [ ("server_stages", Json.Obj stages) ])
        @ durability
        @ [
          ("label", Json.Str label);
          ("proto", Json.Str (Client.proto_name proto));
          ("fsync_policy", Json.Str (Wal.policy_name fsync_policy));
          ("wal_format", Json.Str (Wal.format_name wal_format));
          ("requests", Json.Num (float_of_int o.L.requests));
          ("mutations", Json.Num (float_of_int o.L.mutations));
          ("errors", Json.Num (float_of_int o.L.errors));
          ("ns_per_request", Json.Num (Float.round (L.ns_per_request o)));
          ("requests_per_sec", Json.Num (Float.round (L.requests_per_sec o)));
          ("latency_p50_us", Json.Num (L.percentile latency 50.0));
          ("latency_p90_us", Json.Num (L.percentile latency 90.0));
          ("latency_p99_us", Json.Num (L.percentile latency 99.0));
          ("fsync_total", Json.Num (metric "pmpd_fsync_total"));
          ("wal_group_commits", Json.Num group_count);
          ( "wal_group_size_avg",
            Json.Num
              (if group_count > 0.0 then group_sum /. group_count else 0.0) );
        ])

(* sum of every sample of one labelled series whose label set contains
   [selector], e.g. all pmpd_shard_steals_total{shard="..",dir="out"} *)
let labelled_sum dump name selector =
  let prefix = name ^ "{" in
  let plen = String.length prefix in
  List.fold_left
    (fun acc line ->
      if String.length line > plen && String.sub line 0 plen = prefix then
        match String.index_opt line '}' with
        | Some j ->
            let labels = String.sub line plen (j - plen) in
            let has_sel =
              let sl = String.length selector and ll = String.length labels in
              let rec go i =
                i + sl <= ll
                && (String.sub labels i sl = selector || go (i + 1))
              in
              go 0
            in
            if has_sel then
              let v = String.sub line (j + 1) (String.length line - j - 1) in
              acc +. Option.value ~default:0.0 (float_of_string_opt (String.trim v))
            else acc
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' dump)

(* the multicore corner: a sharded daemon at --domains=4 driven by four
   client connections in parallel. The client-side latency histogram
   does not apply on the parallel path, so this point carries aggregate
   throughput plus the merged per-shard telemetry (steal volume, WAL
   fsyncs) instead of percentile fields. *)
let point_domains ~label ~domains ~conns () =
  Printf.printf "running %-14s ...%!" label;
  let requests = 30_000 in
  let result =
    L.with_local_service ~domains (fun socket ->
        let connect () = Client.connect_unix ~proto:Client.Binary socket in
        match
          L.drive_parallel ~connect ~conns ~requests ~window:32 ~seed:0xB00
            ~machine_size:256 ()
        with
        | Error e -> Error e
        | Ok outcome ->
            let dump =
              match connect () with
              | Error _ -> ""
              | Ok c ->
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () ->
                      match Client.request c Protocol.Metrics with
                      | Ok (Protocol.Metrics_reply m) -> m
                      | Ok _ | Error _ -> "")
            in
            Ok (outcome, dump))
  in
  match result with
  | Error e -> failwith (Printf.sprintf "service bench (%s): %s" label e)
  | Ok (o, dump) ->
      let metric name = Option.value ~default:nan (metric_value dump name) in
      let steals = labelled_sum dump "pmpd_shard_steals_total" "dir=\"out\"" in
      Printf.printf " %8.0f req/s  (%d conns aggregate)  steals %.0f\n%!"
        (L.requests_per_sec o) conns steals;
      Json.Obj
        [
          ("label", Json.Str label);
          ("proto", Json.Str (Client.proto_name Client.Binary));
          ("fsync_policy", Json.Str (Wal.policy_name Wal.Group));
          ("wal_format", Json.Str (Wal.format_name Wal.Binary_records));
          ("domains", Json.Num (float_of_int domains));
          ("conns", Json.Num (float_of_int conns));
          ("requests", Json.Num (float_of_int o.L.requests));
          ("mutations", Json.Num (float_of_int o.L.mutations));
          ("errors", Json.Num (float_of_int o.L.errors));
          ("ns_per_request", Json.Num (Float.round (L.ns_per_request o)));
          ("requests_per_sec", Json.Num (Float.round (L.requests_per_sec o)));
          ("steals", Json.Num steals);
          ("fsync_total", Json.Num (metric "pmpd_fsync_total"));
        ]

(* the federation corner: three in-process shard daemons behind one
   router, the whole stack over real Unix sockets, binary protocol,
   rids on so every response carries its serving shard. Rebalancing is
   deliberately over-eager (threshold 0, 50 ms rounds) so the point
   also reports live cross-shard migration volume. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let point_federation ~label ~shards () =
  Printf.printf "running %-14s ...%!" label;
  let module Server = Pmp_server.Server in
  let module Router = Pmp_federation.Router in
  let module Rebalance = Pmp_federation.Rebalance in
  let requests = 10_000 in
  let machine_size = 256 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmp-bench-fed-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let start_shard k =
    let sdir = Filename.concat dir (Printf.sprintf "shard-%d" k) in
    let config =
      {
        (Server.default_config ~machine_size ~policy:Pmp_cluster.Cluster.Greedy
           ~dir:sdir)
        with
        Server.snapshot_every = 0;
      }
    in
    let server = Result.get_ok (Server.create config) in
    let path = Filename.concat sdir "pmp.sock" in
    let listener = Server.listen_unix path in
    (path, Domain.spawn (fun () -> Server.serve server ~listeners:[ listener ]))
  in
  let shard_list = List.init shards start_shard in
  let sockets = Array.of_list (List.map fst shard_list) in
  let router_config =
    {
      (Router.default_config ~sockets ~dir) with
      poll_interval = 0.05;
      probe_interval = 0.05;
      rebalance = Some { Rebalance.default_config with threshold = 0 };
      rebalance_interval = 0.05;
      shutdown_shards = true;
    }
  in
  let router =
    match Router.create router_config with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "service bench (%s): %s" label e)
  in
  let fed_path = Filename.concat dir "fed.sock" in
  let fed_listener = Server.listen_unix fed_path in
  let rdom =
    Domain.spawn (fun () -> Router.serve router ~listeners:[ fed_listener ])
  in
  let latency =
    Metrics.Histogram.make (Metrics.log_bounds ~start:1.0 ~ratio:2.0 ~count:24)
  in
  let result =
    match Client.connect_unix ~proto:Client.Binary fed_path with
    | Error e -> Error e
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let gen = L.make_gen ~seed:0xB00 ~machine_size in
            match L.drive c gen ~requests ~window:32 ~latency ~rids:true () with
            | Error e -> Error e
            | Ok outcome ->
                let dump =
                  match Client.request c Protocol.Metrics with
                  | Ok (Protocol.Metrics_reply m) -> m
                  | Ok _ | Error _ -> ""
                in
                (match Client.request c Protocol.Shutdown with
                | Ok Protocol.Bye | Ok _ | Error _ -> ());
                Ok (outcome, dump))
  in
  Domain.join rdom;
  List.iter (fun (_, d) -> Domain.join d) shard_list;
  rm_rf dir;
  match result with
  | Error e -> failwith (Printf.sprintf "service bench (%s): %s" label e)
  | Ok (o, dump) ->
      let metric name = Option.value ~default:nan (metric_value dump name) in
      let rebalanced = metric "fed_rebalanced_total" in
      Printf.printf " %8.0f req/s  p99 %6.0f us  rebalanced %.0f\n%!"
        (L.requests_per_sec o)
        (L.percentile latency 99.0)
        rebalanced;
      Json.Obj
        [
          ("label", Json.Str label);
          ("proto", Json.Str (Client.proto_name Client.Binary));
          ("fsync_policy", Json.Str (Wal.policy_name Wal.Group));
          ("wal_format", Json.Str (Wal.format_name Wal.Binary_records));
          ("shards", Json.Num (float_of_int shards));
          ("requests", Json.Num (float_of_int o.L.requests));
          ("mutations", Json.Num (float_of_int o.L.mutations));
          ("errors", Json.Num (float_of_int o.L.errors));
          ("ns_per_request", Json.Num (Float.round (L.ns_per_request o)));
          ("requests_per_sec", Json.Num (Float.round (L.requests_per_sec o)));
          ("latency_p50_us", Json.Num (L.percentile latency 50.0));
          ("latency_p99_us", Json.Num (L.percentile latency 99.0));
          ( "by_shard",
            Json.Obj
              (List.map
                 (fun (shard, n) ->
                   (string_of_int shard, Json.Num (float_of_int n)))
                 o.L.by_shard) );
          ("fed_requests_total", Json.Num (metric "fed_requests_total"));
          ("fed_rebalanced_total", Json.Num rebalanced);
          ( "fed_rebalanced_bytes_total",
            Json.Num (metric "fed_rebalanced_bytes_total") );
        ]

let () =
  let out = ref "BENCH_telemetry.json" in
  Arg.parse
    [ ("--out", Arg.Set_string out, "FILE  merge the service section into FILE") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "service.exe [--out FILE]";
  (* sequenced lets rather than a list literal so the progress lines
     print in run order *)
  let p1 =
    point ~label:"binary+group" ~proto:Client.Binary ~fsync_policy:Wal.Group
      ~wal_format:Wal.Binary_records ()
  in
  let p2 =
    point ~label:"json+group" ~proto:Client.Json ~fsync_policy:Wal.Group
      ~wal_format:Wal.Binary_records ()
  in
  let p3 =
    point ~label:"binary+always" ~proto:Client.Binary ~fsync_policy:Wal.Always
      ~wal_format:Wal.Binary_records ()
  in
  let p4 =
    point ~label:"json+always" ~proto:Client.Json ~fsync_policy:Wal.Always
      ~wal_format:Wal.Json_records ()
  in
  (* the instrumented corner: same fast path with per-stage timing on,
     so the report carries server-side latency attribution alongside
     the client-side percentiles *)
  let p5 =
    point ~label:"binary+group+obs" ~proto:Client.Binary
      ~fsync_policy:Wal.Group ~wal_format:Wal.Binary_records
      ~latency_profile:true ()
  in
  (* the multicore corner: four shard domains, four parallel client
     connections, the same binary+group fast path *)
  let p6 = point_domains ~label:"binary+group+dom4" ~domains:4 ~conns:4 () in
  (* the federation corner: one router in front of three shard daemons,
     same binary+group fast path on every hop *)
  let p7 = point_federation ~label:"fed+3shards" ~shards:3 () in
  (* the shipped defaults: binary protocol, group commit and a live-state
     snapshot every 1024 mutations, as `pmp serve` runs out of the box *)
  let p8 =
    point ~label:"binary+group+snap1024" ~proto:Client.Binary
      ~fsync_policy:Wal.Group ~wal_format:Wal.Binary_records
      ~snapshot_every:1024 ()
  in
  let points = [ p1; p2; p3; p4; p5; p6; p7; p8 ] in
  let words =
    match L.words_per_request () with
    | Ok w -> w
    | Error e -> failwith ("service bench (words): " ^ e)
  in
  Printf.printf "read-path allocation: %.2f words/request\n%!" words;
  let service =
    Json.Obj
      [
        ("points", Json.Arr points);
        ("read_path_words_per_request", Json.Num words);
      ]
  in
  let base =
    if Sys.file_exists !out then
      try Json.of_file !out with Json.Parse_error _ | Sys_error _ -> Json.Obj []
    else Json.Obj []
  in
  let merged =
    match base with
    | Json.Obj fields ->
        Json.Obj (List.remove_assoc "service" fields @ [ ("service", service) ])
    | _ -> Json.Obj [ ("service", service) ]
  in
  Json.to_file !out merged;
  Printf.printf "merged service section into %s\n%!" !out
