(* The benchmark's entry point. run.py builds it and starts it as

     main.exe --pmp PMP --work DIR --workload NAME --seed N --seconds S --trace 0|1

   It repeats rounds (see {!Live}) until [--seconds] have passed, then
   prints one JSON object as its last line: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1] (which adds the
   in-process traced run of {!Traced}). Lines before it describe the
   host and the samples behind each figure. *)

module W = Workload

(* Each run sends [streams] seeded streams, a round at a time in turn,
   and reports medians over them, so no figure hangs on one draw of the
   input. Stream [i] of seed [s] is generated from seed [s * streams + i]. *)
let streams = 4

(* Every [restart_every]-th round also kills and restarts the daemon.
   Recovery costs seconds, so most rounds skip it; being coprime with
   [streams], the restarts still cycle through every stream, and being
   spread over the run, no one slow spell of the host sets them all. *)
let restart_every = 3

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let host_facts () =
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "host: nproc=%d ocaml=%s state_fs=%s fsync_policy=group (shipped default)\n%!"
    nproc Sys.ocaml_version (Proc.fs_type Live.mem)

let counter (r : Live.round) name =
  Option.value ~default:0.0 (Hashtbl.find_opt r.Live.counters name)

let run ~exe ~workload ~seed ~seconds ~trace =
  let w = match W.find workload with Some w -> w | None -> failwith ("unknown workload " ^ workload) in
  host_facts ();
  let t_prep = Proc.now_ns () in
  let inputs = Array.init streams (fun i -> Live.prepare w ~seed:((seed * streams) + i)) in
  Printf.printf "workload %s seed %d: %d streams of %d requests, prepared in %.2f s\n%!"
    w.W.name seed streams w.W.requests (Proc.seconds_since t_prep);
  let f = { Live.first = None; count = 0 } in
  (* one untimed round first, checked like the others, so no timed round
     pays for a cold start *)
  ignore (Live.round ~exe ~restart:false inputs.(0) f);
  let t0 = Proc.now_ns () in
  (* set-up takes milliseconds, so each round adds a start-up of its own *)
  let setups = ref [] in
  let rec rounds acc i =
    if i > 0 && Proc.seconds_since t0 >= float_of_int seconds then Array.of_list (List.rev acc)
    else begin
      let inp = inputs.(i mod streams) in
      setups := Live.setup_only ~exe inp :: !setups;
      let r = Live.round ~exe ~restart:(i mod restart_every = 0) inp f in
      setups := r.Live.setup_s :: !setups;
      rounds (r :: acc) (i + 1)
    end
  in
  let rs = rounds [] 0 in
  Array.iteri
    (fun i (r : Live.round) ->
      Printf.printf "round %d (stream %d): %.0f req/s, p50 %.1f us, p99 %.1f us, server %.2f us/req, client %.2f us/req%s\n"
        i (i mod streams) r.Live.throughput_rps r.Live.latency_p50_us r.Live.latency_p99_us
        r.Live.cpu_us_per_req r.Live.client_cpu_us_per_req
        (match r.Live.recovery_s with
        | Some s -> Printf.sprintf ", recovery %.3f s" s
        | None -> ""))
    rs;
  let restarts = Array.of_list (List.filter_map (fun (r : Live.round) -> r.Live.recovery_s) (Array.to_list rs)) in
  let med g = Sample.median (Array.map g rs) in
  let attempted = Array.fold_left (fun acc r -> acc + r.Live.requests) 0 rs in
  let failed = Array.fold_left (fun acc r -> acc + r.Live.errors) 0 rs in
  (* the paper's trade-off, per stream: peak load over L* and placements
     (first placements and migrations) per submission *)
  let per_stream g =
    Sample.median
      (Array.init (min streams (Array.length rs)) (fun i ->
           g inputs.(i) rs.(i).Live.final))
  in
  let open Pmp_cluster.Cluster in
  let load_ratio (inp : Live.input) final =
    let n = w.W.machine_size in
    let l_star = (W.peak_active_size inp.Live.ops + n - 1) / n in
    float_of_int final.peak_load /. float_of_int (max 1 l_star)
  in
  let placements _ final =
    float_of_int (final.submitted + final.tasks_migrated) /. float_of_int (max 1 final.submitted)
  in
  Printf.printf
    "%d rounds in %.1f s; latency: median over rounds of exact quantiles, %d raw samples; set-up from %d start-ups; recovery from %d restarts; error ratio %.6f\n%!"
    (Array.length rs) (Proc.seconds_since t0) (Array.length rs * w.W.requests)
    (List.length !setups) (Array.length restarts)
    (float_of_int failed /. float_of_int attempted);
  Option.iter (fun m -> Printf.printf "correctness: %d failed checks, first: %s\n%!" f.Live.count m) f.Live.first;
  let cpu_us = med (fun r -> r.Live.cpu_us_per_req) in
  let requests = float_of_int w.W.requests in
  let metrics =
    if trace = 0 then
      [
        ("throughput_rps", "1/s", med (fun r -> r.Live.throughput_rps));
        ("latency_p50_us", "us", med (fun r -> r.Live.latency_p50_us));
        ("latency_p99_us", "us", med (fun r -> r.Live.latency_p99_us));
        ("setup_s", "s", Sample.median (Array.of_list !setups));
        ("recovery_s", "s", Sample.median restarts);
        ("state_bytes", "bytes", med (fun r -> float_of_int r.Live.state_bytes));
        ("server_rss_peak_mb", "MB", med (fun r -> r.Live.rss_peak_mb));
        ("server_cpu_us_per_req", "us", cpu_us);
        ("tail_throughput_ratio", "ratio", med (fun r -> r.Live.tail_ratio));
        ("load_ratio", "ratio", per_stream load_ratio);
        ("placements_per_submit", "ratio", per_stream placements);
      ]
    else begin
      let tr = Traced.run inputs.(0) in
      let live_ns = cpu_us *. 1e3 in
      let residual = live_ns -. tr.Traced.server_cpu_ns in
      Printf.printf "server CPU per request: live %.0f ns, traced %.0f ns:\n" live_ns
        tr.Traced.server_cpu_ns;
      List.iter (fun (k, v) -> Printf.printf "  %-26s %10.0f ns\n" k v) tr.Traced.breakdown;
      Printf.printf "loop residual (live - traced) %.0f ns, %.1f%% of server CPU\n%!" residual
        (100.0 *. residual /. live_ns);
      let per_kreq name = med (fun r -> counter r name) *. 1000.0 /. requests in
      let ratio num den = med (fun r -> counter r num /. Float.max 1.0 (counter r den)) in
      tr.Traced.values
      @ [
          ("server.batch_size", "req", ratio "pmpd_batch_size_sum" "pmpd_batch_size_count");
          ("loop.residual_ns_per_req", "ns", residual);
          ("loop.residual_share", "ratio", residual /. live_ns);
          ("loop.batches_per_kreq", "count", per_kreq "pmpd_batches_total");
          ("wal.fsyncs_per_kreq", "count", per_kreq "pmpd_fsync_total");
          ("wal.group_size", "count", ratio "pmpd_wal_group_size_sum" "pmpd_wal_group_size_count");
          ("snapshot.count", "count", med (fun r -> counter r "pmpd_snapshots_total"));
          ( "snapshot.share_of_server", "ratio",
            med (fun r ->
                counter r "pmpd_snapshot_seconds_sum" /. (r.Live.cpu_us_per_req *. 1e-6 *. requests)) );
          ( "snapshot.bytes_per_mutation", "bytes",
            med (fun r -> float_of_int r.Live.snapshot_bytes) /. requests );
          ("snapshot.files_left", "count", med (fun r -> float_of_int r.Live.snapshot_files));
          ("loadgen.cpu_us_per_req", "us", med (fun r -> r.Live.client_cpu_us_per_req));
        ]
    end
  in
  print_result ~correct:(f.Live.count = 0) ~attempted ~failed metrics

let () =
  let pmp = ref "" and work = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--pmp", Arg.Set_string pmp, "PATH the pmp binary");
      ("--work", Arg.Set_string work, "DIR working directory (created)");
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --pmp PMP --work DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let stop code = Proc.kill_all (); exit code in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop 130)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    if !pmp = "" || !work = "" || (!trace <> 0 && !trace <> 1) then failwith "bad arguments";
    let exe = if Filename.is_relative !pmp then Filename.concat (Sys.getcwd ()) !pmp else !pmp in
    Proc.mkdir_p !work;
    Sys.chdir !work;
    Proc.mkdir_p Live.mem;
    Proc.rm_rf "daemon.log";
    run ~exe ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace;
    Proc.kill_all ()
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    stop 1
