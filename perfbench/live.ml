(* The timed rounds: the shipped daemon, spawned as a child process and
   driven over one connection.

   A round starts the daemon on an empty state directory (set-up),
   sends the stream, checks every reply against the in-process replay,
   reads the daemon's counters, CPU, memory and state directory, and
   kills it with SIGKILL right after the last reply. A restarting round then starts it again on the same
   directory (recovery) and checks that its stats are unchanged: no
   acknowledged mutation was lost, and the daemon passed its own
   recovery audit, since it refuses to serve otherwise. *)

module P = Pmp_server.Protocol
module W = Workload

type round = {
  setup_s : float;
  recovery_s : float option;  (** only in rounds that restart *)
  throughput_rps : float;
  tail_ratio : float;  (** last third's rate over the first third's *)
  latency_p50_us : float;  (** exact, over this round's round trips *)
  latency_p99_us : float;
  cpu_us_per_req : float;
  client_cpu_us_per_req : float;
  rss_peak_mb : float;
  state_bytes : int;
  snapshot_files : int;
  snapshot_bytes : int;
  counters : (string, float) Hashtbl.t;  (** daemon counters, timed part only *)
  final : Pmp_cluster.Cluster.stats;
  requests : int;  (** sent this round, checks included *)
  errors : int;
}

type failure = { mutable first : string option; mutable count : int }

let fail f msg =
  f.count <- f.count + 1;
  if f.first = None then f.first <- Some msg

(* Prometheus text into [name{labels}] -> value. *)
let parse_metrics text =
  let h = Hashtbl.create 128 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | Some i -> (
               match
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
               with
               | Some v -> Hashtbl.replace h (String.sub line 0 i) v
               | None -> ())
           | None -> ());
  h

let scrape conn =
  match Conn.request conn P.Metrics with
  | P.Metrics_reply text -> parse_metrics text
  | _ -> failwith "metrics: unexpected reply"

let stats conn =
  match Conn.request conn P.Stats with
  | P.Stats_reply s -> s
  | _ -> failwith "stats: unexpected reply"

let delta before after =
  let h = Hashtbl.create 128 in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace h k
        (v -. Option.value ~default:0.0 (Hashtbl.find_opt before k)))
    after;
  h

let same_bytes a aoff b boff len =
  let rec go i = i = len || (Bytes.get a (aoff + i) = Bytes.get b (boff + i) && go (i + 1)) in
  go 0

(* One seeded stream and the replies a daemon must give to it. *)
type input = { w : W.t; ops : W.op array; expected : W.expected }

let prepare w ~seed =
  let ops = W.generate w ~seed in
  { w; ops; expected = W.expect w ops }

let send inp j out =
  let r = inp.expected.W.requests in
  Pmp_server.Netbuf.add_string out
    (Bytes.sub_string r.W.buf r.W.off.(j) (r.W.off.(j + 1) - r.W.off.(j)))

(* Reply [j] must be byte for byte the replay's; an error reply (tag 0)
   also counts as a failed request. *)
let check inp f errors j b pos limit =
  if Bytes.get b pos = '\000' then incr errors;
  let r = inp.expected.W.replies in
  let len = r.W.off.(j + 1) - r.W.off.(j) in
  if not (limit - pos = len && same_bytes r.W.buf r.W.off.(j) b pos len) then
    fail f (Printf.sprintf "request %d: reply differs from the replay" j)

(* Paths relative to the run's working directory. State goes under
   [mem], which run.py makes a memory-backed file system where the host
   allows it (see there), so other tenants' disk traffic does not set
   the figures. *)
let mem = "mem"
let dir = Filename.concat mem "state"
let socket = "d.sock"
let log = "daemon.log"

let start ~exe inp =
  let t0 = Proc.now_ns () in
  let pid = Proc.spawn ~exe ~args:(inp.w.W.args @ [ "--dir"; dir; "--socket"; socket ]) ~log in
  Proc.wait_ready ~pid ~socket ~log ~timeout:120.0;
  (pid, Proc.seconds_since t0)

let shutdown conn pid =
  (match Conn.request conn P.Shutdown with
  | P.Bye -> ()
  | _ -> failwith "shutdown: unexpected reply"
  | exception Failure _ -> ());
  Conn.close conn;
  Proc.reap pid

(* Only the set-up: start on an empty directory, wait for Health, stop. *)
let setup_only ~exe inp =
  Proc.rm_rf dir;
  let pid, setup = start ~exe inp in
  shutdown (Conn.create (Conn.connect socket)) pid;
  Proc.rm_rf dir;
  setup

let snapshot_usage dir =
  Proc.fold_files
    (fun (n, bytes) path size ->
      if String.starts_with ~prefix:"snapshot-" (Filename.basename path) then
        (n + 1, bytes + size)
      else (n, bytes))
    (0, 0) dir

let round ~exe ~restart inp f =
  let w = inp.w in
  Proc.rm_rf dir;
  let pid, setup_s = start ~exe inp in
  let conn = Conn.create (Conn.connect socket) in
  let errors = ref 0 in
  let before = scrape conn in
  let cpu0 = Proc.cpu_ns pid and self0 = Proc.self_cpu_ns () in
  let reqs = w.W.requests in
  let sent = Array.make reqs 0 and recvd = Array.make reqs 0 in
  Conn.drive conn ~n:reqs ~window:W.window ~send:(send inp) ~on_reply:(check inp f errors)
    ~sent ~recvd;
  let self1 = Proc.self_cpu_ns () and cpu1 = Proc.cpu_ns pid in
  let counters = delta before (scrape conn) in
  let final = stats conn in
  if final <> inp.expected.W.final then fail f "final stats differ from the replay";
  let rss_peak_mb = Proc.rss_peak_mb pid in
  let state_bytes = Proc.du dir in
  let snapshot_files, snapshot_bytes = snapshot_usage dir in
  Conn.close conn;
  Proc.kill9 pid;
  let recovery_s =
    if not restart then None
    else begin
      let pid, recovery_s = start ~exe inp in
      let conn = Conn.create (Conn.connect socket) in
      if stats conn <> final then fail f "stats changed across the SIGKILL restart";
      shutdown conn pid;
      Some recovery_s
    end
  in
  Proc.rm_rf dir;
  let per_req ns = float_of_int ns /. float_of_int reqs /. 1e3 in
  let third = reqs / 3 and t_end = recvd.(reqs - 1) in
  let latencies = Array.init reqs (fun j -> float_of_int (recvd.(j) - sent.(j)) *. 1e-3) in
  let first_third = recvd.(third - 1) - sent.(0)
  and last_third = t_end - recvd.(reqs - 1 - third) in
  {
    setup_s;
    recovery_s;
    throughput_rps = float_of_int reqs /. (float_of_int (t_end - sent.(0)) *. 1e-9);
    tail_ratio = float_of_int first_third /. float_of_int last_third;
    latency_p50_us = Sample.quantile latencies 0.5;
    latency_p99_us = Sample.quantile latencies 0.99;
    cpu_us_per_req = per_req (cpu1 - cpu0);
    client_cpu_us_per_req = per_req (self1 - self0);
    rss_peak_mb;
    state_bytes;
    snapshot_files;
    snapshot_bytes;
    counters;
    final;
    requests = Array.length inp.ops + 4 + if restart then 2 else 0;
    errors = !errors;
  }
