(* The traced run: the same seeded stream replayed in-process, with a
   span around every call into a layer's public functions.

   Spans (kind, start, end, parent) are kept in memory and written out
   when the run ends; a span's self time is its length minus the time
   its children cover. The layers are replayed in passes over the same
   stream, each with the state the daemon would have:

   - federation: [Fed_index.pick] for every submission over a two-shard
     index: what a router in front of two such daemons would pay to
     place this stream.
   - cluster and protocol: per request, [Protocol.decode_request_payload]
     on its payload, the [Cluster] call, [Protocol.response_payload] on
     the reply, and [Cluster.placement] of each new task: the cost of a
     query at this workload's live population.
   - server: [Server.handle_conn] over in-memory [Netbuf]s, one window
     of requests per call as the client sends them, then
     [Server.commit], with the shipped
     configuration in a state directory of its own. A call that took a
     snapshot gets a child span as long as the server's own snapshot
     timer measured.
   - wal: [Wal.append_submit] and [Wal.append_finish] for every
     mutation, into a log of its own.
   - recovery: the server's state directory loaded ([Snapshot.load],
     [Wal.load]), replayed ([Snapshot.restore], [Server.apply_wal_op])
     and audited ([Server.verify_cluster]) as a restart would. *)

module P = Pmp_server.Protocol
module Server = Pmp_server.Server
module Netbuf = Pmp_server.Netbuf
module Cluster = Pmp_cluster.Cluster
module Metrics = Pmp_telemetry.Metrics
module W = Workload

let kinds =
  [|
    "request"; "protocol.decode"; "cluster.submit"; "cluster.finish";
    "cluster.placement"; "protocol.encode"; "batch"; "server.handle_conn";
    "snapshot.save"; "server.commit"; "wal.append"; "recovery";
    "recovery.load"; "recovery.replay"; "recovery.audit"; "federation.pick";
  |]

let kind name =
  let rec go i = if kinds.(i) = name then i else go (i + 1) in
  go 0

let k_request = kind "request"
let k_decode = kind "protocol.decode"
let k_submit = kind "cluster.submit"
let k_finish = kind "cluster.finish"
let k_placement = kind "cluster.placement"
let k_encode = kind "protocol.encode"
let k_batch = kind "batch"
let k_dispatch = kind "server.handle_conn"
let k_snapshot = kind "snapshot.save"
let k_commit = kind "server.commit"
let k_append = kind "wal.append"
let k_recovery = kind "recovery"
let k_load = kind "recovery.load"
let k_replay = kind "recovery.replay"
let k_audit = kind "recovery.audit"
let k_pick = kind "federation.pick"

(* ------------------------------------------------------------------ *)
(* the span store                                                      *)

type spans = {
  mutable n : int;
  mutable kind : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;  (** -1 for a root *)
}

let spans = { n = 0; kind = [||]; t0 = [||]; t1 = [||]; parent = [||] }

let grow a n = let b = Array.make n 0 in Array.blit a 0 b 0 (Array.length a); b

(* Record a span and return its index; one added with end 0 gets its end
   from [close]. *)
let add kind ~parent t0 t1 =
  let s = spans in
  if s.n = Array.length s.kind then begin
    let cap = max 1024 (2 * s.n) in
    s.kind <- grow s.kind cap;
    s.t0 <- grow s.t0 cap;
    s.t1 <- grow s.t1 cap;
    s.parent <- grow s.parent cap
  end;
  let i = s.n in
  s.kind.(i) <- kind;
  s.t0.(i) <- t0;
  s.t1.(i) <- t1;
  s.parent.(i) <- parent;
  s.n <- i + 1;
  i

let close i t1 = spans.t1.(i) <- t1
let dur i = spans.t1.(i) - spans.t0.(i)

(* Run [f] inside a span of [kind]. *)
let timed kind ~parent f =
  let t0 = Proc.now_ns () in
  let r = f () in
  ignore (add kind ~parent t0 (Proc.now_ns ()));
  r

let self_times () =
  let s = spans in
  let self = Array.init s.n dur in
  for i = 0 to s.n - 1 do
    let p = s.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur i
  done;
  self

(* One line per span: kind, start and end in ns since the first span,
   and the index (line number from 0) of its parent, -1 for a root. *)
let write_spans path =
  let base = if spans.n = 0 then 0 else spans.t0.(0) in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to spans.n - 1 do
        Printf.fprintf oc "%s %d %d %d\n" kinds.(spans.kind.(i)) (spans.t0.(i) - base)
          (spans.t1.(i) - base) spans.parent.(i)
      done)

(* ------------------------------------------------------------------ *)
(* passes                                                              *)

let sorted_durs k ~from =
  let l = ref [] in
  for i = from to spans.n - 1 do
    if spans.kind.(i) = k then l := float_of_int (dur i) :: !l
  done;
  Sample.sorted (Array.of_list !l)

(* 0 when a call never happened in the stream *)
let quantile a q = if Array.length a = 0 then 0.0 else Sample.quantile a q

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum_self self k ~from =
  let t = ref 0 in
  for i = from to spans.n - 1 do
    if spans.kind.(i) = k then t := !t + self.(i)
  done;
  float_of_int !t

let frame_len payload = 2 + Pmp_server.Wire.varint_length payload + payload

let fail msg = failwith ("traced run: " ^ msg)
let ok what = function Ok v -> v | Error e -> fail (what ^ ": " ^ e)

(* The router's placement of every submission over two shards. *)
let pick_pass (inp : Live.input) =
  let module F = Pmp_federation.Fed_index in
  let ops = inp.Live.ops in
  let idx =
    F.create ~shard_sizes:(Array.make 2 inp.Live.w.W.machine_size) ~capacities:(Array.make 2 None)
  in
  let shard = Array.make (Array.length ops) 0 in
  Array.iteri
    (fun j op ->
      match op with
      | W.Submit size -> (
          match timed k_pick ~parent:(-1) (fun () -> F.pick idx ~size) with
          | Some s ->
              F.note_submit idx s ~size;
              shard.(j) <- s
          | None -> fail "no shard fits")
      | W.Finish p -> (
          match ops.(p) with
          | W.Submit size -> F.note_finish idx shard.(p) ~size
          | W.Finish _ -> ()))
    ops

(* Cluster and protocol, per request. Returns the ids assigned, the
   reply payloads, the marginal words per cluster call (over the second
   half of the stream) and the wire bytes per request. *)
let cluster_pass (inp : Live.input) c =
  let ops = inp.Live.ops in
  let n = Array.length ops in
  let ids = Array.make n (-1) in
  let reqb = Buffer.create 64 and repb = Buffer.create 64 in
  let replies = Array.make n "" in
  let words = ref 0.0 and calls = ref 0 and bytes = ref 0 in
  for j = 0 to n - 1 do
    let parent = add k_request ~parent:(-1) (Proc.now_ns ()) 0 in
    Buffer.clear reqb;
    P.request_payload reqb (W.request ~ids ops.(j));
    let payload = Buffer.contents reqb in
    let req =
      timed k_decode ~parent (fun () ->
          P.decode_request_payload payload ~pos:0 ~limit:(String.length payload))
      |> ok "decode"
    in
    let w0 = Gc.minor_words () in
    let t0 = Proc.now_ns () in
    let k, resp =
      match req with
      | P.Submit size -> (
          ( k_submit,
            match ok "submit" (Cluster.submit c ~size) with
            | Cluster.Placed (id, p) ->
                ids.(j) <- id;
                P.Placed (id, P.placement_of_core p)
            | Cluster.Queued id ->
                ids.(j) <- id;
                P.Queued id ))
      | P.Finish id ->
          ok "finish" (Cluster.finish c id);
          (k_finish, P.Finished)
      | _ -> fail "unexpected request"
    in
    ignore (add k ~parent t0 (Proc.now_ns ()));
    if 2 * j >= n then begin
      words := !words +. (Gc.minor_words () -. w0);
      incr calls
    end;
    (match resp with
    | P.Placed (id, _) -> ignore (timed k_placement ~parent (fun () -> Cluster.placement c id))
    | _ -> ());
    Buffer.clear repb;
    timed k_encode ~parent (fun () -> P.response_payload repb resp);
    replies.(j) <- Buffer.contents repb;
    bytes := !bytes + frame_len (String.length payload) + frame_len (Buffer.length repb);
    close parent (Proc.now_ns ())
  done;
  (ids, replies, !words /. float_of_int (max 1 !calls), float_of_int !bytes /. float_of_int (max 1 n))

let find_span reg name =
  List.find_map
    (fun (n, _, _, i) ->
      match i with Metrics.I_span s when n = name -> Some s | _ -> None)
    (Metrics.Registry.entries reg)
  |> function
  | Some s -> s
  | None -> fail ("no span " ^ name)

type server_figures = {
  dispatch_ns : float;  (** per request, calls without a snapshot *)
  dispatch_cpu_ns : float;  (** CPU per request, every call *)
  commit_cpu_ns : float;  (** CPU per request *)
  dispatch_words : float;  (** per request, second half, same calls *)
  snapshots_ms : float array;  (** every snapshot of the stream *)
}

(* The stream through an in-process server, one window per
   [handle_conn] call; replies must match the cluster pass. *)
let server_pass (inp : Live.input) srv ~ids ~replies =
  let ops = inp.Live.ops in
  let n = Array.length ops in
  let inb = Netbuf.create 4096 and out = Netbuf.create 4096 in
  let snap = find_span (Server.registry srv) "pmpd_snapshot_seconds" in
  let words = ref 0.0 and wreqs = ref 0 in
  let dispatch_ns = ref 0 and dispatch_reqs = ref 0 in
  let dispatch_cpu = ref 0.0 and commit_cpu = ref 0.0 in
  let snapshots_ms = ref [] in
  let cur = { Pmp_server.Wire.pos = 0 } in
  let check j =
    let b = Netbuf.bytes out and off = Netbuf.offset out in
    cur.Pmp_server.Wire.pos <- off + 2;
    let plen = Pmp_server.Wire.read_varint b cur (off + Netbuf.length out) in
    let p = cur.Pmp_server.Wire.pos in
    if Bytes.sub_string b p plen <> replies.(j) then
      fail (Printf.sprintf "server reply %d differs from the cluster replay" j);
    Netbuf.consume out (p + plen - off)
  in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + W.window) in
    let k = hi - !lo in
    for j = !lo to hi - 1 do
      Netbuf.add_string inb (P.encode_request_binary (W.request ~ids ops.(j)))
    done;
    let batch = add k_batch ~parent:(-1) (Proc.now_ns ()) 0 in
    let count0 = Metrics.Span.count snap and total0 = Metrics.Span.total snap in
    let c0 = Proc.process_cpu_s () in
    let w0 = Gc.minor_words () in
    let t0 = Proc.now_ns () in
    (match Server.handle_conn srv inb out ~budget:64 with
    | `Handled h when h = k -> ()
    | _ -> fail "server did not take the whole window");
    let t1 = Proc.now_ns () in
    let w1 = Gc.minor_words () in
    let c1 = Proc.process_cpu_s () in
    let d = add k_dispatch ~parent:batch t0 t1 in
    if Metrics.Span.count snap > count0 then begin
      let ns = int_of_float ((Metrics.Span.total snap -. total0) *. 1e9) in
      ignore (add k_snapshot ~parent:d (t1 - ns) t1);
      snapshots_ms := (float_of_int ns /. 1e6) :: !snapshots_ms
    end
    else begin
      dispatch_ns := !dispatch_ns + (t1 - t0);
      dispatch_reqs := !dispatch_reqs + k;
      if 2 * !lo >= n then begin
        words := !words +. (w1 -. w0);
        wreqs := !wreqs + k
      end
    end;
    timed k_commit ~parent:batch (fun () -> Server.commit srv);
    dispatch_cpu := !dispatch_cpu +. (c1 -. c0);
    commit_cpu := !commit_cpu +. (Proc.process_cpu_s () -. c1);
    close batch (Proc.now_ns ());
    for j = !lo to hi - 1 do
      check j
    done;
    lo := hi
  done;
  {
    dispatch_ns = float_of_int !dispatch_ns /. float_of_int (max 1 !dispatch_reqs);
    dispatch_cpu_ns = !dispatch_cpu *. 1e9 /. float_of_int n;
    commit_cpu_ns = !commit_cpu *. 1e9 /. float_of_int n;
    dispatch_words = !words /. float_of_int (max 1 !wreqs);
    snapshots_ms = Sample.sorted (Array.of_list !snapshots_ms);
  }

(* Every mutation of the stream appended to a log of its own; returns
   the log's bytes per mutation. *)
let wal_pass (inp : Live.input) ~ids ~path =
  let module Wal = Pmp_server.Wal in
  let wal = Wal.open_log ~format:Wal.Binary_records path in
  let seq = ref 0 in
  Array.iteri
    (fun j op ->
      (match op with
      | W.Submit size ->
          incr seq;
          timed k_append ~parent:(-1) (fun () -> Wal.append_submit wal ~seq:!seq ~id:ids.(j) ~size)
      | W.Finish p ->
          incr seq;
          timed k_append ~parent:(-1) (fun () -> Wal.append_finish wal ~seq:!seq ~id:ids.(p)));
      if j mod W.window = W.window - 1 then ignore (Wal.commit wal ~fsync:false))
    inp.Live.ops;
  Wal.close wal;
  float_of_int (Unix.stat path).Unix.st_size /. float_of_int (max 1 !seq)

(* A restart on the server's state directory, step by step; returns the
   WAL records replayed. *)
let recovery_pass (w : W.t) ~dir ~expected =
  let root = add k_recovery ~parent:(-1) (Proc.now_ns ()) 0 in
  let snap, records =
    timed k_load ~parent:root (fun () ->
        ( Option.map
            (fun (path, _) -> ok "snapshot load" (Pmp_server.Snapshot.load path))
            (Pmp_server.Snapshot.latest ~dir),
          ok "wal load" (Pmp_server.Wal.load (Filename.concat dir "wal.log")) ))
  in
  let policy = w.W.policy in
  let cluster, tail =
    timed k_replay ~parent:root (fun () ->
        let cluster, from =
          match snap with
          | Some s -> (ok "restore" (Pmp_server.Snapshot.restore s), s.Pmp_server.Snapshot.seq)
          | None -> (ok "create" (Cluster.create ~machine_size:w.W.machine_size ~policy ()), 0)
        in
        let tail = List.filter (fun (seq, _) -> seq > from) records in
        List.iter (fun (_, op) -> ok "replay" (Server.apply_wal_op cluster op)) tail;
        (cluster, List.length tail))
  in
  timed k_audit ~parent:root (fun () ->
      ok "audit"
        (Server.verify_cluster ~machine_size:w.W.machine_size ~policy ~admission_cap:None
           cluster));
  close root (Proc.now_ns ());
  ok "recovered state" (Server.same_state cluster expected);
  tail

type result = {
  values : (string * string * float) list;  (** per-layer metrics: name, unit, value *)
  server_cpu_ns : float;
      (** CPU per request in [handle_conn] (snapshots included) and
          [commit]: what the traced run sets against the live server CPU *)
  breakdown : (string * float) list;  (** ns per request, by layer *)
}

let run (inp : Live.input) =
  let w = inp.Live.w and ops = inp.Live.ops in
  let dir = Filename.concat Live.mem "trace"
  and wal_path = Filename.concat Live.mem "wal-pass.log" in
  Proc.rm_rf dir;
  let policy = w.W.policy in
  pick_pass inp;
  let cluster = ok "cluster" (Cluster.create ~machine_size:w.W.machine_size ~policy ()) in
  let ids, replies, cluster_words, bytes_per_req = cluster_pass inp cluster in
  let r = inp.Live.expected.W.replies in
  Array.iteri
    (fun j reply ->
      if reply <> Bytes.sub_string r.W.buf r.W.off.(j) (r.W.off.(j + 1) - r.W.off.(j)) then
        fail (Printf.sprintf "cluster reply %d differs from the expected one" j))
    replies;
  let srv =
    ok "server" (Server.create (Server.default_config ~machine_size:w.W.machine_size ~policy ~dir))
  in
  let sv = server_pass inp srv ~ids ~replies in
  Server.close srv;
  let wal_bytes = wal_pass inp ~ids ~path:wal_path in
  let recovery_from = spans.n in
  let replayed = recovery_pass w ~dir ~expected:cluster in
  write_spans "spans.txt";
  Proc.rm_rf dir;
  Proc.rm_rf wal_path;
  let self = self_times () in
  let n = float_of_int (Array.length ops) in
  let per_req k = sum_self self k ~from:0 /. n in
  let all k = sorted_durs k ~from:0 in
  let ms k = sum_self self k ~from:recovery_from /. 1e6 in
  let stats = Cluster.stats cluster in
  let migrated = float_of_int stats.Cluster.tasks_migrated in
  let cluster_ns = per_req k_submit +. per_req k_finish in
  let append_ns = per_req k_append in
  let snaps = sv.snapshots_ms in
  {
    values =
      [
        ("cluster.submit_ns_p50", "ns", quantile (all k_submit) 0.5);
        ("cluster.submit_ns_p99", "ns", quantile (all k_submit) 0.99);
        ("cluster.finish_ns_p50", "ns", quantile (all k_finish) 0.5);
        ("cluster.query_ns_p50", "ns", quantile (all k_placement) 0.5);
        ("cluster.words_per_op", "words", cluster_words);
        ("core.repacks", "count", float_of_int stats.Cluster.reallocations);
        ("core.tasks_migrated", "count", migrated);
        ( "core.migrations_per_submit", "ratio",
          migrated /. float_of_int (max 1 stats.Cluster.submitted) );
        ("protocol.decode_ns", "ns", mean (all k_decode));
        ("protocol.encode_ns", "ns", mean (all k_encode));
        ("protocol.bytes_per_req", "bytes", bytes_per_req);
        ("server.dispatch_ns_per_req", "ns", sv.dispatch_ns);
        ("server.dispatch_words_per_req", "words", sv.dispatch_words);
        ("server.commit_ns", "ns", mean (all k_commit));
        ("wal.append_ns", "ns", mean (all k_append));
        ("wal.bytes_per_mutation", "bytes", wal_bytes);
        ("snapshot.save_ms_p50", "ms", quantile snaps 0.5);
        ("snapshot.save_ms_max", "ms", quantile snaps 1.0);
        ("recovery.load_ms", "ms", ms k_load);
        ("recovery.replay_ms", "ms", ms k_replay);
        ("recovery.audit_ms", "ms", ms k_audit);
        ("recovery.records_replayed", "count", float_of_int replayed);
        ("federation.pick_ns", "ns", mean (all k_pick));
      ];
    server_cpu_ns = sv.dispatch_cpu_ns +. sv.commit_cpu_ns;
    breakdown =
      [
        ("server.handle_conn CPU", sv.dispatch_cpu_ns);
        ("  cluster (self)", cluster_ns);
        ("  wal.append (self)", append_ns);
        ("  snapshot (wall)", per_req k_snapshot);
        ("server.commit CPU", sv.commit_cpu_ns);
        ("server.commit (wall)", per_req k_commit);
      ];
  }
