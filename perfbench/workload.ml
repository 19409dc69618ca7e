(* The workloads and the seeded request streams they send.

   A stream is generated from the seed alone. A finish names the
   submission it ends by its position in the stream; an in-process
   replay on a [Cluster] with the daemon's policy then gives every task
   id and every reply the daemon must send. The client keeps [window]
   requests in flight and sends request [j] only once the reply to
   request [j - window] is back, so the generator finishes a task only
   [window] requests after it was submitted, as a client that learns
   ids from replies could. *)

module Prng = Pmp_prng.Splitmix64
module Cluster = Pmp_cluster.Cluster

let window = 32

type op =
  | Submit of int  (** size *)
  | Finish of int  (** position of the submission *)

type t = {
  name : string;
  args : string list;  (** [pmp] arguments before [--dir]/[--socket] *)
  machine_size : int;
  policy : Cluster.policy;  (** what [args] select, for the replay *)
  requests : int;  (** per round *)
}

let all =
  [
    {
      name = "churn-default";
      args = [ "serve" ];
      machine_size = 256;
      policy = Cluster.Greedy;
      requests = 20_000;
    };
    {
      name = "repack-large";
      args = [ "serve"; "--machine"; "65536"; "--alloc"; "periodic"; "-d"; "2" ];
      machine_size = 65536;
      policy = Cluster.Periodic (Pmp_core.Realloc.Budget 2);
      requests = 16_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* generation                                                          *)

type gen = {
  rng : Prng.t;
  mutable live : int array;  (** positions of live submissions *)
  mutable n_live : int;
  pending : int Queue.t;  (** submissions whose reply is not back yet *)
}

let activate g ~upto =
  while (not (Queue.is_empty g.pending)) && Queue.peek g.pending <= upto do
    let p = Queue.pop g.pending in
    if g.n_live = Array.length g.live then begin
      let bigger = Array.make (2 * g.n_live) 0 in
      Array.blit g.live 0 bigger 0 g.n_live;
      g.live <- bigger
    end;
    g.live.(g.n_live) <- p;
    g.n_live <- g.n_live + 1
  done

let take_live g =
  let i = Prng.int g.rng g.n_live in
  let p = g.live.(i) in
  g.n_live <- g.n_live - 1;
  g.live.(i) <- g.live.(g.n_live);
  p

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* The [Loadgen] churn mix: 9 finishes of live tasks in every 20
   requests (45%), the rest submissions of [2^k] PEs with [k] uniform up
   to a quarter machine. Each block of 20 holds exactly 9 finishes in a
   seeded order, so the number of live tasks, and every cost that grows
   with it, is the same for every seed. *)
let block = 20
let finishes = 9

let generate w ~seed =
  let g =
    { rng = Prng.create seed; live = Array.make 1024 0; n_live = 0;
      pending = Queue.create () }
  in
  let exps = log2 (w.machine_size / 4) + 1 in
  let slots = Array.init block (fun i -> i < finishes) in
  Array.init w.requests (fun j ->
      activate g ~upto:(j - window);
      if j mod block = 0 then
        for i = block - 1 downto 1 do
          let k = Prng.int g.rng (i + 1) in
          let s = slots.(i) in
          slots.(i) <- slots.(k);
          slots.(k) <- s
        done;
      if slots.(j mod block) && g.n_live > 0 then Finish (take_live g)
      else begin
        Queue.push j g.pending;
        Submit (1 lsl Prng.int g.rng exps)
      end)

(* ------------------------------------------------------------------ *)
(* the expected replies                                                *)

let request ~ids = function
  | Submit size -> Pmp_server.Protocol.Submit size
  | Finish p -> Pmp_server.Protocol.Finish ids.(p)

(* Apply one op to an in-process cluster; the reply a daemon running
   the same policy must give. [ids] is filled in as submissions are
   placed. *)
let apply cluster ~ids j op =
  let module P = Pmp_server.Protocol in
  let ok = function Ok v -> v | Error e -> failwith ("replay: " ^ e) in
  match op with
  | Submit size -> (
      match ok (Cluster.submit cluster ~size) with
      | Cluster.Placed (id, p) ->
          ids.(j) <- id;
          P.Placed (id, P.placement_of_core p)
      | Cluster.Queued id ->
          ids.(j) <- id;
          P.Queued id)
  | Finish p ->
      ok (Cluster.finish cluster ids.(p));
      P.Finished

(* Frames stored back to back: item [j] spans [off.(j), off.(j+1)). *)
type frames = { buf : Bytes.t; off : int array }

let frames_of n f =
  let b = Buffer.create (n * 8) in
  let off = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    f j b;
    off.(j + 1) <- Buffer.length b
  done;
  { buf = Buffer.to_bytes b; off }

type expected = {
  requests : frames;  (** complete request frames *)
  replies : frames;  (** reply payloads, frame header stripped *)
  final : Cluster.stats;
}

let expect w ops =
  let cluster =
    match Cluster.create ~machine_size:w.machine_size ~policy:w.policy () with
    | Ok c -> c
    | Error e -> failwith e
  in
  let n = Array.length ops in
  let ids = Array.make n (-1) in
  let replies =
    frames_of n (fun j b ->
        Pmp_server.Protocol.response_payload b (apply cluster ~ids j ops.(j)))
  in
  let requests =
    frames_of n (fun j b ->
        Buffer.add_string b
          (Pmp_server.Protocol.encode_request_binary (request ~ids ops.(j))))
  in
  { requests; replies; final = Cluster.stats cluster }

(* The highest total size of live tasks over the stream. Nothing queues
   (no admission cap), so it follows from the sizes alone. *)
let peak_active_size ops =
  let sizes = Array.make (Array.length ops) 0 in
  let active = ref 0 and peak = ref 0 in
  Array.iteri
    (fun j -> function
      | Submit s ->
          sizes.(j) <- s;
          active := !active + s;
          peak := max !peak !active
      | Finish p -> active := !active - sizes.(p))
    ops;
  !peak
