(* The one connection front end: framing, malformed-input rules, rid
   peeling and response framing for every request core. See front.mli.

   Everything here runs once or more per request on the server's hot
   path, so it allocates nothing on the binary path: no closures (the
   drain loop is a top-level function taking every input), results are
   constant constructors, the rid lives in a mutable field. *)

type outcome = Reply | Reject of string | Pass

type 's handler = {
  fast : 's -> Buffer.t -> Bytes.t -> int -> int -> outcome;
  respond :
    's -> conn:int -> Protocol.request -> Protocol.response * int option;
  start : 's -> unit;
  finish : 's -> op:int -> size:int -> ok:bool -> unit;
}

let pass _ _ _ _ _ = Pass

type t = {
  scratch : Buffer.t;  (** response payload of the request in hand *)
  cur : Wire.cursor;
  mutable tagged : bool;  (** the request in hand carried a rid *)
  mutable rid : int;
  mutable op : int;  (** its effective opcode *)
  mutable stop : bool;  (** it was a binary [shutdown] *)
}

let create () =
  {
    scratch = Buffer.create 256;
    cur = { Wire.pos = 0 };
    tagged = false;
    rid = 0;
    op = 0;
    stop = false;
  }

type step = Incomplete | Next | Stop | Close

let is_error = function Protocol.Error _ -> true | _ -> false
let is_shutdown = function Protocol.Shutdown -> true | _ -> false

let add_frame fe out =
  Netbuf.add_char out (Char.unsafe_chr Wire.request_magic);
  Netbuf.add_char out (Char.unsafe_chr Wire.version);
  Netbuf.add_varint out (Buffer.length fe.scratch);
  Netbuf.add_buffer out fe.scratch

(* Frame [resp], inside the rid wrapper when the request was tagged —
   shard-stamped when the core names the shard that served it. *)
let add_response fe out ?shard resp =
  let sc = fe.scratch in
  Buffer.clear sc;
  (match shard with
  | Some shard when fe.tagged ->
      Protocol.response_payload_attr sc ~rid:fe.rid ~shard resp
  | _ ->
      if fe.tagged then Protocol.response_payload_rid sc ~rid:fe.rid resp
      else Protocol.response_payload sc resp);
  add_frame fe out

let add_line out resp =
  Netbuf.add_string out resp;
  Netbuf.add_char out '\n'

(* A framing error: one reply, then the connection is done. *)
let poison h s fe out ~binary e =
  h.start s;
  if binary then begin
    fe.tagged <- false;
    add_response fe out (Protocol.Error e)
  end
  else add_line out (Protocol.encode_response (Protocol.Error e));
  h.finish s ~op:0 ~size:0 ~ok:false;
  Close

(* The generic path: decode a copy of the payload, apply, encode. *)
let generic h s fe ~conn out b pos limit =
  match
    Protocol.decode_request_payload (Bytes.sub_string b pos (limit - pos))
      ~pos:0 ~limit:(limit - pos)
  with
  | Error e ->
      add_response fe out (Protocol.Error e);
      false
  | Ok req ->
      let resp, shard = h.respond s ~conn req in
      add_response fe out ?shard resp;
      fe.stop <- is_shutdown req;
      not (is_error resp)

(* Answer the untagged payload [[pos, limit)]: inline when the core's
   fast path takes it, generically otherwise. The rid wrapper, when
   there is one, already sits at the front of the scratch buffer. *)
let dispatch h s fe ~conn out b pos limit =
  match h.fast s fe.scratch b pos limit with
  | Reply ->
      add_frame fe out;
      true
  | Reject e ->
      add_response fe out (Protocol.Error e);
      false
  | Pass -> generic h s fe ~conn out b pos limit

(* One complete binary payload; returns whether it succeeded. *)
let binary_request h s fe ~conn out b pos limit =
  let sc = fe.scratch in
  Buffer.clear sc;
  fe.tagged <- false;
  fe.stop <- false;
  fe.op <- Char.code (Bytes.unsafe_get b pos);
  match
    if fe.op <> Protocol.op_tagged then dispatch h s fe ~conn out b pos limit
    else begin
      fe.cur.Wire.pos <- pos + 1;
      fe.rid <- Wire.read_varint b fe.cur limit;
      fe.tagged <- true;
      let inner = fe.cur.Wire.pos in
      if inner < limit then fe.op <- Char.code (Bytes.unsafe_get b inner);
      if fe.op = Protocol.op_tagged then
        raise
          (Wire.Corrupt
             (if inner < limit then "nested request tag" else "truncated frame"));
      Buffer.add_char sc (Char.unsafe_chr Protocol.st_tagged);
      Wire.add_varint sc fe.rid;
      dispatch h s fe ~conn out b inner limit
    end
  with
  | ok -> ok
  | exception Wire.Corrupt e ->
      add_response fe out (Protocol.Error e);
      false

let binary h s fe ~conn inbuf out =
  let avail = Netbuf.length inbuf in
  if avail < 2 then Incomplete
  else if Netbuf.get_byte inbuf 1 <> Wire.version then
    poison h s fe out ~binary:true
      (Printf.sprintf "unsupported wire version %d" (Netbuf.get_byte inbuf 1))
  else begin
    let b = Netbuf.bytes inbuf in
    let off = Netbuf.offset inbuf in
    let hard = off + avail in
    fe.cur.Wire.pos <- off + 2;
    match Wire.read_varint b fe.cur hard with
    | exception Wire.Corrupt _ ->
        if avail - 2 >= Wire.max_varint_bytes then
          poison h s fe out ~binary:true "bad frame length"
        else Incomplete
    | plen ->
        let ppos = fe.cur.Wire.pos in
        if plen < 0 || plen > Wire.max_payload then
          poison h s fe out ~binary:true "bad frame length"
        else if plen = 0 then poison h s fe out ~binary:true "empty frame"
        else if ppos + plen > hard then Incomplete
        else begin
          h.start s;
          let ok = binary_request h s fe ~conn out b ppos (ppos + plen) in
          Netbuf.consume inbuf (ppos + plen - off);
          h.finish s ~op:fe.op ~size:plen ~ok;
          if fe.stop then Stop else Next
        end
  end

(* One JSON line — the debug encoding, so allocation is fine here. *)
let line h s fe ~conn inbuf out =
  match Netbuf.find_newline inbuf with
  | Some i when i <= Wire.max_payload -> (
      h.start s;
      let text = Netbuf.sub_string inbuf ~off:0 ~len:i in
      Netbuf.consume inbuf (i + 1);
      match Protocol.decode_request_rid text with
      | Error e ->
          add_line out (Protocol.encode_response (Protocol.Error e));
          h.finish s ~op:0 ~size:i ~ok:false;
          Next
      | Ok (req, rid) ->
          let resp, shard = h.respond s ~conn req in
          let shard = if rid = None then None else shard in
          add_line out (Protocol.encode_response ?rid ?shard resp);
          h.finish s ~op:(Protocol.opcode req) ~size:i ~ok:(not (is_error resp));
          if is_shutdown req then Stop else Next)
  | Some _ -> poison h s fe out ~binary:false "line too long"
  | None ->
      if Netbuf.length inbuf > Wire.max_payload then
        poison h s fe out ~binary:false "line too long"
      else Incomplete

let rec drain h s fe ~conn inbuf out ~budget n =
  if n >= budget || Netbuf.is_empty inbuf then `Handled n
  else
    match
      if Netbuf.get_byte inbuf 0 = Wire.request_magic then
        binary h s fe ~conn inbuf out
      else line h s fe ~conn inbuf out
    with
    | Incomplete -> `Handled n
    | Next -> drain h s fe ~conn inbuf out ~budget (n + 1)
    | Stop -> `Stop (n + 1)
    | Close ->
        Netbuf.clear inbuf;
        `Close (n + 1)

let handle h s fe ~conn inbuf out ~budget = drain h s fe ~conn inbuf out ~budget 0
