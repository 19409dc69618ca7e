(* One client connection speaking the binary protocol, driven closed-loop.

   [drive] keeps up to [window] requests in flight. After each socket
   read it hands every complete reply to [on_reply], then tops the
   window up and writes the new requests in one [write]. A request is
   stamped when its write starts and its reply when the read that
   brought it returns, so a round trip covers the daemon's whole
   handling of it. *)

module Netbuf = Pmp_server.Netbuf
module Wire = Pmp_server.Wire

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

type t = { fd : Unix.file_descr; inb : Netbuf.t; out : Netbuf.t; cur : Wire.cursor }

let create fd =
  { fd; inb = Netbuf.create 65536; out = Netbuf.create 4096; cur = { Wire.pos = 0 } }

let close c = Unix.close c.fd

let flush c =
  while not (Netbuf.is_empty c.out) do
    ignore (Netbuf.drain c.out c.fd)
  done

(* Hand every complete reply payload at the front of the in-buffer to
   [f]; returns how many. *)
let parse_replies c f =
  let n = ref 0 and more = ref true in
  while !more do
    let avail = Netbuf.length c.inb in
    let b = Netbuf.bytes c.inb and off = Netbuf.offset c.inb in
    if avail < 3 then more := false
    else begin
      if Char.code (Bytes.get b off) <> Wire.request_magic then
        failwith "reply is not a binary frame";
      c.cur.Wire.pos <- off + 2;
      match Wire.read_varint b c.cur (off + avail) with
      | exception Wire.Corrupt _ -> more := false
      | plen ->
          let p = c.cur.Wire.pos in
          if p + plen > off + avail then more := false
          else begin
            f b p (p + plen);
            incr n;
            Netbuf.consume c.inb (p + plen - off)
          end
    end
  done;
  !n

(* Send requests [0, n): [send j out] appends request [j]'s frame and is
   called only once reply [j - window] is in. [on_reply j b pos limit]
   sees reply [j]'s payload. [sent.(j)] and [recvd.(j)] get the
   monotonic stamps in ns. *)
let drive c ~n ~window ~send ~on_reply ~sent ~recvd =
  let ns = ref 0 and nr = ref 0 in
  let top_up () =
    let first = !ns in
    while !ns < n && !ns - !nr < window do
      send !ns c.out;
      incr ns
    done;
    if !ns > first then begin
      let t = Proc.now_ns () in
      for j = first to !ns - 1 do
        sent.(j) <- t
      done;
      flush c
    end
  in
  top_up ();
  while !nr < n do
    if Netbuf.refill c.inb c.fd = 0 then failwith "daemon closed the connection";
    let t = Proc.now_ns () in
    ignore
      (parse_replies c (fun b pos limit ->
           if !nr >= n then failwith "more replies than requests";
           recvd.(!nr) <- t;
           on_reply !nr b pos limit;
           incr nr));
    top_up ()
  done

(* One request, one reply, decoded. *)
let request c req =
  Netbuf.add_string c.out (Pmp_server.Protocol.encode_request_binary req);
  flush c;
  let reply = ref None in
  while Option.is_none !reply do
    if Netbuf.refill c.inb c.fd = 0 then failwith "daemon closed the connection";
    ignore
      (parse_replies c (fun b pos limit ->
           reply :=
             Some
               (Pmp_server.Protocol.decode_response_payload
                  (Bytes.sub_string b pos (limit - pos))
                  ~pos:0 ~limit:(limit - pos))))
  done;
  match Option.get !reply with Ok r -> r | Error e -> failwith ("bad reply: " ^ e)
