(** The connection front end shared by every request core: the
    single-core {!Server}, each {!Mserver} shard and the federation
    router.

    It turns a connection's input buffer into single requests and
    their answers back into bytes. A {!Wire.request_magic} first byte
    opens a binary frame, decoded in place out of the {!Netbuf};
    anything else is a JSON line. A rid-tagged frame is peeled and its
    inner opcode dispatched like an untagged one, the rid echoed on
    the response. Every response goes back in its request's encoding,
    in request order, so both encodings interleave on one connection.
    A core supplies only a {!handler} for one request.

    {b Malformed input.} One rule set for every mode:
    - a payload that does not decode (unknown opcode, trailing bytes,
      bad JSON) or a request the core refuses gets an error reply, and
      the connection carries on;
    - input that breaks the framing — an unsupported wire version, an
      empty frame, an overlong or out-of-range length prefix, or a line
      longer than {!Wire.max_payload} — gets one error reply and
    [`Close]: the rest of the connection's input is dropped, and
    {!Loop} half-closes the connection once the reply is flushed. *)

type outcome =
  | Reply  (** the response payload is in the scratch buffer *)
  | Reject of string  (** the request failed with this message *)
  | Pass  (** not handled inline: take the generic path *)

type 's handler = {
  fast : 's -> Buffer.t -> Bytes.t -> int -> int -> outcome;
      (** [fast s scratch b pos limit] decodes and applies the untagged
          binary payload [[pos, limit)] of [b] in place, appending the
          response payload to [scratch]. The zero-allocation path of the
          hot opcodes; {!pass} handles nothing. *)
  respond :
    's -> conn:int -> Protocol.request -> Protocol.response * int option;
      (** The generic path: apply one decoded request from connection
          [conn]. The int names the shard that served it, stamped on
          rid-tagged responses. *)
  start : 's -> unit;  (** a complete request is about to be decoded *)
  finish : 's -> op:int -> size:int -> ok:bool -> unit;
      (** its response is queued: the effective opcode (the inner one
          of a tagged frame, 0 when undecodable), the payload or line
          length, and whether the response is not an error *)
}

val pass : 's -> Buffer.t -> Bytes.t -> int -> int -> outcome

type t
(** Reusable decode and encode state: one per core, shared by its
    connections (a core serves one request at a time). *)

val create : unit -> t

val handle :
  's handler ->
  's ->
  t ->
  conn:int ->
  Netbuf.t ->
  Netbuf.t ->
  budget:int ->
  [ `Handled of int | `Stop of int | `Close of int ]
(** Drain up to [budget] complete requests from the in-buffer, leaving
    an incomplete tail buffered, and append their responses to the
    out-buffer; returns how many were consumed. [`Stop] follows a
    [shutdown] request; [`Close] follows a framing error, with the
    in-buffer cleared. *)
