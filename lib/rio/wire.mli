(** The serving wire protocol (DESIGN.md §6.10): length-prefixed binary
    frames over a Unix or TCP socket. *)

exception Closed
(** Peer closed the connection mid-frame. *)

val max_frame : int

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame. *)

include module type of struct include Wire_t end

val status_to_string : status -> string

val encode_client_msg : client_msg -> string

val decode_client_msg : string -> (client_msg, Codec.error) result
(** Decode an untrusted client payload; never raises. *)

val encode_response : response -> string

val decode_response : string -> response
(** Raises {!Codec.Error} on a malformed payload. *)

val send_msg : Unix.file_descr -> client_msg -> unit

val recv_response : Unix.file_descr -> response
(** Read and decode one response frame (blocking).  Raises {!Closed}
    when the peer hangs up mid-frame and {!Codec.Error} on a bad frame
    length or payload. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val write_all : Unix.file_descr -> Bytes.t -> unit
end
