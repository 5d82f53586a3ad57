(** The serving wire protocol (DESIGN.md §6.10): length-prefixed binary
    frames over a Unix or TCP socket. *)

exception Closed
(** Peer closed the connection mid-frame. *)

val max_frame : int

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame. *)

type client_msg =
  | Run of {
      c_id : int;                  (** client-chosen correlation id *)
      c_key : string;              (** workload key *)
      c_seed : int;
      c_input : int list;
      c_expect : int list option;  (** native reference, if the client has one *)
    }
  | Quit

(** Response status on the wire. *)
type status =
  | St_ok              (** ran to completion, matched any expectation *)
  | St_failed          (** ran but diverged / crashed / hit a deadline *)
  | St_shed            (** admission bound hit: retry later *)
  | St_unknown_key
  | St_quarantined
  | St_stopping

val status_to_string : status -> string

type response = {
  r_id : int;
  r_status : status;
  r_warm : bool;
  r_cycles : int;
  r_output : int list;
}

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
