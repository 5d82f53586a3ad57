(** The socket front-end over a serving {!Pool} (DESIGN.md §6.10): a
    single-threaded [Unix.select] loop that accepts connections, frames
    requests off the wire ({!Wire}), admits them through
    {!Pool.try_submit} — turning every admission reject into a typed
    response instead of unbounded queueing — and streams results back
    as the pool completes them. *)

type addr =
  | Unix_addr of string        (** unix:PATH *)
  | Tcp_addr of string * int   (** tcp:HOST:PORT *)

val addr_of_string : string -> (addr, string) result

val addr_to_string : addr -> string

val listen : addr -> Unix.file_descr
(** Create, bind, and listen.  A stale Unix-domain socket file from a
    previous run is unlinked first. *)

val connect : addr -> Unix.file_descr
(** Connect a client socket (blocking). *)

type stats = {
  mutable sv_accepted : int;    (** connections accepted *)
  mutable sv_requests : int;    (** run frames admitted to the pool *)
  mutable sv_rejects : int;     (** run frames answered with a typed reject *)
  mutable sv_responses : int;   (** responses written *)
  mutable sv_dropped : int;     (** responses whose connection had gone away *)
}

val run : Pool.t -> Unix.file_descr list -> stats
(** Run the accept/serve loop until a client sends [Quit] (and every
    admitted request has been answered).  The loop sleeps in [select]
    with no timeout: sockets wake it for I/O, and the pool's completion
    hook ({!Pool.set_notify}) wakes it through a self-pipe when results
    are ready, so a response leaves as soon as its request finishes.
    Sets [SIGPIPE] to ignored for the whole process. *)

val client_run :
  Unix.file_descr ->
  (string * int * int list * int list option) list ->
  Wire.response list
(** Send [reqs] over one connection and collect every response
    (admission rejects included), in arrival order.  Ids are assigned
    0..n-1 in list order. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val take_frames :
    Buffer.t -> int -> (string list * int, Codec.error) result
  (** [take_frames buf pos] peels the complete length-prefixed frames
      held in [buf] from offset [pos] on.  It returns their payloads
      and the offset where the unframed bytes now start; it may move
      those bytes to the front of [buf].  A length prefix above
      {!Wire.max_frame} is an [Out_of_range] error. *)
end
