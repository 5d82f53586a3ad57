(** The socket front-end over a serving {!Pool} (DESIGN.md §6.10): a
    single-threaded [Unix.select] loop that accepts connections, frames
    requests off the wire ({!Wire}), admits them through
    {!Pool.try_submit} — turning every admission reject into a typed
    response instead of unbounded queueing — and streams results back
    as the pool completes them.

    The loop itself does no simulation work: worker domains execute
    requests, so one acceptor thread keeps ordering and connection
    state trivial while the pool provides the parallelism.  Responses
    are routed by a server-assigned request id; a client that
    disconnects with requests in flight simply has its results
    dropped. *)

type addr =
  | Unix_addr of string        (** unix:PATH *)
  | Tcp_addr of string * int   (** tcp:HOST:PORT *)

let addr_of_string (s : string) : (addr, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_addr rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp_addr (host, p))
              | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
      | _ -> Error (Printf.sprintf "bad address scheme %S" scheme))

let addr_to_string = function
  | Unix_addr p -> "unix:" ^ p
  | Tcp_addr (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of = function
  | Unix_addr p -> Unix.ADDR_UNIX p
  | Tcp_addr (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith ("Server: cannot resolve host " ^ host))
      in
      Unix.ADDR_INET (ip, port)

(** Create, bind, and listen.  A stale Unix-domain socket file from a
    previous run is unlinked first. *)
let listen (a : addr) : Unix.file_descr =
  let domain =
    match a with Unix_addr _ -> Unix.PF_UNIX | Tcp_addr _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match a with
  | Unix_addr p -> if Sys.file_exists p then Unix.unlink p
  | Tcp_addr _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of a);
  Unix.listen fd 64;
  fd

(** Connect a client socket (blocking). *)
let connect (a : addr) : Unix.file_descr =
  let domain =
    match a with Unix_addr _ -> Unix.PF_UNIX | Tcp_addr _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd (sockaddr_of a);
  fd

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-connection receive buffer: select says "readable", we pull one
   chunk, and whole frames are peeled off as they complete — a client
   that dribbles a frame across packets never blocks the loop.  Bytes
   of [c_buf] from [c_pos] on are received but not yet framed. *)
type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_pos : int;
}

(* Append available bytes; false when the peer closed.  The chunk is
   allocated per call so concurrent server loops (one per domain in
   tests) never share scratch state.  A single chunk per loop was tried
   and measured: the 64 KB major-heap allocation per read is what paces
   the major GC against the pool's garbage, and without it the serve
   benchmark's peak RSS rose from 21 to 27 MB. *)
let pull (c : conn) : bool =
  let chunk = Bytes.create 65536 in
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* Peel the complete frames in [buf] from [pos] on, returning them and
   the new start of the unframed bytes.  Only payloads are copied; the
   pending tail moves to the front once the consumed prefix outweighs
   it, so each received byte is copied O(1) times however many reads a
   frame arrives in. *)
let take_frames (buf : Buffer.t) (pos : int) :
    (string list * int, Codec.error) result =
  let total = Buffer.length buf in
  let compact pos =
    if pos = total then begin
      Buffer.clear buf;
      0
    end
    else if pos > total - pos then begin
      let rest = Buffer.sub buf pos (total - pos) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      0
    end
    else pos
  in
  let rec peel pos acc =
    if total - pos < 4 then Ok (List.rev acc, compact pos)
    else
      let len =
        Int32.to_int (String.get_int32_le (Buffer.sub buf pos 4) 0)
        land 0xffff_ffff
      in
      if len > Wire.max_frame then
        Error (Codec.Out_of_range { field = "frame length"; value = len })
      else if total - pos - 4 < len then Ok (List.rev acc, compact pos)
      else peel (pos + 4 + len) (Buffer.sub buf (pos + 4) len :: acc)
  in
  peel pos []

let frames (c : conn) : (string list, Codec.error) result =
  Result.map
    (fun (out, pos) ->
      c.c_pos <- pos;
      out)
    (take_frames c.c_buf c.c_pos)

(* ------------------------------------------------------------------ *)
(* Serving loop                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable sv_accepted : int;    (** connections accepted *)
  mutable sv_requests : int;    (** run frames admitted to the pool *)
  mutable sv_rejects : int;     (** run frames answered with a typed reject *)
  mutable sv_responses : int;   (** responses written *)
  mutable sv_dropped : int;     (** responses whose connection had gone away *)
}

let reject_status : Pool.reject -> Wire.status = function
  | Pool.Unknown_key _ -> Wire.St_unknown_key
  | Pool.Quarantined _ -> Wire.St_quarantined
  | Pool.Overloaded _ -> Wire.St_shed
  | Pool.Pool_stopping -> Wire.St_stopping

(* The self-pipe that turns pool completions into [select] events: the
   pool's completion hook writes one byte, the loop watches the read
   end.  Both ends are non-blocking — the hook runs under the pool
   mutex and must never wait, and a full pipe already means a wake is
   pending. *)
let wake_byte = Bytes.make 1 '!'

let poke (w : Unix.file_descr) () =
  (* EAGAIN means the pipe is full and a wake is already pending; no
     other error could be reported from a worker domain anyway *)
  try ignore (Unix.single_write w wake_byte 0 1) with Unix.Unix_error _ -> ()

let drain_pipe (r : Unix.file_descr) =
  let buf = Bytes.create 64 in
  try while Unix.read r buf 0 (Bytes.length buf) > 0 do () done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(** Run the accept/serve loop until a client sends [Quit] (and every
    admitted request has been answered).  The loop sleeps in [select]
    with no timeout: sockets wake it for I/O, and the pool's completion
    hook ({!Pool.set_notify}) wakes it through a self-pipe when results
    are ready, so a response leaves as soon as its request finishes.
    Sets [SIGPIPE] to ignored for the whole process. *)
let run (pool : Pool.t) (listeners : Unix.file_descr list) : stats =
  (* a peer that closes before its response is written must cost an
     EPIPE on that write, not the whole process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st =
    { sv_accepted = 0; sv_requests = 0; sv_rejects = 0; sv_responses = 0;
      sv_dropped = 0 }
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  (* server request id -> (connection, client's correlation id) *)
  let routes : (int, conn * int) Hashtbl.t = Hashtbl.create 64 in
  let next_rid = ref 0 in
  let quitting = ref false in
  let send_to (c : conn) (r : Wire.response) : unit =
    try
      Wire.write_frame c.c_fd (Wire.encode_response r);
      st.sv_responses <- st.sv_responses + 1
    with Wire.Closed | Unix.Unix_error _ ->
      (* writer saw the close first; the reader side will reap it *)
      st.sv_dropped <- st.sv_dropped + 1
  in
  let close_conn (c : conn) : unit =
    Hashtbl.remove conns c.c_fd;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  in
  let handle_msg (c : conn) (m : Wire.client_msg) : unit =
    match m with
    | Wire.Quit -> quitting := true
    | Wire.Run { c_id; c_key; c_seed; c_input; c_expect } -> (
        let rid = !next_rid in
        incr next_rid;
        let req =
          {
            Pool.req_id = rid;
            req_key = c_key;
            req_seed = c_seed;
            req_input = c_input;
            req_expect = c_expect;
          }
        in
        match Pool.try_submit pool req with
        | Ok () ->
            st.sv_requests <- st.sv_requests + 1;
            Hashtbl.replace routes rid (c, c_id)
        | Error e ->
            st.sv_rejects <- st.sv_rejects + 1;
            send_to c
              {
                Wire.r_id = c_id;
                r_status = reject_status e;
                r_warm = false;
                r_cycles = 0;
                r_output = [];
              })
  in
  let flush_results () =
    List.iter
      (fun (res : Pool.result) ->
        match Hashtbl.find_opt routes res.Pool.res_id with
        | None -> st.sv_dropped <- st.sv_dropped + 1
        | Some (c, client_id) -> (
            Hashtbl.remove routes res.Pool.res_id;
            (* the connection may have closed, and its fd number been
               reused by a newer one *)
            match Hashtbl.find_opt conns c.c_fd with
            | Some c' when c' == c ->
                send_to c
                  {
                    Wire.r_id = client_id;
                    r_status =
                      (if res.Pool.res_ok then Wire.St_ok else Wire.St_failed);
                    r_warm = res.Pool.res_warm;
                    r_cycles = res.Pool.res_cycles;
                    r_output = res.Pool.res_output;
                  }
            | _ -> st.sv_dropped <- st.sv_dropped + 1))
      (Pool.take_results pool)
  in
  let serve_conn (c : conn) : unit =
    match pull c with
    | false -> close_conn c
    | true ->
        (* a malformed frame drops its connection; the loop keeps serving *)
        let rec handle = function
          | [] -> ()
          | payload :: rest -> (
              match Wire.decode_client_msg payload with
              | Ok m ->
                  handle_msg c m;
                  handle rest
              | Error _ -> close_conn c)
        in
        (match frames c with Ok payloads -> handle payloads | Error _ -> close_conn c)
    | exception Unix.Unix_error _ -> close_conn c
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Pool.set_notify pool (poke wake_w);
  (* the hook fires only when pending results go from empty to
     non-empty, so a result left over from before it was installed
     would silence every later wake; prime one so the first pass
     collects it *)
  poke wake_w ();
  let finished () = !quitting && Hashtbl.length routes = 0 in
  Fun.protect
    ~finally:(fun () ->
      (* detach before closing: a late completion must not write to a
         reused fd number *)
      Pool.set_notify pool ignore;
      Unix.close wake_r;
      Unix.close wake_w;
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns)
    (fun () ->
      while not (finished ()) do
        let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        (* listeners before connections: an fd closed this pass cannot
           be handed out again by an accept later in the same pass *)
        let watch =
          wake_r :: (if !quitting then conn_fds else listeners @ conn_fds)
        in
        let readable, _, _ =
          try Unix.select watch [] [] (-1.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            if fd = wake_r then begin
              (* drain before take: a result landing in between leaves
                 a byte behind (one spurious empty pass), never a
                 result without a wake *)
              drain_pipe wake_r;
              flush_results ()
            end
            else if List.mem fd listeners then begin
              let cfd, _ = Unix.accept fd in
              st.sv_accepted <- st.sv_accepted + 1;
              Hashtbl.replace conns cfd
                { c_fd = cfd; c_buf = Buffer.create 256; c_pos = 0 }
            end
            else Option.iter serve_conn (Hashtbl.find_opt conns fd))
          readable
      done;
      st)

(* ------------------------------------------------------------------ *)
(* Client convenience                                                 *)
(* ------------------------------------------------------------------ *)

(** Send [reqs] over one connection and collect every response
    (admission rejects included), in arrival order.  Ids are assigned
    0..n-1 in list order. *)
let client_run (fd : Unix.file_descr) reqs : Wire.response list =
  List.iteri
    (fun i (key, seed, input, expect) ->
      Wire.send_msg fd
        (Wire.Run
           { c_id = i; c_key = key; c_seed = seed; c_input = input;
             c_expect = expect }))
    reqs;
  List.init (List.length reqs) (fun _ -> Wire.recv_response fd)

module For_testing = struct
  let take_frames = take_frames
end
