(** The load generator: one single-threaded process driving a live
    [rio_serve] over a few Unix-socket connections, in closed loop (a
    fixed number of requests in flight) or open loop (a precomputed
    arrival schedule).  Every response is checked against the request's
    native reference; the server receives only the generated inputs.

    With tracing on, each request records a [gen] span from its
    scheduled send to its decoded response, with [wire] children for
    encoding, writing and decoding and a [server] child for the round
    trip the generator cannot see into. *)

type req = {
  key : string;
  seed : int;
  input : int list;
  expect : int list;   (** native reference output *)
  insns : int;         (** native instruction count *)
  cycles : int;        (** native simulated cycles *)
}

type sample = {
  s_req : req;
  s_sched : int;          (** when it was due to be sent, ns *)
  mutable s_sent : int;
  mutable s_done : int;   (** response decoded, ns; 0 while outstanding *)
  mutable s_ok : bool;    (** status ok and output equal to native *)
  mutable s_cycles : int; (** simulated cycles the server reported *)
  mutable s_span : int;
}

type conn = { fd : Unix.file_descr; rbuf : Buffer.t; mutable outstanding : int }

type t = {
  conns : conn array;
  inflight : (int, sample * conn) Hashtbl.t;
  mutable next_id : int;
}

let connect ~(path : string) ~(n : int) : t =
  {
    conns =
      Array.init n (fun _ ->
          { fd = Rio.Server.connect (Rio.Server.Unix_addr path);
            rbuf = Buffer.create 4096; outstanding = 0 });
    inflight = Hashtbl.create 64;
    next_id = 0;
  }

let close (g : t) ~(quit : bool) =
  if quit then Rio.Wire.send_msg g.conns.(0).fd Rio.Wire.Quit;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) g.conns

let send (g : t) (c : conn) (s : sample) : unit =
  let id = g.next_id land 0xffff_ffff in
  g.next_id <- g.next_id + 1;
  s.s_span <- Span.reserve ();
  let t0 = Span.now_ns () in
  let payload =
    Rio.Wire.encode_client_msg
      (Rio.Wire.Run
         { c_id = id; c_key = s.s_req.key; c_seed = s.s_req.seed;
           c_input = s.s_req.input; c_expect = None })
  in
  let t1 = Span.now_ns () in
  Rio.Wire.write_frame c.fd payload;
  let t2 = Span.now_ns () in
  Span.record ~parent:s.s_span ~req:id ~layer:"wire" ~op:"encode" t0 t1;
  Span.record ~parent:s.s_span ~req:id ~layer:"wire" ~op:"write" t1 t2;
  s.s_sent <- t2;
  c.outstanding <- c.outstanding + 1;
  Hashtbl.replace g.inflight id (s, c)

(* Decode every complete frame in [c]'s buffer. *)
let handle_frames (g : t) (c : conn) ~(recv_ns : int) =
  let s = Buffer.contents c.rbuf in
  let total = String.length s in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if total - !pos < 4 then continue := false
    else
      let len = Int32.to_int (String.get_int32_le s !pos) in
      if len < 0 || len > Rio.Wire.max_frame then failwith "bad frame length from server"
      else if total - !pos - 4 < len then continue := false
      else begin
        let t0 = Span.now_ns () in
        let r = Rio.Wire.decode_response (String.sub s (!pos + 4) len) in
        let t1 = Span.now_ns () in
        pos := !pos + 4 + len;
        match Hashtbl.find_opt g.inflight r.Rio.Wire.r_id with
        | None -> failwith (Printf.sprintf "response for unknown id %d" r.Rio.Wire.r_id)
        | Some (smp, c') ->
            Hashtbl.remove g.inflight r.Rio.Wire.r_id;
            c'.outstanding <- c'.outstanding - 1;
            smp.s_done <- t1;
            smp.s_cycles <- r.Rio.Wire.r_cycles;
            smp.s_ok <-
              r.Rio.Wire.r_status = Rio.Wire.St_ok
              && r.Rio.Wire.r_output = smp.s_req.expect;
            let id = r.Rio.Wire.r_id in
            Span.record ~parent:smp.s_span ~req:id ~layer:"server" ~op:"round_trip"
              smp.s_sent recv_ns;
            Span.record ~parent:smp.s_span ~req:id ~layer:"wire" ~op:"decode" t0 t1;
            Span.record ~id:smp.s_span ~req:id ~layer:"gen" ~op:"request" smp.s_sched t1
      end
  done;
  if !pos > 0 then begin
    Buffer.clear c.rbuf;
    Buffer.add_string c.rbuf (String.sub s !pos (total - !pos))
  end

(** Wait up to [timeout] seconds for responses and process them. *)
let poll (g : t) ~(timeout : float) : unit =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | readable, _, _ ->
      let recv_ns = Span.now_ns () in
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) (Array.to_list g.conns) in
          let b = Bytes.create 65536 in
          match Unix.read c.fd b 0 65536 with
          | 0 -> raise Rio.Wire.Closed
          | n ->
              Buffer.add_subbytes c.rbuf b 0 n;
              handle_frames g c ~recv_ns)
        readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let sample_of req ~sched =
  { s_req = req; s_sched = sched; s_sent = 0; s_done = 0; s_ok = false;
    s_cycles = 0; s_span = -1 }

(* Wait for every outstanding response, failing after [secs]. *)
let drain (g : t) ~(secs : float) =
  let deadline = Span.now_ns () + int_of_float (secs *. 1e9) in
  while Hashtbl.length g.inflight > 0 do
    if Span.now_ns () > deadline then raise (Child.Timeout "responses outstanding");
    poll g ~timeout:0.05
  done

(** Closed loop: keep [per_conn] requests in flight on every connection,
    drawing each next request from [next], until [stop] says so (it sees
    the number of requests sent); then wait for the stragglers.  Returns
    the samples in send order. *)
let closed_loop (g : t) ~(per_conn : int) ~(next : unit -> req)
    ~(stop : sent:int -> bool) : sample list =
  let out = ref [] in
  let sent = ref 0 in
  let top_up () =
    Array.iter
      (fun c ->
        while c.outstanding < per_conn && not (stop ~sent:!sent) do
          let s = sample_of (next ()) ~sched:(Span.now_ns ()) in
          send g c s;
          incr sent;
          out := s :: !out
        done)
      g.conns
  in
  top_up ();
  while not (stop ~sent:!sent) do
    poll g ~timeout:0.05;
    top_up ()
  done;
  drain g ~secs:30.0;
  List.rev !out

(** Open loop: send request [i] at [t_start + offsets.(i)] regardless of
    responses, round-robin over the connections. *)
let open_loop (g : t) ~(t_start : int) ~(offsets : int array)
    ~(reqs : req array) : sample array =
  let n = Array.length offsets in
  let samples = Array.init n (fun i -> sample_of reqs.(i) ~sched:(t_start + offsets.(i))) in
  let i = ref 0 in
  while !i < n do
    let now = Span.now_ns () in
    if now >= samples.(!i).s_sched then begin
      send g g.conns.(!i mod Array.length g.conns) samples.(!i);
      incr i
    end
    else
      poll g ~timeout:(float_of_int (samples.(!i).s_sched - now) /. 1e9)
  done;
  drain g ~secs:30.0;
  samples
