(** The serving wire protocol (DESIGN.md §6.10): length-prefixed binary
    frames over a Unix or TCP socket.

    Every frame is a 4-byte little-endian payload length followed by
    the payload.  Integers inside a payload are little-endian: [u8],
    [u32] (values that fit 32 bits: ids, counts, seeds, stream words)
    and [i64] (cycle counts).  Strings are a [u16] length plus raw
    bytes.  The framing is self-describing enough that a client written
    in any language needs only this paragraph.

    Client → server payloads start with an op byte:
    - [1] (run): [u32 id] [str key] [u32 seed] [u32 n] n×[i64 input]
      [u8 has_expect] (then [u32 n] n×[i64 expect] when set).  The id
      is echoed in the response; ids are per-connection and chosen by
      the client.
    - [2] (quit): ask the server to finish outstanding requests and
      exit its accept loop.  No response.

    Server → client responses: [u32 id] [u8 status] [u8 warm]
    [i64 cycles] [u32 n] n×[i64 output].  Status 0 is success; 1 a
    request that ran but failed (divergence, crash, deadline); 2..5
    typed admission rejects, in which case warm/cycles/output are
    zero/empty. *)

(* ------------------------------------------------------------------ *)
(* Frame I/O                                                          *)
(* ------------------------------------------------------------------ *)

exception Closed
(** Peer closed the connection mid-frame. *)

let max_frame = 16 * 1024 * 1024
(* backstop against a corrupt length prefix allocating gigabytes *)

let read_exactly fd n : Bytes.t =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b !got (n - !got) in
    if k = 0 then raise Closed;
    got := !got + k
  done;
  b

let write_all fd (s : Bytes.t) : unit =
  let len = Bytes.length s in
  let sent = ref 0 in
  while !sent < len do
    let k = Unix.write fd s !sent (len - !sent) in
    if k = 0 then raise Closed;
    sent := !sent + k
  done

(** Read one length-prefixed frame (blocking). *)
let read_frame fd : string =
  let hdr = read_exactly fd 4 in
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
  if len < 0 || len > max_frame then
    failwith (Printf.sprintf "Wire: bad frame length %d" len);
  Bytes.unsafe_to_string (read_exactly fd len)

(** Write one length-prefixed frame. *)
let write_frame fd (payload : string) : unit =
  let len = String.length payload in
  if len > max_frame then failwith "Wire: frame too large";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                   *)
(* ------------------------------------------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Wire: u32 out of range (%d)" v);
  Buffer.add_int32_le b (Int32.of_int (v land 0xffff_ffff))

let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let put_str b s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Wire: string too long";
  put_u8 b (n land 0xff);
  put_u8 b ((n lsr 8) land 0xff);
  Buffer.add_string b s

(* stream words (inputs, outputs) travel as i64: VM words are host
   ints and may be negative or wider than 32 bits *)
let put_ints b xs =
  put_u32 b (List.length xs);
  List.iter (fun x -> put_i64 b x) xs

(* A tiny cursor-based reader; every decode error is a [Failure] so the
   server can drop a malformed connection instead of crashing. *)
type reader = { src : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.src then failwith "Wire: truncated payload"

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) in
  r.pos <- r.pos + 4;
  v land 0xffff_ffff

let get_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_str r =
  let lo = get_u8 r in
  let hi = get_u8 r in
  let n = lo lor (hi lsl 8) in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_ints r =
  let n = get_u32 r in
  if n > max_frame / 8 then failwith "Wire: bad list length";
  List.init n (fun _ -> get_i64 r)

(* ------------------------------------------------------------------ *)
(* Protocol messages                                                  *)
(* ------------------------------------------------------------------ *)

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

let status_code = function
  | St_ok -> 0
  | St_failed -> 1
  | St_shed -> 2
  | St_unknown_key -> 3
  | St_quarantined -> 4
  | St_stopping -> 5

let status_of_code = function
  | 0 -> St_ok
  | 1 -> St_failed
  | 2 -> St_shed
  | 3 -> St_unknown_key
  | 4 -> St_quarantined
  | 5 -> St_stopping
  | n -> failwith (Printf.sprintf "Wire: bad status code %d" n)

let status_to_string = function
  | St_ok -> "ok"
  | St_failed -> "failed"
  | St_shed -> "shed"
  | St_unknown_key -> "unknown-key"
  | St_quarantined -> "quarantined"
  | St_stopping -> "stopping"

type response = {
  r_id : int;
  r_status : status;
  r_warm : bool;
  r_cycles : int;
  r_output : int list;
}

let encode_client_msg (m : client_msg) : string =
  let b = Buffer.create 64 in
  (match m with
  | Run { c_id; c_key; c_seed; c_input; c_expect } ->
      put_u8 b 1;
      put_u32 b c_id;
      put_str b c_key;
      put_u32 b c_seed;
      put_ints b c_input;
      (match c_expect with
      | None -> put_u8 b 0
      | Some e ->
          put_u8 b 1;
          put_ints b e)
  | Quit -> put_u8 b 2);
  Buffer.contents b

let decode_client_msg (s : string) : client_msg =
  let r = { src = s; pos = 0 } in
  match get_u8 r with
  | 1 ->
      let c_id = get_u32 r in
      let c_key = get_str r in
      let c_seed = get_u32 r in
      let c_input = get_ints r in
      let c_expect =
        match get_u8 r with
        | 0 -> None
        | 1 -> Some (get_ints r)
        | n -> failwith (Printf.sprintf "Wire: bad expect flag %d" n)
      in
      Run { c_id; c_key; c_seed; c_input; c_expect }
  | 2 -> Quit
  | op -> failwith (Printf.sprintf "Wire: bad op byte %d" op)

let encode_response (r : response) : string =
  let b = Buffer.create 32 in
  put_u32 b r.r_id;
  put_u8 b (status_code r.r_status);
  put_u8 b (if r.r_warm then 1 else 0);
  put_i64 b r.r_cycles;
  put_ints b r.r_output;
  Buffer.contents b

let decode_response (s : string) : response =
  let r = { src = s; pos = 0 } in
  let r_id = get_u32 r in
  let r_status = status_of_code (get_u8 r) in
  let r_warm = get_u8 r <> 0 in
  let r_cycles = get_i64 r in
  let r_output = get_ints r in
  { r_id; r_status; r_warm; r_cycles; r_output }

(* ------------------------------------------------------------------ *)
(* Blocking client helpers                                            *)
(* ------------------------------------------------------------------ *)

let send_msg fd (m : client_msg) : unit = write_frame fd (encode_client_msg m)
let recv_response fd : response = decode_response (read_frame fd)

module For_testing = struct
  let write_all = write_all
end
