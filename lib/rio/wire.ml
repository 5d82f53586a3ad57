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
    zero/empty.

    Both directions go through {!Codec}: each layout below is stated
    once as a writer and once as a cursor reader, and each tag table
    once.  A payload must be consumed exactly.  {!decode_client_msg}
    reads untrusted input and returns a typed {!Codec.error}; the
    client-side readers raise {!Codec.Error}. *)

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
    raise (Codec.Error (Out_of_range { field = "frame length"; value = len }));
  Bytes.unsafe_to_string (read_exactly fd len)

(** Write one length-prefixed frame. *)
let write_frame fd (payload : string) : unit =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Wire.write_frame: frame too large";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b

(* ------------------------------------------------------------------ *)
(* Protocol messages                                                  *)
(* ------------------------------------------------------------------ *)

include Wire_t

let status =
  Codec.enum "status"
    [
      (St_ok, 0);
      (St_failed, 1);
      (St_shed, 2);
      (St_unknown_key, 3);
      (St_quarantined, 4);
      (St_stopping, 5);
    ]

let status_to_string = function
  | St_ok -> "ok"
  | St_failed -> "failed"
  | St_shed -> "shed"
  | St_unknown_key -> "unknown-key"
  | St_quarantined -> "quarantined"
  | St_stopping -> "stopping"

let op = Codec.enum "op byte" [ (`Run, 1); (`Quit, 2) ]

(* stream words (inputs, outputs) travel as i64: VM words are host
   ints and may be negative or wider than 32 bits *)
let put_ints b xs =
  Codec.put_u32 b (List.length xs);
  List.iter (Codec.put_i64 b) xs

let ints c =
  Codec.list ~field:"list length" ~max:(max_frame / 8) Codec.u32 Codec.i64 c

let encode_client_msg (m : client_msg) : string =
  let b = Buffer.create 64 in
  (match m with
  | Run { c_id; c_key; c_seed; c_input; c_expect } ->
      Codec.put_enum op b `Run;
      Codec.put_u32 b c_id;
      Codec.put_str16 b c_key;
      Codec.put_u32 b c_seed;
      put_ints b c_input;
      Codec.put_bool b (c_expect <> None);
      Option.iter (put_ints b) c_expect
  | Quit -> Codec.put_enum op b `Quit);
  Buffer.contents b

let client_msg c : client_msg =
  match Codec.enum_of op c with
  | `Run ->
      let c_id = Codec.u32 c in
      let c_key = Codec.str16 c in
      let c_seed = Codec.u32 c in
      let c_input = ints c in
      let c_expect = if Codec.bool c then Some (ints c) else None in
      Run { c_id; c_key; c_seed; c_input; c_expect }
  | `Quit -> Quit

let decode_client_msg (s : string) : (client_msg, Codec.error) result =
  Codec.decode client_msg s

let encode_response (r : response) : string =
  let b = Buffer.create 32 in
  Codec.put_u32 b r.r_id;
  Codec.put_enum status b r.r_status;
  Codec.put_bool b r.r_warm;
  Codec.put_i64 b r.r_cycles;
  put_ints b r.r_output;
  Buffer.contents b

let response c : response =
  let r_id = Codec.u32 c in
  let r_status = Codec.enum_of status c in
  let r_warm = Codec.bool c in
  let r_cycles = Codec.i64 c in
  let r_output = ints c in
  { r_id; r_status; r_warm; r_cycles; r_output }

let decode_response (s : string) : response =
  match Codec.decode response s with Ok r -> r | Error e -> raise (Codec.Error e)

(* ------------------------------------------------------------------ *)
(* Blocking client helpers                                            *)
(* ------------------------------------------------------------------ *)

let send_msg fd (m : client_msg) : unit = write_frame fd (encode_client_msg m)
let recv_response fd : response = decode_response (read_frame fd)

module For_testing = struct
  let write_all = write_all
end
