(** The socket front-end (DESIGN.md §6.10): an in-process
    {!Rio.Server.run} on its own domain, over a Unix socket in a temp
    dir, in front of a pre-warmed two-domain pool — plus properties of
    the {!Rio.Wire} codec it parses client bytes with.

    The loop sleeps in [select] with no timeout and is woken by the
    pool's completion hook, so a lost wake-up is a hang, not a delay:
    every case runs under the shared {!Backstop} watchdog, which kills
    the process with a distinct status instead. *)

open Workloads

let serving_names = [ "perlbmk"; "gzip"; "parser"; "gcc" ]

let images =
  List.map
    (fun n ->
      let w = Workload.serving_variant (Option.get (Suite.by_name n)) in
      (n, (w, Asm.Assemble.assemble w.Workload.program)))
    serving_names

let boots =
  List.map
    (fun (name, (_, image)) ->
      ( name,
        {
          Rio.Pool.boot_machine =
            (fun () ->
              let m = Vm.Machine.create () in
              Asm.Image.load_cold m image;
              m);
          boot_entry = image.Asm.Image.entry;
          boot_stack_top = Asm.Image.default_stack_top;
          boot_restore = (fun m ~zeroed -> Asm.Image.restore m image ~zeroed);
          boot_opts = { Rio.Options.default with max_cycles = max_int / 2 };
          boot_client = (fun () -> Rio.Types.null_client);
          boot_image_digest = Asm.Image.digest image;
          boot_cache = None;
        } ))
    images

(* A run frame for [key] with its native output as the expectation. *)
let run_msg ~id key seed : Rio.Wire.client_msg * int list =
  let w, _ = List.assoc key images in
  let input = Workload.request_input ~seed @ w.Workload.input in
  let native = (Workload.run_native (Workload.with_input w input)).Workload.output in
  ( Rio.Wire.Run
      { c_id = id; c_key = key; c_seed = seed; c_input = input; c_expect = Some native },
    native )

(* ------------------------------------------------------------------ *)
(* Harness                                                            *)
(* ------------------------------------------------------------------ *)

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* A socket-loop case under the hang backstop: a hang there is most
   likely a lost completion wake-up. *)
let guarded name f =
  Alcotest.test_case name `Quick
    (Backstop.guard ~name:("test_server: " ^ name) ~secs:60 f)

type server = {
  pool : Rio.Pool.t;
  addr : Rio.Server.addr;
  dir : string;
  lfd : Unix.file_descr;
  loop : Rio.Server.stats Domain.t;
}

let start () : server =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; prewarm = true }
      ~boots ()
  in
  let dir = Filename.temp_dir "rio_server" "" in
  let addr = Rio.Server.Unix_addr (Filename.concat dir "s.sock") in
  let lfd = Rio.Server.listen addr in
  { pool; addr; dir; lfd; loop = Domain.spawn (fun () -> Rio.Server.run pool [ lfd ]) }

(* Wait for the loop to return (some client must have sent [Quit]). *)
let join (s : server) : Rio.Server.stats =
  let st = Domain.join s.loop in
  Unix.close s.lfd;
  (match s.addr with
  | Rio.Server.Unix_addr p -> Sys.remove p
  | Rio.Server.Tcp_addr _ -> ());
  Sys.rmdir s.dir;
  Rio.Pool.shutdown s.pool;
  st

let quit_and_join (s : server) : Rio.Server.stats =
  let fd = Rio.Server.connect s.addr in
  Rio.Wire.send_msg fd Rio.Wire.Quit;
  Unix.close fd;
  join s

(* The peer closed this connection: EOF (or a reset) on read. *)
let closed_by_peer fd =
  match Unix.read fd (Bytes.create 1) 0 1 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true

let check_response ~what (expect : (int * int list) list) (r : Rio.Wire.response) =
  Alcotest.(check string)
    (Printf.sprintf "%s id %d status" what r.Rio.Wire.r_id)
    "ok"
    (Rio.Wire.status_to_string r.Rio.Wire.r_status);
  match List.assoc_opt r.Rio.Wire.r_id expect with
  | None -> Alcotest.failf "%s: unexpected response id %d" what r.Rio.Wire.r_id
  | Some native ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s id %d output = native" what r.Rio.Wire.r_id)
        native r.Rio.Wire.r_output

(* ------------------------------------------------------------------ *)
(* Server cases                                                       *)
(* ------------------------------------------------------------------ *)

(* Both connections use ids 0..n-1 for different requests: a response
   routed to the wrong connection or id fails the output check. *)
let overlapping_ids () =
  let s = start () in
  let n = 4 in
  let a = Rio.Server.connect s.addr and b = Rio.Server.connect s.addr in
  let send fd ~keys ~seed0 =
    List.init n (fun i ->
        let key = List.nth keys (i mod List.length keys) in
        let msg, native = run_msg ~id:i key (seed0 + i) in
        Rio.Wire.send_msg fd msg;
        (i, native))
  in
  let ea = send a ~keys:[ "perlbmk"; "gzip" ] ~seed0:100 in
  let eb = send b ~keys:[ "gzip"; "perlbmk" ] ~seed0:200 in
  let recv fd = List.init n (fun _ -> Rio.Wire.recv_response fd) in
  let ra = recv a and rb = recv b in
  List.iter (check_response ~what:"conn A" ea) ra;
  List.iter (check_response ~what:"conn B" eb) rb;
  Alcotest.(check (list int)) "conn A got every id once" (List.init n Fun.id)
    (List.sort compare (List.map (fun r -> r.Rio.Wire.r_id) ra));
  Alcotest.(check (list int)) "conn B got every id once" (List.init n Fun.id)
    (List.sort compare (List.map (fun r -> r.Rio.Wire.r_id) rb));
  Unix.close a;
  Unix.close b;
  let st = quit_and_join s in
  Alcotest.(check int) "responses" (2 * n) st.Rio.Server.sv_responses;
  Alcotest.(check int) "dropped" 0 st.Rio.Server.sv_dropped

(* [select] has no timeout, so only the completion hook can wake an
   idle loop: each round trip starts with the loop asleep in it. *)
let idle_wakeup () =
  let s = start () in
  let fd = Rio.Server.connect s.addr in
  for i = 0 to 2 do
    Unix.sleepf 0.05;
    let msg, native = run_msg ~id:i "perlbmk" (300 + i) in
    Rio.Wire.send_msg fd msg;
    check_response ~what:"idle" [ (i, native) ] (Rio.Wire.recv_response fd)
  done;
  Unix.close fd;
  ignore (quit_and_join s)

let quit_in_flight () =
  let s = start () in
  let n = 6 in
  let fd = Rio.Server.connect s.addr in
  let expect =
    List.init n (fun i ->
        let msg, native =
          run_msg ~id:i (List.nth serving_names (i mod 4)) (400 + i)
        in
        Rio.Wire.send_msg fd msg;
        (i, native))
  in
  Rio.Wire.send_msg fd Rio.Wire.Quit;
  let rs = List.init n (fun _ -> Rio.Wire.recv_response fd) in
  let st = join s in
  List.iter (check_response ~what:"in flight at quit" expect) rs;
  Alcotest.(check int) "all admitted" n st.Rio.Server.sv_requests;
  Alcotest.(check int) "all answered before run returned" n
    st.Rio.Server.sv_responses;
  Alcotest.(check bool) "connection closed after the answers" true
    (closed_by_peer fd);
  Unix.close fd

let frame_of_payload p =
  let b = Bytes.create (4 + String.length p) in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length p));
  Bytes.blit_string p 0 b 4 (String.length p);
  Bytes.to_string b

let malformed_frames () =
  let s = start () in
  let good = Rio.Server.connect s.addr in
  let bad_inputs =
    [
      ("negative length", "\xff\xff\xff\xff");
      ("oversized length", "\x00\x00\x00\x7f");
      ("bad op byte", frame_of_payload "\x07");
      ("truncated run", frame_of_payload "\x01\x00\x00");
    ]
  in
  List.iter
    (fun (what, bytes) ->
      let fd = Rio.Server.connect s.addr in
      Rio.Wire.For_testing.write_all fd (Bytes.of_string bytes);
      Alcotest.(check bool) (what ^ ": connection closed") true (closed_by_peer fd);
      Unix.close fd;
      (* the well-behaved connection is still served *)
      let msg, native = run_msg ~id:7 "gzip" 500 in
      Rio.Wire.send_msg good msg;
      check_response ~what:("after " ^ what) [ (7, native) ]
        (Rio.Wire.recv_response good))
    bad_inputs;
  Unix.close good;
  let st = quit_and_join s in
  Alcotest.(check int) "accepted" (List.length bad_inputs + 2)
    st.Rio.Server.sv_accepted;
  Alcotest.(check int) "responses" (List.length bad_inputs)
    st.Rio.Server.sv_responses

let disconnect_in_flight () =
  let s = start () in
  let gone = Rio.Server.connect s.addr in
  let n = 3 in
  for i = 0 to n - 1 do
    Rio.Wire.send_msg gone (fst (run_msg ~id:i "gcc" (600 + i)))
  done;
  Unix.close gone;
  let fd = Rio.Server.connect s.addr in
  let msg, native = run_msg ~id:0 "parser" 700 in
  Rio.Wire.send_msg fd msg;
  check_response ~what:"survivor" [ (0, native) ] (Rio.Wire.recv_response fd);
  Unix.close fd;
  let st = quit_and_join s in
  Alcotest.(check int) "all admitted" (n + 1) st.Rio.Server.sv_requests;
  Alcotest.(check bool) "dropped counted" true (st.Rio.Server.sv_dropped >= 1);
  Alcotest.(check int) "every result written or dropped" (n + 1)
    (st.Rio.Server.sv_responses + st.Rio.Server.sv_dropped)

(* ------------------------------------------------------------------ *)
(* Wire codec properties                                              *)
(* ------------------------------------------------------------------ *)

let gen_u32 = QCheck.Gen.int_range 0 0xffff_ffff

(* stream words and cycle counts span the whole host int range *)
let gen_word =
  QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ 0; -1; min_int; max_int ] ])

let gen_words = QCheck.Gen.(list_size (int_bound 20) gen_word)

let gen_client_msg : Rio.Wire.client_msg QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, return Rio.Wire.Quit);
        ( 9,
          map
            (fun (((c_id, c_key), (c_seed, c_input)), c_expect) ->
              Rio.Wire.Run { c_id; c_key; c_seed; c_input; c_expect })
            (pair
               (pair (pair gen_u32 (string_size (int_bound 40)))
                  (pair gen_u32 gen_words))
               (opt gen_words)) );
      ])

let gen_response : Rio.Wire.response QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun ((r_id, r_status), (r_warm, r_cycles, r_output)) ->
        { Rio.Wire.r_id; r_status; r_warm; r_cycles; r_output })
      (pair
         (pair gen_u32
            (oneofl
               Rio.Wire.
                 [ St_ok; St_failed; St_shed; St_unknown_key; St_quarantined;
                   St_stopping ]))
         (triple bool gen_word gen_words)))

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode . encode = id (requests, responses)"
    QCheck.(pair (make gen_client_msg) (make gen_response))
    (fun (m, r) ->
      Rio.Wire.decode_client_msg (Rio.Wire.encode_client_msg m) = Ok m
      && Rio.Wire.decode_response (Rio.Wire.encode_response r) = r)

(* A valid payload of either direction, then byte overwrites and an
   optional truncation. *)
let gen_mangled : string QCheck.Gen.t =
  QCheck.Gen.(
    let* base =
      oneof
        [
          map Rio.Wire.encode_client_msg gen_client_msg;
          map Rio.Wire.encode_response gen_response;
          string_size (int_bound 64);
        ]
    in
    let n = String.length base in
    let* edits =
      if n = 0 then return []
      else list_size (int_bound 4) (pair (int_bound (n - 1)) (map Char.chr (int_bound 255)))
    in
    let* cut = opt (int_bound n) in
    let b = Bytes.of_string base in
    List.iter (fun (i, c) -> Bytes.set b i c) edits;
    let s = Bytes.to_string b in
    return (match cut with Some k -> String.sub s 0 k | None -> s))

(* The server loop drops a connection whose payload decodes to [Error];
   an exception would kill the loop.  The client-side decoder may raise
   the codec's typed exception, and nothing else. *)
let decodes_or_fails =
  QCheck.Test.make ~count:2000
    ~name:"mangled payloads decode or fail typed, nothing else"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mangled)
    (fun s ->
      let raised what e =
        QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      (match Rio.Wire.decode_client_msg s with
      | Ok _ | Error _ -> ()
      | exception e -> raised "decode_client_msg" e);
      match Rio.Wire.decode_response s with
      | _ | (exception Rio.Codec.Error _) -> true
      | exception e -> raised "decode_response" e)

(* The server's frame peeler against every way the kernel might split a
   stream into reads: random read sizes, and one byte at a time. *)
let reads_yield_frames =
  QCheck.Test.make ~count:300
    ~name:"any split of a frame stream into reads yields its frames"
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (string_of_size Gen.(int_bound 300)))
        (list_of_size Gen.(int_range 1 20) (int_range 1 64)))
    (fun (payloads, sizes) ->
      let stream = Buffer.create 64 in
      List.iter
        (fun p ->
          Buffer.add_int32_le stream (Int32.of_int (String.length p));
          Buffer.add_string stream p)
        payloads;
      let s = Buffer.contents stream in
      let run sizes =
        let buf = Buffer.create 16 in
        let pos = ref 0 and off = ref 0 and got = ref [] and k = ref 0 in
        while !off < String.length s do
          let n =
            min (List.nth sizes (!k mod List.length sizes)) (String.length s - !off)
          in
          incr k;
          Buffer.add_substring buf s !off n;
          off := !off + n;
          let fs, p =
            Result.get_ok (Rio.Server.For_testing.take_frames buf !pos)
          in
          pos := p;
          got := List.rev_append fs !got
        done;
        (List.rev !got, Buffer.length buf - !pos)
      in
      run sizes = (payloads, 0) && run [ 1 ] = (payloads, 0))

let () =
  Alcotest.run "server"
    [
      ( "socket loop",
        [
          guarded "overlapping client ids route correctly" overlapping_ids;
          guarded "idle server wakes on completion" idle_wakeup;
          guarded "quit answers in-flight requests" quit_in_flight;
          guarded "malformed frame closes only its connection" malformed_frames;
          guarded "client disconnect drops, loop keeps serving" disconnect_in_flight;
        ] );
      ( "wire codec",
        [
          QCheck_alcotest.to_alcotest roundtrip;
          QCheck_alcotest.to_alcotest decodes_or_fails;
          QCheck_alcotest.to_alcotest reads_yield_frames;
        ] );
    ]
