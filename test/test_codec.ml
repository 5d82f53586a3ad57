(** The two binary formats the runtime reads from outside the process:
    serving frames ({!Rio.Wire}) and [.riocache] images
    ({!Rio.Persist}).  Their bytes are pinned here, so a change to the
    code that writes them cannot move a byte unnoticed; and one
    byte-mutation fuzzer drives both decoders, which must answer every
    mutant with a result and never raise.  The same fuzzer drives the
    third outside input, [.s] assembly sources, through the parser, the
    assembler and the image loader, which may refuse a mutant only with
    their documented errors.  The fuzz cases run under a [Unix.alarm]
    backstop, so a decoder that loops fails the run instead of hanging
    it. *)

open Workloads

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let with_tmp f =
  let path = Filename.temp_file "rio" ".riocache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* ------------------------------------------------------------------ *)
(* Byte pins                                                          *)
(* ------------------------------------------------------------------ *)

(* rio_run's defaults, and the benchmark's pressure configuration:
   -O3 in an 8 KB FIFO cache with compaction *)
let rio_run_opts = { Rio.Options.default with max_cycles = max_int / 2 }

let pressure_opts =
  {
    rio_run_opts with
    opt_level = 3;
    cache_capacity = Some 8192;
    flush_policy = Rio.Options.Flush_fifo;
    cache_compaction = true;
  }

(* Run [w] the way rio_run does and return the image it saves. *)
let saved_image ~opts (w : Workload.t) : string =
  let image = Asm.Assemble.assemble w.Workload.program in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m w.Workload.input;
  ignore (Asm.Image.load m image);
  let rt = Rio.create ~opts m in
  ignore (Rio.run rt);
  with_tmp (fun path ->
      ignore
        (Rio.Engine.save_image rt ~image_digest:(Asm.Image.digest image) ~path);
      read_file path)

(* MD5 of every suite program's image, per configuration *)
let image_pins =
  [
    ("defaults",
      rio_run_opts,
      [
        ("gzip", "f4263660b11d6d806c0791ea2cbdc6a5");
        ("vpr", "6af5714db5ba6569c78106c755b81cd5");
        ("parser", "36f200265c472e402f5be84767f4e466");
        ("gcc", "082d0260b2c78587434fbf2732288710");
        ("mcf", "86e833e9d4c392e58d15bd55413420e7");
        ("crafty", "d123218244676b4453c7691ba95e0038");
        ("eon", "8ade08ea5efe742ccfce15c4a82151ae");
        ("perlbmk", "4e3152ae50dfeb1da862ab78822b89d1");
        ("gap", "8f0964e6b4bce13f9559f7df0dde1d38");
        ("vortex", "1476a1c6470bc19f9e5f9ea5062aeb2d");
        ("bzip2", "f118114b636c397c369d7956be68036b");
        ("twolf", "de7b0358e9ea7131e7e9ce719dc34e08");
        ("wupwise", "e6551cd22a70aa3fb012d310ee0818b3");
        ("swim", "c3ba26f59e6644cea849bed533351688");
        ("mgrid", "2db892f02a2810dd4f8e57b2ad129341");
        ("applu", "fc3c84994fc57d73c9c28f4db7271e2d");
        ("mesa", "d4be861e58ed0f915ac2bfaa66f4e646");
        ("art", "8a8eb2a0b4fc9cd730e0c58318928967");
        ("equake", "b1aaaa4764cd7adcf18af19a6a6ab2e6");
        ("ammp", "2416e9fa38ce92b2a5ebff57665470c7");
      ] );
    ("pressure",
      pressure_opts,
      [
        ("gzip", "ed5f678b4d84c28a86738a4629d2274f");
        ("vpr", "dc6390a7c5111700405a4e155da1cdd0");
        ("parser", "eea97dcb3a63dd207212d3f7513880e2");
        ("gcc", "5ed46142dd21291c1a67355b8c02f455");
        ("mcf", "50a9de3071c7abc38ad40ce2db6a04b5");
        ("crafty", "dec86b3bde7911cd3fc21a4c515508de");
        ("eon", "48d34798bacc401697f7c33b642c62ab");
        ("perlbmk", "abaa7cb88f4fecf66447d37091419329");
        ("gap", "5f04abc6d47c79da823e3ab954984e96");
        ("vortex", "b491bd9e3d714f8b71f217495fcfe96b");
        ("bzip2", "551bf48fdbe5354c66736fb392a99134");
        ("twolf", "f539ef0d9b56f874405a28e87d23f820");
        ("wupwise", "e9a2de2ef578fc2fcce1bfa5f084cead");
        ("swim", "7cd0be277a68757739d0f35f5df0f0b0");
        ("mgrid", "aaad636bb5fc09d4f41118367c3547bc");
        ("applu", "08f6165a056917389f2bdf637c4f3199");
        ("mesa", "2f6778ac0121526bbf125448d25102a0");
        ("art", "e0744cf6a6392047a193b9f8d9b5fe6e");
        ("equake", "4bac8ab69ec74ecdfd8a3dc59bb0cf6c");
        ("ammp", "4c9889b524bf2062c70fe7c046395df8");
      ] );
  ]

(* every mismatch is printed as a pin line before the case fails, so a
   deliberate format change re-pins by pasting *)
let test_image_pins () =
  let bad = ref 0 in
  List.iter
    (fun (cfg, opts, pins) ->
      List.iter
        (fun (w : Workload.t) ->
          let got = Digest.to_hex (Digest.string (saved_image ~opts w)) in
          if List.assoc_opt w.Workload.name pins <> Some got then begin
            incr bad;
            Printf.printf "%s: (%S, %S);\n" cfg w.Workload.name got
          end)
        Suite.all)
    image_pins;
  Alcotest.(check int) "images whose bytes moved" 0 !bad

(* A fixed set of frames covering every op byte, status, flag and
   integer width, with extreme stream words, and their hex. *)
let run_msg c_id c_key c_seed c_input c_expect =
  Rio.Wire.Run { c_id; c_key; c_seed; c_input; c_expect }

let response r_id r_status r_warm r_cycles r_output =
  { Rio.Wire.r_id; r_status; r_warm; r_cycles; r_output }

let msg_pins =
  [
    (run_msg 0 "gzip" 0 [] None, "01000000000400677a6970000000000000000000");
    (run_msg 0xffff_ffff "" 0xffff_ffff [ 1; -1; max_int; min_int ] (Some [ 0; 7 ]), "01ffffffff0000ffffffff040000000100000000000000ffffffffffffffffffffffffffffff3f00000000000000c0010200000000000000000000000700000000000000");
    (* a key longer than 255 bytes sets the u16 length's high byte *)
    ( run_msg 258 (String.make 257 'k') 7 [ 0x1234_5678_9abc ] (Some []),
      "01020100000101"
      ^ String.concat "" (List.init 257 (fun _ -> "6b"))
      ^ "0700000001000000bc9a7856341200000100000000" );
    (Rio.Wire.Quit, "02");
  ]

let response_pins =
  Rio.Wire.
    [
      (response 0 St_ok true 0 [], "000000000001000000000000000000000000");
      (response 1 St_failed false (-5) [ 1; -2; 3 ], "010000000100fbffffffffffffff030000000100000000000000feffffffffffffff0300000000000000");
      (response 2 St_shed false 0 [], "020000000200000000000000000000000000");
      (response 3 St_unknown_key false max_int [], "030000000300ffffffffffffff3f00000000");
      (response 4 St_quarantined true min_int [ min_int ], "04000000040100000000000000c00100000000000000000000c0");
      (response 0xffff_ffff St_stopping false 1 [ max_int ], "ffffffff0500010000000000000001000000ffffffffffffff3f");
    ]

let test_frame_pins () =
  let bad = ref 0 in
  let pin encode decode (v, want) =
    let got = hex (encode v) in
    if got <> want then begin
      incr bad;
      Printf.printf "(..., %S);\n" got
    end;
    if decode (encode v) <> Ok v then begin
      incr bad;
      Printf.printf "no round trip: %s\n" got
    end
  in
  List.iter (pin Rio.Wire.encode_client_msg Rio.Wire.decode_client_msg) msg_pins;
  List.iter
    (pin Rio.Wire.encode_response (fun s -> Ok (Rio.Wire.decode_response s)))
    response_pins;
  Alcotest.(check int) "frames whose bytes moved" 0 !bad

(* ------------------------------------------------------------------ *)
(* Byte-mutation fuzzer                                               *)
(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "!! test_codec: HANG — alarm fired in a fuzz case";
         Unix._exit 3))

let guarded f () =
  ignore (Unix.alarm 120);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

(* Values a count, length or offset field is most likely to mishandle;
   min_int is 2^62, the first value that no longer fits. *)
let boundary =
  [ 0; 1; 2; 127; 128; 255; 256; 4095; 4096; 65535; 65536; 0x100_0000;
    0x7fff_ffff; 0xffff_ffff; max_int; min_int ]

(* unsigned LEB128 of [v]'s 63-bit pattern *)
let rec leb v =
  if v land lnot 0x7f = 0 then String.make 1 (Char.chr v)
  else String.make 1 (Char.chr (0x80 lor (v land 0x7f))) ^ leb (v lsr 7)

let le n v = String.init n (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

type mutation =
  | Flip of int * int               (* position, xor mask *)
  | Truncate of int                 (* new length *)
  | Extend of string
  | Rewrite of int * int * int      (* position, value, field width *)

let mutation_to_string = function
  | Flip (i, m) -> Printf.sprintf "flip byte %d by 0x%02x" i m
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Extend x -> Printf.sprintf "extend by %S" x
  | Rewrite (i, v, w) -> Printf.sprintf "rewrite %d-byte field at %d as %d" w i v

let gen_mutation (s : string) : mutation QCheck.Gen.t =
  let n = max 1 (String.length s) in
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i m -> Flip (i, m)) (int_bound (n - 1)) (int_range 1 255));
        (1, map (fun k -> Truncate k) (int_bound (n - 1)));
        (1, map (fun x -> Extend x) (string_size (int_range 1 16)));
        ( 4,
          map3
            (fun i v w -> Rewrite (i, v, w))
            (int_bound (n - 1)) (oneofl boundary) (oneofl [ 1; 2; 4; 8 ]) );
      ])

(* A [Rewrite] replaces the integer field at its position: in an image
   the varint that starts there, in a frame [w] little-endian bytes. *)
let apply ~varints (s : string) (m : mutation) : string =
  let n = String.length s in
  match m with
  | Flip (i, mask) ->
      String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor mask) else c) s
  | Truncate k -> String.sub s 0 k
  | Extend x -> s ^ x
  | Rewrite (i, v, w) ->
      let stop =
        if varints then
          let j = ref i in
          while !j < n - 1 && Char.code s.[!j] >= 0x80 do incr j done;
          !j + 1
        else min n (i + w)
      in
      let field = if varints then leb v else le (stop - i) v in
      String.sub s 0 i ^ field ^ String.sub s stop (n - stop)

(* --- wire payloads --- *)

let frames =
  List.map (fun (m, _) -> Rio.Wire.encode_client_msg m) msg_pins
  @ List.map (fun (r, _) -> Rio.Wire.encode_response r) response_pins

let fuzz_frames =
  let gen =
    QCheck.Gen.(
      oneofl frames >>= fun s -> map (fun m -> (s, m)) (gen_mutation s))
  in
  QCheck.Test.make ~count:2000 ~name:"mutated frames decode or fail typed"
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "%s of %s" (mutation_to_string m) (hex s))
       gen)
    (fun (s, m) ->
      let s = apply ~varints:false s m in
      let raised what e =
        QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      (match Rio.Wire.decode_client_msg s with
      | Ok _ | Error _ -> ()
      | exception e -> raised "decode_client_msg" e);
      match Rio.Wire.decode_response s with
      | _ | (exception Rio.Codec.Error _) -> true
      | exception e -> raised "decode_response" e)

(* --- cache images --- *)

(* A few quick suite programs primed and saved at -O0 and at -O3; the
   cycle bound keeps a warm run of mutated code short. *)
let sources =
  lazy
    (List.concat_map
       (fun name ->
         let w = Option.get (Suite.by_name name) in
         let native = Workload.run_native w in
         assert native.Workload.ok;
         List.map
           (fun opt_level ->
             let opts =
               { Rio.Options.default with
                 opt_level; max_cycles = 4 * native.Workload.cycles }
             in
             (w, opts, native.Workload.output, saved_image ~opts w))
           [ 0; 3 ])
       [ "gzip"; "parser"; "crafty" ])

(* re-stamp the FNV trailer, so a mutant reaches the parser instead of
   stopping at the checksum *)
let restamp s =
  let n = String.length s in
  if n < 24 then s
  else String.sub s 0 (n - 4) ^ le 4 (Rio.Codec.fnv32 s ~pos:0 ~len:(n - 4))

type verdict = Refused | Loaded_native | Loaded_diverged

(* verdicts of the current fuzz case, printed to its log *)
let tally = Hashtbl.create 3

(* Load [image] into a fresh engine; when it loads, run the program
   warm.  Raising out of either fails the case. *)
let load_and_run ((w : Workload.t), opts, native, _) image : verdict =
  let program = Asm.Assemble.assemble w.Workload.program in
  let raised what e =
    QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
  in
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc image);
      let m = Vm.Machine.create () in
      Asm.Image.load_cold m program;
      let rt = Rio.create ~opts m in
      match Rio.Engine.load_image rt ~image_digest:(Asm.Image.digest program) ~path with
      | exception e -> raised "load" e
      | Error _ -> Refused
      | Ok _ -> (
          ignore
            (Vm.Machine.add_thread m ~entry:program.Asm.Image.entry
               ~stack_top:Asm.Image.default_stack_top);
          Vm.Machine.set_input m w.Workload.input;
          match Rio.run rt with
          | exception e -> raised "warm run" e
          | _ ->
              if Vm.Machine.output m = native then Loaded_native
              else Loaded_diverged))

let fuzz_images seed =
  let gen =
    QCheck.Gen.(
      oneofl (Lazy.force sources) >>= fun src ->
      let _, _, _, image = src in
      map (fun m -> (src, m)) (gen_mutation image))
  in
  QCheck.Test.make ~count:2000
    ~name:(Printf.sprintf "mutated images load typed or run, seed %d" seed)
    (QCheck.make
       ~print:(fun ((w, _, _, _), m) -> w.Workload.name ^ ": " ^ mutation_to_string m)
       gen)
    (fun (((_, _, _, image) as src), m) ->
      let mutant = restamp (apply ~varints:true image m) in
      match (m, load_and_run src mutant) with
      | (Truncate _ | Extend _), (Loaded_native | Loaded_diverged) ->
          QCheck.Test.fail_report "a resized image loaded"
      | _, v ->
          let n = Option.value ~default:0 (Hashtbl.find_opt tally v) in
          Hashtbl.replace tally v (n + 1);
          true)

(* --- assembly sources --- *)

(* [p] printed as [.s] source: direct branch targets by label name
   where one names the address, every other operand as the
   disassembler prints it. *)
let print_program (p : Asm.Ast.program) : string =
  let image = Asm.Assemble.assemble p in
  let env = Asm.Image.label image in
  let name_at = Hashtbl.create 64 in
  List.iter (fun (l, a) -> Hashtbl.replace name_at a l) image.Asm.Image.labels;
  let insn f =
    let i = f env in
    let text = Isa.Disasm.insn_to_string i in
    match (i.Isa.Insn.opcode, String.split_on_char ' ' text) with
    | (Isa.Opcode.Jmp | Isa.Opcode.Jcc _ | Isa.Opcode.Call), [ m; target ] -> (
        match Option.bind (int_of_string_opt target) (Hashtbl.find_opt name_at) with
        | Some l -> m ^ " " ^ l
        | None -> text)
    | _ -> text
  in
  let ints l = String.concat ", " (List.map string_of_int l) in
  let item = function
    | Asm.Ast.Label l -> l ^ ":"
    | Ins f -> "  " ^ insn f
    | Align n -> Printf.sprintf "  .align %d" n
    | Bytes_lit b -> Printf.sprintf "  .ascii %S" b
    | Word32 ws -> "  .word " ^ ints (List.map (fun w -> w env) ws)
    | Float64 fs ->
        "  .float " ^ String.concat ", " (List.map (Printf.sprintf "%.17g") fs)
    | Space n -> Printf.sprintf "  .space %d" n
  in
  String.concat "\n"
    ((".entry " ^ p.Asm.Ast.entry) :: ".text" :: List.map item p.text
    @ (".data" :: List.map item p.data))

(* suite programs printed back to text for the source fuzzer *)
let printed = [ "gzip"; "parser"; "crafty" ]

let suite_program name = (Option.get (Suite.by_name name)).Workload.program

(* (name, source text) *)
let asm_sources =
  lazy
    (("collatz.s", read_file "../examples/collatz.s")
    :: List.map (fun name -> (name, print_program (suite_program name))) printed)

(* The unmutated sources are well-formed: each printed program
   assembles to its original's bytes. *)
let test_printed_sources () =
  List.iter
    (fun name ->
      let p = suite_program name in
      let reparsed = Asm.Parse.For_testing.program (print_program p) in
      let a = Asm.Assemble.assemble p and b = Asm.Assemble.assemble reparsed in
      Alcotest.(check bool) (name ^ " text") true (Bytes.equal a.text b.text);
      Alcotest.(check bool) (name ^ " data") true (Bytes.equal a.data b.data))
    printed;
  ignore
    (Asm.Assemble.assemble
       (Asm.Parse.For_testing.program (read_file "../examples/collatz.s")))

(* outcomes of the current source fuzz case: refused by the parser, by
   the assembler, or loaded *)
let source_tally = Array.make 3 0

let report_source_tally () =
  if Array.exists (( < ) 0) source_tally then
    Printf.printf "parse errors %d, assembly errors %d, loaded %d\n"
      source_tally.(0) source_tally.(1) source_tally.(2);
  Array.fill source_tally 0 3 0

(* Parse, assemble and load each mutant into one reused machine; only
   [Parse_error] and [Assembly_error] may stop it. *)
let fuzz_sources seed =
  let m = lazy (Vm.Machine.create ()) in
  let gen =
    QCheck.Gen.(
      oneofl (Lazy.force asm_sources) >>= fun src ->
      map (fun mu -> (src, mu)) (gen_mutation (snd src)))
  in
  QCheck.Test.make ~count:2000
    ~name:(Printf.sprintf "mutated .s sources load or fail typed, seed %d" seed)
    (QCheck.make
       ~print:(fun ((name, _), mu) -> name ^ ": " ^ mutation_to_string mu)
       gen)
    (fun ((_, s), mu) ->
      let raised what e =
        QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      let count k =
        source_tally.(k) <- source_tally.(k) + 1;
        true
      in
      match Asm.Parse.For_testing.program (apply ~varints:false s mu) with
      | exception Asm.Parse.Parse_error _ -> count 0
      | exception e -> raised "parse" e
      | prog -> (
          match Asm.Assemble.assemble prog with
          | exception Asm.Assemble.Assembly_error _ -> count 1
          | exception e -> raised "assemble" e
          | image -> (
              match Asm.Image.load (Lazy.force m) image with
              | _ -> count 2
              | exception e -> raised "load" e)))

(* A loaded mutant's output is tallied, not checked: the checksum is
   the format's only integrity check, and the fuzzer re-stamps it, so
   a rewritten code byte or exit target loads and runs differently. *)
let report_tally () =
  let n v = Option.value ~default:0 (Hashtbl.find_opt tally v) in
  if Hashtbl.length tally > 0 then
    Printf.printf "refused %d, loaded and matched native %d, loaded and diverged %d\n"
    (n Refused) (n Loaded_native) (n Loaded_diverged);
  Hashtbl.reset tally

let () =
  Alcotest.run "codec"
    [
      ( "pins",
        [
          Alcotest.test_case "wire frames, hex" `Quick test_frame_pins;
          Alcotest.test_case "suite images, md5" `Slow test_image_pins;
        ] );
      ( "fuzz",
        List.map
          (fun (seed, t) ->
            let name, speed, f =
              QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
            in
            Alcotest.test_case name speed
              (guarded (fun () ->
                   f ();
                   report_tally ();
                   report_source_tally ())))
          ((1, fuzz_frames)
          :: List.map (fun seed -> (seed, fuzz_images seed)) [ 1; 2; 3 ]
          @ List.map (fun seed -> (seed, fuzz_sources seed)) [ 1; 2; 3 ])
        @ [
            Alcotest.test_case "printed sources reassemble" `Quick
              test_printed_sources;
          ] );
    ]
