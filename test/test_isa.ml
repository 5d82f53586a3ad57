(** Tests for the SynISA substrate: encoder, decoders, metadata. *)

open Isa

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let _ = check

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let encode_at ~pc i =
  match Encode.encode ~pc i with
  | Ok b -> b
  | Error e ->
      Alcotest.failf "encode failed for %s: %s" (Disasm.insn_to_string i)
        (Encode.error_to_string e)

let decode_at ~pc (b : Bytes.t) =
  (* place the bytes "at" [pc] by offsetting the fetcher *)
  let f addr = Char.code (Bytes.get b (addr - pc)) in
  match Decode.full f pc with
  | Ok r -> r
  | Error e -> Alcotest.failf "decode failed: %s" (Decode.error_to_string e)

let roundtrip ~pc i =
  let b = encode_at ~pc i in
  let i', len = decode_at ~pc b in
  (i', len, Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Unit tests: specific encodings                                     *)
(* ------------------------------------------------------------------ *)

let test_short_forms () =
  let len i = Bytes.length (encode_at ~pc:0x1000 i) in
  checki "inc reg is 1 byte" 1 (len (Insn.mk_inc (Operand.Reg Reg.Ebx)));
  checki "dec reg is 1 byte" 1 (len (Insn.mk_dec (Operand.Reg Reg.Esi)));
  checki "push reg is 1 byte" 1 (len (Insn.mk_push (Operand.Reg Reg.Ebp)));
  checki "pop reg is 1 byte" 1 (len (Insn.mk_pop (Operand.Reg Reg.Edi)));
  checki "nop is 1 byte" 1 (len (Insn.mk_nop ()));
  checki "ret is 1 byte" 1 (len (Insn.mk_ret ()));
  checki "mov reg,imm32 is 5 bytes" 5
    (len (Insn.mk_mov (Operand.Reg Reg.Ecx) (Operand.Imm 123456)));
  checki "add eax,imm8 is 2 bytes" 2
    (len (Insn.mk_add (Operand.Reg Reg.Eax) (Operand.Imm 5)));
  checki "add reg,imm8 is 3 bytes" 3
    (len (Insn.mk_add (Operand.Reg Reg.Ebx) (Operand.Imm 5)));
  checki "add reg,imm32 is 6 bytes" 6
    (len (Insn.mk_add (Operand.Reg Reg.Ebx) (Operand.Imm 100000)))

let test_jcc_forms () =
  (* short branch: rel8 *)
  let near = Insn.mk_jcc Cond.Z 0x1010 in
  checki "jcc near is 2 bytes" 2 (Bytes.length (encode_at ~pc:0x1000 near));
  (* far branch: rel32 via escape *)
  let far = Insn.mk_jcc Cond.Z 0x90000 in
  checki "jcc far is 6 bytes" 6 (Bytes.length (encode_at ~pc:0x1000 far));
  (* backward branch *)
  let back = Insn.mk_jmp 0x0FF0 in
  checki "jmp back near is 2 bytes" 2 (Bytes.length (encode_at ~pc:0x1000 back))

let test_esp_memory_forms () =
  (* esp-based addressing requires a SIB byte *)
  let i = Insn.mk_mov (Operand.Reg Reg.Eax) (Operand.mem_base ~disp:8 Reg.Esp) in
  let b = encode_at ~pc:0 i in
  checki "mov eax, 8(%esp) is 4 bytes (op+modrm+sib+disp8)" 4 (Bytes.length b);
  let i', _ = decode_at ~pc:0 b in
  checkb "esp-mem roundtrip" true (Insn.equal i i')

let test_ebp_disp0 () =
  (* (%ebp) with no displacement must still encode (mod=1 disp8=0) *)
  let i = Insn.mk_mov (Operand.Reg Reg.Eax) (Operand.mem_base Reg.Ebp) in
  let i', _, _ = roundtrip ~pc:0 i in
  checkb "(%ebp) roundtrip" true (Insn.equal i i')

let test_absolute_mem () =
  let i = Insn.mk_mov (Operand.Reg Reg.Edx) (Operand.mem_abs 0x8000) in
  let i', len, blen = roundtrip ~pc:0x400 i in
  checki "abs mem len" blen len;
  checkb "abs mem roundtrip" true (Insn.equal i i')

let test_lock_prefix () =
  let i = { (Insn.mk_add (Operand.mem_base Reg.Ebx) (Operand.Reg Reg.Eax))
            with Insn.prefixes = Insn.prefix_lock } in
  let b = encode_at ~pc:0 i in
  checki "lock prefix first byte" 0xF0 (Char.code (Bytes.get b 0));
  let i', _ = decode_at ~pc:0 b in
  checkb "lock prefix kept" true (i'.Insn.prefixes = Insn.prefix_lock);
  checkb "lock roundtrip" true (Insn.equal i i')

let test_invalid_shapes () =
  let mm = Insn.mk_mov (Operand.mem_base Reg.Eax) (Operand.mem_base Reg.Ebx) in
  checkb "mem-to-mem mov rejected" true (Result.is_error (Encode.encode ~pc:0 mm));
  let bad_shift =
    Insn.mk_shl (Operand.Reg Reg.Eax) (Operand.Reg Reg.Ebx) (* only %ecx allowed *)
  in
  checkb "shift by non-ecx reg rejected" true
    (Result.is_error (Encode.encode ~pc:0 bad_shift));
  (* operands missing altogether: a shape error, not an exception *)
  let bare = Insn.make Opcode.Add ~srcs:[||] ~dsts:[||] in
  checkb "add without operands rejected" true (Result.is_error (Encode.encode ~pc:0 bare))

let test_invalid_decode () =
  (* 0x06 is ALU form 6: unused *)
  let f = Decode.fetch_bytes (Bytes.of_string "\x06\x00") in
  checkb "invalid opcode rejected" true (Result.is_error (Decode.full f 0));
  checkb "invalid boundary rejected" true (Result.is_error (Decode.For_testing.boundary f 0));
  (* the register-only FP forms refuse a memory ModRM, as fmov and the
     register fadd..fdiv do *)
  List.iter
    (fun (what, s) ->
      let f = Decode.For_testing.fetch_string (s ^ String.make 8 '\x00') in
      match Decode.full f 0 with
      | Error (Decode.Invalid_modrm 2) -> ()
      | Error e -> Alcotest.failf "%s: %s" what (Decode.error_to_string e)
      | Ok (i, n) -> Alcotest.failf "%s decodes as %s (%d bytes)" what (Disasm.insn_to_string i) n)
    [
      ("fcmp f,f with memory", "\x0f\x30\x05\x10\x00\x00\x00");
      ("fabs with memory", "\x0f\x38\x05\x10\x00\x00\x00");
      ("fneg with memory", "\x0f\x39\x40\x08");
      ("fsqrt with memory", "\x0f\x3a\x00");
      ("fmov with memory", "\x0f\x12\x05\x10\x00\x00\x00");
      ("fadd f,f with memory", "\x0f\x20\x05\x10\x00\x00\x00");
    ]

let test_unknown_two_byte () =
  (* all three decoders blame the byte after the escape, at the
     instruction's start *)
  List.iter
    (fun s ->
      let f = Decode.For_testing.fetch_string (s ^ String.make 8 '\x00') in
      let expected = Error (Decode.Invalid_opcode (0, 0x99)) in
      checkb "boundary" true (Decode.For_testing.boundary f 0 = expected);
      checkb "opcode_eflags" true (Result.map snd (Decode.opcode_eflags f 0) = expected);
      checkb "full" true (Result.map snd (Decode.full f 0) = expected))
    [ "\x0f\x99"; "\xf0\x0f\x99" ]

(* Every form of the table, tried against every GPR and FP register,
   memory edge cases and immediate/rel edge values: each instruction
   decodes back to itself at the length all three decoders and
   [Encode.length] agree on, its bytes re-encode to themselves, and
   every form is the encoder's choice for some instruction. *)
let test_every_form () =
  let open Encoding_spec in
  let gprs = List.map (fun r -> Operand.Reg r) Reg.all in
  let fprs = List.map (fun f -> Operand.Freg f) Reg.F.all in
  let mems =
    let disps = [ 0; 127; -128; 128; -129; 0x7FFF_FFFF; -0x8000_0000 ] in
    let indexes =
      None
      :: List.concat_map
           (fun r -> List.map (fun s -> Some (r, s)) [ 1; 2; 4; 8 ])
           (List.filter (fun r -> not (Reg.equal r Reg.Esp)) Reg.all)
    in
    List.concat_map
      (fun base ->
        List.concat_map
          (fun index -> List.map (fun disp -> Operand.Mem { base; index; disp }) disps)
          indexes)
      (None :: List.map Option.some Reg.all)
  in
  let imms l = List.map (fun n -> Operand.Imm n) l in
  (* rel values from the end of a [len]-byte branch at [pc] *)
  let rels ~pc ~len l = List.map (fun d -> Operand.Target (pc + len + d)) l in
  let candidates ~pc ~len = function
    | Reg_gpr | Rm_gpr | Plus_r -> gprs
    | Reg_fp | Rm_fp -> fprs
    | Rm -> gprs @ mems
    | Rm_mem -> mems
    | Imm8s -> imms [ -128; -1; 0; 1; 127 ]
    | Imm8u -> imms [ 0; 1; 31; 128; 255 ]
    | Imm32 -> imms [ -0x8000_0000; -129; -128; 0; 127; 128; 0x7FFF_FFFF ]
    | Rel8 -> rels ~pc ~len [ -128; -1; 0; 127 ]
    | Rel32 -> rels ~pc ~len [ -0x8000_0000; -129; -128; 127; 128; 0x7FFF_FFFF ]
    | Fixed r -> [ r ]
  in
  (* with two fields, one ranges over all its candidates while the
     other takes the first and last of its own *)
  let ends l = [ List.hd l; List.nth l (List.length l - 1) ] in
  let chosen = Hashtbl.create 256 in
  let check ~pc (i : Insn.t) =
    let b = encode_at ~pc i in
    let len = Bytes.length b in
    let f a = Char.code (Bytes.get b (a - pc)) in
    let i', l3 = decode_at ~pc b in
    let name = Disasm.insn_to_string i in
    if not (Insn.equal i i') then
      Alcotest.failf "%s @ 0x%x decodes as %s" name pc (Disasm.insn_to_string i');
    if l3 <> len || Decode.boundary_exn f pc <> len
       || Decode.opcode_eflags_exn f pc <> (i.opcode, len)
       || Encode.length ~pc i <> len
    then Alcotest.failf "%s @ 0x%x: the lengths disagree" name pc;
    if not (Bytes.equal (Encode.encode_exn ~pc i') b) then
      Alcotest.failf "%s @ 0x%x does not re-encode to itself" name pc;
    let p = if i.prefixes = 0 then 0 else 1 in
    let r =
      Option.get
        (if Char.code (Bytes.get b p) = escape then two_byte.(Char.code (Bytes.get b (p + 1)))
         else one_byte.(Char.code (Bytes.get b p)))
    in
    Hashtbl.replace chosen (r.escaped, r.byte) ()
  in
  List.iter
    (fun (r : form) ->
      List.iter
        (fun (pc, prefixes) ->
          let len = (if prefixes = 0 then 0 else 1) + opcode_len r + r.tail in
          let c = Array.map (candidates ~pc ~len) r.fields in
          let mk x0 x1 = { (Insn.of_explicit r.opcode x0 x1) with Insn.prefixes } in
          match c with
          | [||] -> check ~pc (mk Insn.no_operand Insn.no_operand)
          | [| c0 |] -> List.iter (fun x -> check ~pc (mk x Insn.no_operand)) c0
          | _ ->
              List.iter (fun x0 -> List.iter (fun x1 -> check ~pc (mk x0 x1)) (ends c.(1))) c.(0);
              List.iter (fun x0 -> List.iter (fun x1 -> check ~pc (mk x0 x1)) c.(1)) (ends c.(0)))
        [ (0x1000, 0); (0x7FFF_F000, 0); (0x40_0000, Insn.prefix_lock) ])
    forms;
  List.iter
    (fun (r : form) ->
      if not (Hashtbl.mem chosen (r.escaped, r.byte)) then
        Alcotest.failf "form %s (%s) is never chosen" r.name (Opcode.name r.opcode))
    forms

let test_cond_invert () =
  List.iter
    (fun c ->
      let c' = Cond.invert c in
      checkb
        (Printf.sprintf "invert %s is involutive" (Cond.name c))
        true
        (Cond.equal c (Cond.invert c'));
      (* inverted condition evaluates oppositely on every flag value *)
      for fl = 0 to 0xFFF do
        if Cond.eval c fl = Cond.eval c' fl then
          Alcotest.failf "cond %s and inverse agree on flags %x" (Cond.name c) fl
      done)
    Cond.all

let test_eflags_metadata () =
  let open Eflags in
  let m = Opcode.eflags Opcode.Inc in
  checkb "inc does not write CF" false (writes_flag m CF);
  checkb "inc writes ZF" true (writes_flag m ZF);
  let m = Opcode.eflags Opcode.Add in
  checkb "add writes CF" true (writes_flag m CF);
  let m = Opcode.eflags (Opcode.Jcc Cond.B) in
  checkb "jb reads CF" true (reads_flag m CF);
  checkb "jb does not write" true (For_testing.write_set m = []);
  let m = Opcode.eflags Opcode.Adc in
  checkb "adc reads CF" true (reads_flag m CF);
  checkb "mov touches nothing" true (Opcode.eflags Opcode.Mov = Eflags.none)

let test_disasm_smoke () =
  let i = Insn.mk_add (Operand.Reg Reg.Eax) (Operand.Imm 1) in
  check Alcotest.string "disasm add" "add %eax, $0x1" (Disasm.insn_to_string i);
  let i = Insn.mk_jcc Cond.NL 0x77f52269 in
  check Alcotest.string "disasm jnl" "jnl 0x77f52269" (Disasm.insn_to_string i)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"decode (encode i) = i" ~count:2000
    ~print:Gen.print_insn_at Gen.insn_at (fun (i, pc) ->
      match Encode.encode ~pc i with
      | Error e -> QCheck2.Test.fail_reportf "encode: %s" (Encode.error_to_string e)
      | Ok b ->
          let f addr = Char.code (Bytes.get b (addr - pc)) in
          (match Decode.full f pc with
           | Error e -> QCheck2.Test.fail_reportf "decode: %s" (Decode.error_to_string e)
           | Ok (i', len) ->
               if len <> Bytes.length b then
                 QCheck2.Test.fail_reportf "length mismatch: %d vs %d" len
                   (Bytes.length b)
               else if not (Insn.equal i i') then
                 QCheck2.Test.fail_reportf "got %s" (Disasm.insn_to_string i')
               else true))

let prop_explicit_inverts =
  QCheck2.Test.make ~name:"of_explicit (explicit i) = i" ~count:2000
    ~print:Gen.print_insn Gen.insn (fun i ->
      Insn.equal i (Insn.of_explicit i.opcode (Insn.explicit i 0) (Insn.explicit i 1)))

let prop_boundary_agrees =
  QCheck2.Test.make ~name:"boundary scan = full decode length" ~count:2000
    ~print:Gen.print_insn_at Gen.insn_at (fun (i, pc) ->
      let b = Encode.encode_exn ~pc i in
      let f addr = Char.code (Bytes.get b (addr - pc)) in
      let l0 = Decode.boundary_exn f pc in
      let op, l2 = Decode.opcode_eflags_exn f pc in
      let _, l3 = Decode.full_exn f pc in
      l0 = l3 && l2 = l3 && Opcode.equal op i.Insn.opcode)

let prop_valid_always_encodes =
  QCheck2.Test.make ~name:"valid instructions always have a template" ~count:2000
    ~print:Gen.print_insn_at Gen.insn_at (fun (i, pc) ->
      match Insn.validate i with
      | Error _ -> true (* generator shouldn't produce these, but skip *)
      | Ok () -> Result.is_ok (Encode.encode ~pc i))

let prop_reencode_stable =
  (* encoding is deterministic and re-encoding a decoded instruction at
     the same pc gives identical bytes *)
  QCheck2.Test.make ~name:"encode (decode (encode i)) = encode i" ~count:1000
    ~print:Gen.print_insn_at Gen.insn_at (fun (i, pc) ->
      let b = Encode.encode_exn ~pc i in
      let f addr = Char.code (Bytes.get b (addr - pc)) in
      let i', _ = Decode.full_exn f pc in
      let b' = Encode.encode_exn ~pc i' in
      Bytes.equal b b')

let prop_shortest_form =
  (* the encoder never emits a longer encoding than any alternative
     template produces: check against brute-force minimum over templates
     by re-encoding with sub-ranged immediates.  We approximate by
     checking known dominances: imm8-able immediates never use imm32
     forms, reg forms never use modrm long forms. *)
  QCheck2.Test.make ~name:"short forms are chosen" ~count:1000
    ~print:Gen.print_insn Gen.insn (fun i ->
      let b = Encode.encode_exn ~pc:0x1000 i in
      let len = Bytes.length b in
      match (i.Insn.opcode, i.Insn.dsts, i.Insn.srcs) with
      | (Opcode.Inc | Opcode.Dec), [| Operand.Reg _ |], _ -> len = 1
      | Opcode.Push, _, [| Operand.Reg _; _ |] -> len = 1
      | Opcode.Pop, [| Operand.Reg _; _ |], _ -> len = 1
      | Opcode.Mov, [| Operand.Reg _ |], [| Operand.Imm _ |] -> len = 5
      | ( (Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor),
          [| Operand.Reg Reg.Eax |],
          [| Operand.Imm n; _ |] )
        when Encoding_spec.fits_i8 n ->
          len = 2
      | _ -> len <= 12)

let prop_decoder_total =
  (* the decoder is total on arbitrary byte soup: every call either
     returns a decoded instruction with a sane length or a structured
     error — never an exception, never a zero/negative length.  (This is
     what lets the runtime scan unknown application memory safely.) *)
  QCheck2.Test.make ~name:"decoder never crashes on random bytes" ~count:2000
    ~print:(fun b -> Disasm.hex_bytes (Bytes.of_string b))
    QCheck2.Gen.(string_size ~gen:char (int_range 16 32))
    (fun s ->
      (* pad generously so reads past a truncated instruction stay in
         bounds; bounds themselves are the fetcher's concern *)
      let padded = s ^ String.make 16 '\x00' in
      let f = Decode.For_testing.fetch_string padded in
      let check_result = function
        | Ok len -> len > 0 && len <= 13
        | Error _ -> true
      in
      check_result (Decode.For_testing.boundary f 0)
      && check_result (Result.map snd (Decode.opcode_eflags f 0))
      && check_result (Result.map snd (Decode.full f 0))
      &&
      (* whatever fully decodes, the cheap scanners accept with the
         same length (the cheap scans may accept a superset: they skip
         operand-shape checks, like a real length decoder), and an
         unknown opcode is the same error to all of them *)
      match (Decode.full f 0, Decode.For_testing.boundary f 0) with
      | Ok (_, len), b -> b = Ok len && Result.map snd (Decode.opcode_eflags f 0) = Ok len
      (* what the length scan refuses, the full decode refuses alike *)
      | Error e, Error e' -> e = e'
      | Error _, Ok _ -> true)

let prop_decoded_garbage_reencodes =
  (* anything the decoder accepts, the encoder can re-produce *)
  QCheck2.Test.make ~name:"decoded random bytes re-encode" ~count:2000
    ~print:(fun b -> Disasm.hex_bytes (Bytes.of_string b))
    QCheck2.Gen.(string_size ~gen:char (int_range 16 32))
    (fun s ->
      let padded = s ^ String.make 16 '\x00' in
      match Decode.full (Decode.For_testing.fetch_string padded) 0 with
      | Error _ -> true
      | Ok (insn, _) -> Result.is_ok (Encode.encode ~pc:0 insn))

let prop_eflags_mask_shape =
  QCheck2.Test.make ~name:"eflags masks: read/write halves disjoint bit ranges"
    ~count:500 ~print:Gen.print_insn Gen.insn (fun i ->
      let m = Insn.eflags i in
      let r = Eflags.read_mask m and w = Eflags.write_mask m in
      r land lnot Eflags.all_mask = 0 && w land lnot Eflags.all_mask = 0)

let prop_fixed_branch_writers =
  (* the fixed-form writers a code cache emits exit branches and stub
     jumps with produce exactly the encoder's long form, for jmp and
     every jcc condition, at any pc and target — including
     displacements past the rel32 range, which both wrap to 32 bits *)
  let gen =
    QCheck2.Gen.(
      let disp =
        oneof
          [
            int_range (-300) 300;
            int_range (-(1 lsl 31)) ((1 lsl 31) - 1);
            map (fun k -> (1 lsl 31) + k) (int_range (-4) 3);
            map (fun k -> -(1 lsl 31) + k) (int_range (-4) 3);
            int_range (-(1 lsl 34)) (1 lsl 34);
          ]
      in
      triple (opt (oneofl Cond.all)) (int_range 0 0xFFFF_FFFF) disp)
  in
  QCheck2.Test.make ~name:"fixed branch writers = encode ~long:true" ~count:3000
    ~print:(fun (c, pc, d) ->
      Printf.sprintf "%s pc=0x%x disp=%d"
        (match c with None -> "jmp" | Some c -> "j" ^ Cond.name c) pc d)
    gen
    (fun (c, pc, disp) ->
      let len, insn, write =
        match c with
        | None ->
            let target = pc + Encode.jmp_rel32_len + disp in
            (Encode.jmp_rel32_len, Insn.mk_jmp target,
             fun b -> Encode.write_jmp_rel32 b ~off:1 ~pc target)
        | Some c ->
            let target = pc + Encode.jcc_rel32_len + disp in
            (Encode.jcc_rel32_len, Insn.mk_jcc c target,
             fun b -> Encode.write_jcc_rel32 b ~off:1 ~pc c target)
      in
      (* written at an offset into a larger buffer: nothing outside the
         branch's own bytes may change *)
      let b = Bytes.make (len + 2) '\xAA' in
      write b;
      let expected = Encode.encode_exn ~long:true ~pc insn in
      if not (Bytes.equal (Bytes.sub b 1 len) expected) then
        QCheck2.Test.fail_reportf "writer %s, encoder %s"
          (Disasm.hex_bytes (Bytes.sub b 1 len)) (Disasm.hex_bytes expected);
      if Bytes.get b 0 <> '\xAA' || Bytes.get b (len + 1) <> '\xAA' then
        QCheck2.Test.fail_report "writer touched bytes outside the branch";
      let fetch a = Char.code (Bytes.get b (a - pc + 1)) in
      if Encode.long_branch_len fetch pc <> len then
        QCheck2.Test.fail_report "long_branch_len does not recognise the form";
      (* in range, the bytes decode back to the same branch *)
      if Encoding_spec.to_i32 disp = disp then
        match Decode.full fetch pc with
        | Ok (i', l') -> l' = len && Insn.equal i' insn
        | Error e -> QCheck2.Test.fail_reportf "decode: %s" (Decode.error_to_string e)
      else true)

(* ------------------------------------------------------------------ *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_explicit_inverts;
      prop_boundary_agrees;
      prop_valid_always_encodes;
      prop_reencode_stable;
      prop_shortest_form;
      prop_decoder_total;
      prop_decoded_garbage_reencodes;
      prop_eflags_mask_shape;
      prop_fixed_branch_writers;
    ]

let () =
  Alcotest.run "isa"
    [
      ( "encoding",
        [
          Alcotest.test_case "short forms" `Quick test_short_forms;
          Alcotest.test_case "jcc forms" `Quick test_jcc_forms;
          Alcotest.test_case "esp memory forms" `Quick test_esp_memory_forms;
          Alcotest.test_case "(%ebp) disp0" `Quick test_ebp_disp0;
          Alcotest.test_case "absolute mem" `Quick test_absolute_mem;
          Alcotest.test_case "lock prefix" `Quick test_lock_prefix;
          Alcotest.test_case "invalid shapes" `Quick test_invalid_shapes;
          Alcotest.test_case "invalid decode" `Quick test_invalid_decode;
          Alcotest.test_case "unknown two-byte opcode" `Quick test_unknown_two_byte;
          Alcotest.test_case "every form" `Quick test_every_form;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "cond invert" `Quick test_cond_invert;
          Alcotest.test_case "eflags metadata" `Quick test_eflags_metadata;
          Alcotest.test_case "disasm smoke" `Quick test_disasm_smoke;
        ] );
      ("properties", qtests);
    ]
