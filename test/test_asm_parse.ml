(** Tests for the textual assembler front-end: parse → assemble → run,
    equivalence with DSL-built twins, and error reporting. *)

let checkb = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

let run_source ?(input = []) src =
  let prog = Asm.Parse.For_testing.program src in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m input;
  ignore (Asm.Image.load m image);
  let o = Vm.Sched.run ~emulate:false m in
  (Vm.Machine.output m, o.Vm.Sched.stop = Vm.Interp.Halted)

let run_source_rio src =
  let prog = Asm.Parse.For_testing.program src in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let rt = Rio.create m in
  let o = Rio.run rt in
  (Vm.Machine.output m, o.Rio.reason = Rio.All_exited)

let test_basic_program () =
  let out, ok =
    run_source
      {|
      # sum 1..10
      main:
          mov  %eax, $0
          mov  %ecx, $1
      loop:
          add  %eax, %ecx
          inc  %ecx
          cmp  %ecx, $10
          jle  loop
          out  %eax
          hlt
      |}
  in
  checkb "halted" true ok;
  check_ilist "sum" [ 55 ] out

let test_memory_and_data () =
  let out, ok =
    run_source
      {|
      .data
      buf:
          .word 10, 20, 30
      scale:
          .word 7
      .text
      main:
          li   %ebx, $@buf
          mov  %eax, (%ebx)          ; 10
          add  %eax, 4(%ebx)         ; +20
          mov  %ecx, $2
          add  %eax, (%ebx,%ecx,4)   ; +30
          mov  %edx, @scale          ; absolute label load
          imul %eax, %edx
          out  %eax
          hlt
      |}
  in
  checkb "halted" true ok;
  check_ilist "sum*scale" [ 420 ] out

let test_calls_and_tables () =
  let out, ok =
    run_source
      {|
      .entry start
      .data
      table:
          .word @f1, @f2
      .text
      start:
          mov   %esi, $0
          li    %ebx, $@table
          mov   %eax, (%ebx,%esi,4)
          call  %eax                 ; indirect call through register
          out   %eax
          call  f2
          out   %eax
          hlt
      f1:
          mov %eax, $100
          ret
      f2:
          mov %eax, $200
          ret
      |}
  in
  checkb "halted" true ok;
  check_ilist "calls" [ 100; 200 ] out

let test_fp_and_ascii () =
  let out, ok =
    run_source
      {|
      .data
      vals:
          .float 1.5, 2.5
      msg:
          .ascii "ok;a,b#"           ; comment characters and commas are bytes
      .text
      main:
          fld   %f0, @vals
          fadd  %f0, @vals+8
          cvtfi %eax, %f0
          out   %eax                 ; 4
          li    %ebx, $@msg
          movzx8 %ecx, (%ebx)
          out   %ecx                 ; 'o' = 111
          movzx8 %ecx, 2(%ebx)
          out   %ecx                 ; ';' = 59
          movzx8 %ecx, 5(%ebx)
          out   %ecx                 ; 'b' = 98
          movzx8 %ecx, 6(%ebx)
          out   %ecx                 ; '#' = 35
          hlt
      |}
  in
  checkb "halted" true ok;
  check_ilist "fp+ascii" [ 4; 111; 59; 98; 35 ] out

let test_equivalent_to_dsl () =
  (* the same program via the DSL and via text must behave identically,
     natively and under the code cache *)
  let src =
    {|
    main:
        mov  %eax, $0
        mov  %ecx, $0
    loop:
        mov  %edx, %ecx
        and  %edx, $7
        add  %eax, %edx
        inc  %ecx
        cmp  %ecx, $5000
        jl   loop
        out  %eax
        hlt
    |}
  in
  let open Asm.Dsl in
  let dsl_prog =
    program ~name:"twin" ~entry:"main"
      ~text:
        [
          label "main"; mov eax (i 0); mov ecx (i 0);
          label "loop";
          mov edx ecx; and_ edx (i 7); add eax edx;
          inc ecx; cmp ecx (i 5000); j l "loop";
          out eax; hlt;
        ]
      ()
  in
  let image = Asm.Assemble.assemble dsl_prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Vm.Sched.run ~emulate:false m);
  let dsl_out = Vm.Machine.output m in
  let text_out, _ = run_source src in
  check_ilist "text = dsl (native)" dsl_out text_out;
  let rio_out, ok = run_source_rio src in
  checkb "rio ok" true ok;
  check_ilist "text = dsl (cached)" dsl_out rio_out

let check_mentions frag msg =
  checkb
    (Printf.sprintf "error mentions %S (got %S)" frag msg)
    true
    (let fl = String.length frag and ml = String.length msg in
     let rec go i = i + fl <= ml && (String.sub msg i fl = frag || go (i + 1)) in
     go 0)

let expect_error ?line src frag =
  match Asm.Parse.For_testing.program src with
  | exception Asm.Parse.Parse_error { line = got; msg } ->
      check_mentions frag msg;
      Option.iter (fun want -> Alcotest.(check int) (frag ^ ": line") want got) line
  | _ -> Alcotest.failf "expected a parse error (%s)" frag

(* source that parses but that the assembler refuses *)
let expect_assembly_error src frag =
  match Asm.Assemble.assemble (Asm.Parse.For_testing.program src) with
  | exception Asm.Assemble.Assembly_error msg -> check_mentions frag msg
  | _ -> Alcotest.failf "expected an assembly error (%s)" frag

let test_errors () =
  expect_error "main:\n  bogus %eax\n" "unknown mnemonic";
  expect_error "main:\n  mov %eux, $1\n" "unknown register";
  expect_error "main:\n  mov %eax\n" "expects 2 operand";
  expect_error "main:\n  .word x\n" "bad integer";
  expect_error "main:\n  .bogus 3\n" "unknown directive";
  expect_error "main:\n  jz\n" "expects a label";
  (* label errors are found after the last line, at their own line *)
  expect_error ~line:2 "main:\n  jmp nowhere\n  hlt\n" "undefined label \"nowhere\"";
  expect_error ~line:2 "main:\n  li %eax, $@nowhere+4\n  hlt\n" "undefined label";
  expect_error ~line:3 "main:\n  hlt\n  .word @nowhere\n" "undefined label";
  expect_error ~line:3 "main:\n  hlt\nmain:\n  hlt\n" "already defined on line 1";
  expect_error ~line:2 "main:\n  jmp x\nmain:\n" "undefined label \"x\"";
  expect_error ~line:1 ".entry start\nmain:\n  hlt\n" "entry label \"start\" undefined";
  expect_error ~line:2 "main:\n  jmp main now please\n" "expects a label";
  expect_error ~line:1 "ma in:\n  hlt\n" "bad label";
  expect_assembly_error "main:\n  imul %eax, $0x1fffffff3\n  hlt\n" "cannot encode";
  expect_assembly_error "main:\n  .space -5\n  hlt\n" "does not fit"

(* print/parse round trip: whatever the disassembler prints, the parser
   reads back to the same instruction (modulo the runtime-reserved
   ccall, which the parser rejects on purpose) *)
let prop_disasm_parse_roundtrip =
  QCheck2.Test.make ~name:"parse (disasm i) = i" ~count:2000
    ~print:Gen.print_insn Gen.insn (fun insn ->
      if insn.Isa.Insn.opcode = Isa.Opcode.Ccall then true
      else begin
        let text = Isa.Disasm.insn_to_string insn in
        let src = Printf.sprintf "main:\n  %s\n  hlt\n" text in
        match Asm.Parse.For_testing.program src with
        | exception Asm.Parse.Parse_error { msg; _ } ->
            QCheck2.Test.fail_reportf "parse of %S failed: %s" text msg
        | prog -> (
            match prog.Asm.Ast.text with
            | [ _label; Asm.Ast.Ins f; _hlt ] ->
                (* printed operands are numeric; no labels involved.
                   Compare by encoding: immediates may round-trip as
                   the unsigned spelling of the same 32-bit value. *)
                let parsed = f (fun _ -> 0) in
                let enc i = Isa.Encode.encode_exn ~pc:0x100000 i in
                if Bytes.equal (enc parsed) (enc insn) then true
                else
                  QCheck2.Test.fail_reportf "parsed %S as %s" text
                    (Isa.Disasm.insn_to_string parsed)
            | _ -> QCheck2.Test.fail_reportf "unexpected item shape for %S" text)
      end)

(* The disassembly of every suite program, pinned: [parse (disasm i)]
   reads this text back, so a change to the decoder or the printer
   that moves it moves these digests.  (program, MD5 of its lines) *)
let golden_disasm =
  [
    ("gzip", "47277b1be382ef29ab639dc31cb410d7");
    ("vpr", "d56c7785d236cc597d975d18d5913d4c");
    ("parser", "2c8fc00ae3d13d982c991d0c17fd0a23");
    ("gcc", "d1d98be5650c5ab10ebb7344468a251d");
    ("mcf", "14b4c94764c19770c0963ae1a3063e77");
    ("crafty", "f4b867112c79caaf3884ab4cb10465cc");
    ("eon", "d87a5cfa7305724795902b038ae1d60b");
    ("perlbmk", "90d587ba09a767a3c6cac54a1491e340");
    ("gap", "f6cb8209c18fd682d18ec53edf0158c9");
    ("vortex", "cbb9f9de628472043c19f553723b28a1");
    ("bzip2", "861e9af0ce8c7dd12d0ef9d26507ac59");
    ("twolf", "7f1bb6d0c4d24859bfb56b0f64923165");
    ("wupwise", "c727d24c86351da376ecbc93d1e479aa");
    ("swim", "34d4470867df711bac42a18f9e1f4012");
    ("mgrid", "258555bd53fbe933384b97391477e4da");
    ("applu", "bbbf733e0955ace85ffd08792e099e85");
    ("mesa", "1e0b67b44be9e166577f7e50e58e9de6");
    ("art", "72ddc25decb0a4a570fe976bde454de4");
    ("equake", "fdef8f4b22b12758ee45708b5698013c");
    ("ammp", "1bc23c90a9716a70cd3479f8b6c7725b");
  ]

let test_disasm_digests () =
  let bad = ref [] in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let image = Asm.Assemble.assemble w.program in
      let base = image.Asm.Image.text_base in
      let fetch a = Char.code (Bytes.get image.text (a - base)) in
      let lines = Isa.Disasm.region fetch ~pc:base ~len:(Bytes.length image.text) in
      let d = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
      if List.assoc_opt w.name golden_disasm <> Some d then
        bad := Printf.sprintf "(%S, %S);" w.name d :: !bad)
    Workloads.Suite.all;
  if !bad <> [] then
    Alcotest.failf "disassembly digests moved; actual:\n%s"
      (String.concat "\n" (List.rev !bad))

let () =
  Alcotest.run "asm-parse"
    [
      ( "parse",
        [
          Alcotest.test_case "basic program" `Quick test_basic_program;
          Alcotest.test_case "memory and data" `Quick test_memory_and_data;
          Alcotest.test_case "calls and tables" `Quick test_calls_and_tables;
          Alcotest.test_case "fp and ascii" `Quick test_fp_and_ascii;
          Alcotest.test_case "text = dsl equivalence" `Quick test_equivalent_to_dsl;
          Alcotest.test_case "errors" `Quick test_errors;
          QCheck_alcotest.to_alcotest prop_disasm_parse_roundtrip;
        ] );
      ("disasm", [ Alcotest.test_case "20 programs" `Quick test_disasm_digests ]);
    ]
