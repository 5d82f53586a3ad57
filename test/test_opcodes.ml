(** Systematic per-opcode coverage: every SynISA opcode executes at
    least once through the full pipeline — DSL → assembler → image →
    interpreter — natively AND out of the code cache, with identical
    results.  Table-driven: each case is a tiny program plus its
    expected output. *)

open Asm.Dsl

let check_ilist = Alcotest.(check (list int))
let checkb = Alcotest.(check bool)

let run_both name prog expected =
  let image = Asm.Assemble.assemble prog in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    let o = Vm.Sched.run ~emulate:false m in
    checkb (name ^ " native halts") true (o.Vm.Sched.stop = Vm.Interp.Halted);
    Vm.Machine.output m
  in
  check_ilist (name ^ " native result") expected native;
  let cached =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    let rt = Rio.create m in
    let o = Rio.run rt in
    checkb (name ^ " cached halts") true (o.Rio.reason = Rio.All_exited);
    Vm.Machine.output m
  in
  check_ilist (name ^ " cached result") expected cached

let u32 n = n land 0xFFFFFFFF

(* one case: body instrs leave the result in eax, we out it *)
let case name ?data body expected =
  ( name,
    fun () ->
      run_both name
        (program ~name ~entry:"main"
           ~text:(label "main" :: (body @ [ out eax; hlt ]))
           ?data ())
        [ expected ] )

(* a case outputting several values explicitly *)
let case_multi name ?data text expected =
  (name, fun () -> run_both name (program ~name ~entry:"main" ~text ?data ()) expected)

let integer_cases =
  [
    case "mov r,imm" [ mov eax (i 7) ] 7;
    case "mov r,r" [ mov ecx (i 9); mov eax ecx ] 9;
    case "mov r,m / m,r"
      ~data:[ label "w"; word32 [ 0 ] ]
      [ mov ecx (i 13); st "w" ecx; ld eax "w" ]
      13;
    case "movzx8"
      ~data:[ label "b"; word32 [ 0x1234ABCD ] ]
      [ li ebx "b"; movzx8 eax (mb ebx) ]
      0xCD;
    case "movzx16"
      ~data:[ label "b"; word32 [ 0x1234ABCD ] ]
      [ li ebx "b"; movzx16 eax (mb ebx) ]
      0xABCD;
    case "movzx8 from reg" [ mov ecx (i 0x1FF); movzx8 eax ecx ] 0xFF;
    case "lea scale"
      [ mov ebx (i 100); mov ecx (i 7); lea eax (m ~base:ebx ~index:(ecx, 8) ~disp:3 ()) ]
      (100 + 56 + 3);
    case "push/pop reg" [ mov ecx (i 21); push ecx; pop eax ] 21;
    case "push imm" [ push (i 77); pop eax ] 77;
    case "push/pop mem"
      ~data:[ label "w"; word32 [ 55 ] ]
      [ ins (fun env -> Isa.Insn.mk_push (Isa.Operand.mem_abs (env "w")));
        pop eax ]
      55;
    case "xchg r,r" [ mov eax (i 1); mov ecx (i 2); xchg eax ecx; sub eax (i 0) ] 2;
    case "xchg r,m"
      ~data:[ label "w"; word32 [ 30 ] ]
      [ mov eax (i 4); ins (fun env -> Isa.Insn.mk_xchg (Asm.Dsl.eax) (Isa.Operand.mem_abs (env "w"))) ]
      30;
    case "add" [ mov eax (i 40); add eax (i 2) ] 42;
    case "add r,m"
      ~data:[ label "w"; word32 [ 5 ] ]
      [ mov eax (i 1); ins (fun env -> Isa.Insn.mk_add Asm.Dsl.eax (Isa.Operand.mem_abs (env "w"))) ]
      6;
    case "adc carries"
      [ mov eax (i (-1)); add eax (i 1); mov eax (i 5); adc eax (i 0) ]
      6;
    case "sub" [ mov eax (i 10); sub eax (i 3) ] 7;
    case "sbb borrows"
      [ mov ecx (i 0); sub ecx (i 1); mov eax (i 10); sbb eax (i 0) ]
      9;
    case "inc/dec" [ mov eax (i 5); inc eax; inc eax; dec eax ] 6;
    case "neg" [ mov eax (i 3); neg eax ] (u32 (-3));
    case "not" [ mov eax (i 0); not_ eax ] 0xFFFFFFFF;
    case "and" [ mov eax (i 0xF0F); and_ eax (i 0x0FF) ] 0x00F;
    case "or" [ mov eax (i 0xF00); or_ eax (i 0x00F) ] 0xF0F;
    case "xor" [ mov eax (i 0xFF); xor eax (i 0x0F) ] 0xF0;
    case "test sets flags"
      [ mov eax (i 0); mov ecx (i 6); test ecx (i 1);
        j z "zero"; mov eax (i 1); label "zero"; add eax (i 0) ]
      0;
    case "cmp unsigned"
      [ mov eax (i 0); mov ecx (i (-1)); cmp ecx (i 1);
        j nbe "above"; jmp "done"; label "above"; mov eax (i 1); label "done";
        add eax (i 0) ]
      1;
    case "imul r,r" [ mov eax (i 6); mov ecx (i 7); imul eax ecx ] 42;
    case "imul r,imm" [ mov eax (i (-6)); imul eax (i 7) ] (u32 (-42));
    case "idiv" [ mov eax (i 43); mov ecx (i 5); idiv ecx; add eax edx ]
      (8 + 3);
    case "shl" [ mov eax (i 3); shl eax (i 4) ] 48;
    case "shr" [ mov eax (i (-1)); shr eax (i 24) ] 0xFF;
    case "sar" [ mov eax (i (-16)); sar eax (i 2) ] (u32 (-4));
    case "shift by cl" [ mov eax (i 1); mov ecx (i 5); shl eax ecx ] 32;
    case "lock prefix executes"
      [ ins (fun _ ->
            { (Isa.Insn.mk_add Asm.Dsl.eax (Isa.Operand.Imm 9)) with
              Isa.Insn.prefixes = Isa.Insn.prefix_lock });
      ]
      9;
  ]

let control_cases =
  [
    case_multi "jmp skips" [ label "main"; mov eax (i 1); jmp "over";
                             mov eax (i 2); label "over"; out eax; hlt ] [ 1 ];
    case_multi "all sixteen conditions"
      ([ label "main" ]
      @ List.concat_map
          (fun (c, setup, expect_taken) ->
            let l = "t_" ^ Isa.Cond.name c in
            setup
            @ [ j c l; out (i 0); jmp (l ^ "_end"); label l; out (i 1);
                label (l ^ "_end") ]
            @ [ out (i expect_taken) ])
          [
            (o, [ mov eax (i 0x7FFFFFFF); add eax (i 1) ], 1);
            (no, [ mov eax (i 1); add eax (i 1) ], 1);
            (b, [ mov eax (i 0); sub eax (i 1) ], 1);
            (nb, [ mov eax (i 2); sub eax (i 1) ], 1);
            (z, [ mov eax (i 1); sub eax (i 1) ], 1);
            (nz, [ mov eax (i 2); sub eax (i 1) ], 1);
            (be, [ mov eax (i 1); sub eax (i 1) ], 1);
            (nbe, [ mov eax (i 2); sub eax (i 1) ], 1);
            (s, [ mov eax (i 0); sub eax (i 1) ], 1);
            (ns, [ mov eax (i 2); sub eax (i 1) ], 1);
            (p, [ mov eax (i 3); add eax (i 0) ], 1);   (* 0x3: even parity *)
            (np, [ mov eax (i 1); add eax (i 0) ], 1);  (* 0x1: odd parity *)
            (l, [ mov eax (i (-2)); add eax (i 1) ], 1);
            (nl, [ mov eax (i 2); add eax (i 1) ], 1);
            (le, [ mov eax (i 1); sub eax (i 1) ], 1);
            (nle, [ mov eax (i 3); sub eax (i 1) ], 1);
          ]
      @ [ hlt ])
      (List.concat (List.init 16 (fun _ -> [ 1; 1 ])));
    case_multi "call/ret/call_ind/jmp_ind"
      ~data:[ label "fp"; word32_lbl [ "g" ] ]
      [
        label "main";
        call "f"; out eax;                          (* 10 *)
        ld ecx "fp"; call_ind ecx; out eax;         (* 20 *)
        li edx "tail"; jmp_ind edx;
        out (i 999);                                (* skipped *)
        label "tail"; out (i 30); hlt;
        label "f"; mov eax (i 10); ret;
        label "g"; mov eax (i 20); ret;
      ]
      [ 10; 20; 30 ];
    case_multi "pushf/popf preserve flags"
      [
        label "main";
        mov eax (i (-1)); add eax (i 1);  (* CF=1 ZF=1 *)
        pushf;
        mov ecx (i 1); add ecx (i 1);     (* clobber flags *)
        popf;
        mov eax (i 0); adc eax (i 0);     (* reads restored CF *)
        out eax; hlt;
      ]
      [ 1 ];
    case_multi "in port" [ label "main"; in_ eax; in_ ecx; add eax ecx; out eax; hlt ]
      [ 0 ] (* empty input port reads 0 *);
  ]

let fp_cases =
  [
    case_multi "fld/fst/fmov"
      ~data:[ label "v"; float64 [ 6.25 ]; label "w"; float64 [ 0.0 ] ]
      [
        label "main";
        ins (fun env -> Isa.Insn.mk_fld f0 (Isa.Operand.mem_abs (env "v")));
        fmov f1 f0;
        ins (fun env -> Isa.Insn.mk_fst (Isa.Operand.mem_abs (env "w")) f1);
        ins (fun env -> Isa.Insn.mk_fld f2 (Isa.Operand.mem_abs (env "w")));
        cvtfi eax f2; out eax; hlt;
      ]
      [ 6 ];
    case_multi "fadd/fsub/fmul/fdiv"
      ~data:[ label "v"; float64 [ 8.0; 2.0 ] ]
      [
        label "main";
        ins (fun env -> Isa.Insn.mk_fld f0 (Isa.Operand.mem_abs (env "v")));
        ins (fun env -> Isa.Insn.mk_fld f1 (Isa.Operand.mem_abs (env "v" + 8)));
        fadd f0 (fr f1);   (* 10 *)
        fsub f0 (fr f1);   (* 8 *)
        fdiv f0 (fr f1);   (* 4 *)
        fmul f0 (fr f1);   (* 8 *)
        ins (fun env -> Isa.Insn.mk_fadd f0 (Isa.Operand.mem_abs (env "v" + 8)));
        cvtfi eax f0; out eax; hlt;
      ]
      [ 10 ];
    case_multi "fabs/fneg/fsqrt"
      ~data:[ label "v"; float64 [ -9.0 ] ]
      [
        label "main";
        ins (fun env -> Isa.Insn.mk_fld f0 (Isa.Operand.mem_abs (env "v")));
        fabs f0;           (* 9 *)
        fsqrt f0;          (* 3 *)
        fneg f0;           (* -3 *)
        cvtfi eax f0; out eax; hlt;
      ]
      [ u32 (-3) ];
    case_multi "fcmp orders"
      ~data:[ label "v"; float64 [ 1.5; 2.5 ] ]
      [
        label "main";
        ins (fun env -> Isa.Insn.mk_fld f0 (Isa.Operand.mem_abs (env "v")));
        ins (fun env -> Isa.Insn.mk_fld f1 (Isa.Operand.mem_abs (env "v" + 8)));
        fcmp f0 (fr f1);
        j b "less"; out (i 0); hlt;
        label "less"; fcmp f1 (fr f0);
        j nbe "greater"; out (i 1); hlt;
        label "greater"; out (i 2); hlt;
      ]
      [ 2 ];
    case_multi "cvtsi negative and cvtfi saturation"
      [
        label "main";
        mov ecx (i (-7));
        cvtsi f0 ecx;
        cvtfi eax f0; out eax;         (* -7 *)
        mov ecx (i 3);
        cvtsi f1 ecx;
        fmul f1 (fr f1);               (* 9 *)
        fmul f1 (fr f1);               (* 81 *)
        cvtfi eax f1; out eax;         (* 81 *)
        hlt;
      ]
      [ u32 (-7); 81 ];
  ]

(* ------------------------------------------------------------------ *)
(* Static effects, pinned                                             *)
(* ------------------------------------------------------------------ *)

(* Every opcode's static metadata, as the analyses, the optimizer, the
   trace builder and the cost model see it.  A row that moves is a
   change to what an opcode means: regenerate from the failure message
   only when that change is deliberate. *)

open Isa

let all_opcodes : Opcode.t list =
  Opcode.
    [
      Mov; Movzx8; Movzx16; Lea; Push; Pop; Xchg; Pushf; Popf; Add; Adc;
      Sub; Sbb; Inc; Dec; Neg; Cmp; Imul; Idiv; And; Or; Xor; Not; Test;
      Shl; Shr; Sar; Jmp; JmpInd; Call; CallInd; Ret; Fld; Fst; Fmov; Fadd;
      Fsub; Fmul; Fdiv; Fabs; Fneg; Fsqrt; Fcmp; Cvtsi; Cvtfi; Nop; Hlt;
      Out; In; Ccall;
    ]
  @ List.map (fun c -> Opcode.Jcc c) Cond.all

let cti_name : Opcode.cti_kind -> string = function
  | Not_cti -> "-"
  | Cti_direct_jmp -> "jmp"
  | Cti_cond -> "cond"
  | Cti_ind_jmp -> "ind_jmp"
  | Cti_direct_call -> "call"
  | Cti_ind_call -> "ind_call"
  | Cti_return -> "ret"
  | Cti_halt -> "halt"

let p4 = Vm.Cost.default_params Vm.Cost.Pentium4
let p3 = Vm.Cost.default_params Vm.Cost.Pentium3

(* One line per opcode: name, eflags mask, CTI kind, then the flags
   i(ndirect CTI), c(all), r/w (implicit stack read/write), f(p: 8-byte
   memory operands), and base cycles on the Pentium 4 and the
   Pentium 3. *)
let effects_line (op : Opcode.t) : string =
  let b c v = if v then c else '.' in
  Printf.sprintf "%s 0x%06x %s %c%c%c%c%c %d/%d" (Opcode.name op)
    (Opcode.eflags op) (cti_name (Opcode.For_testing.cti_kind op))
    (b 'i' (Opcode.For_testing.is_indirect_cti op))
    (b 'c' (Opcode.For_testing.is_call op))
    (b 'r' (Opcode.implicit_stack_read op))
    (b 'w' (Opcode.implicit_stack_write op))
    (b 'f' (Opcode.mem_width op = 8))
    (Vm.Cost.base_cycles p4 op) (Vm.Cost.base_cycles p3 op)

let pinned_effects =
  [
      "mov 0x000000 - ..... 1/1";
      "movzx8 0x000000 - ..... 1/1";
      "movzx16 0x000000 - ..... 1/1";
      "lea 0x000000 - ..... 1/1";
      "push 0x000000 - ...w. 2/2";
      "pop 0x000000 - ..r.. 2/2";
      "xchg 0x000000 - ..... 2/2";
      "pushf 0x0008d5 - ...w. 8/5";
      "popf 0x8d5000 - ..r.. 8/5";
      "add 0x8d5000 - ..... 1/1";
      "adc 0x8d5001 - ..... 1/1";
      "sub 0x8d5000 - ..... 1/1";
      "sbb 0x8d5001 - ..... 1/1";
      "inc 0x8d4000 - ..... 4/1";
      "dec 0x8d4000 - ..... 4/1";
      "neg 0x8d5000 - ..... 1/1";
      "cmp 0x8d5000 - ..... 1/1";
      "imul 0x8d5000 - ..... 4/4";
      "idiv 0x8d5000 - ..... 24/24";
      "and 0x8d5000 - ..... 1/1";
      "or 0x8d5000 - ..... 1/1";
      "xor 0x8d5000 - ..... 1/1";
      "not 0x000000 - ..... 1/1";
      "test 0x8d5000 - ..... 1/1";
      "shl 0x8d5000 - ..... 2/1";
      "shr 0x8d5000 - ..... 2/1";
      "sar 0x8d5000 - ..... 2/1";
      "jmp 0x000000 jmp ..... 1/1";
      "jmp* 0x000000 ind_jmp i.... 2/2";
      "call 0x000000 call .c.w. 2/2";
      "call* 0x000000 ind_call ic.w. 2/2";
      "ret 0x000000 ret i.r.. 2/2";
      "fld 0x000000 - ....f 2/2";
      "fst 0x000000 - ....f 2/2";
      "fmov 0x000000 - ....f 1/1";
      "fadd 0x000000 - ....f 1/1";
      "fsub 0x000000 - ....f 1/1";
      "fmul 0x000000 - ....f 2/2";
      "fdiv 0x000000 - ....f 20/20";
      "fabs 0x000000 - ....f 1/1";
      "fneg 0x000000 - ....f 1/1";
      "fsqrt 0x000000 - ....f 25/25";
      "fcmp 0x8d5000 - ....f 3/3";
      "cvtsi 0x000000 - ....f 4/4";
      "cvtfi 0x000000 - ....f 4/4";
      "nop 0x000000 - ..... 1/1";
      "hlt 0x000000 halt ..... 1/1";
      "out 0x000000 - ..... 40/40";
      "in 0x000000 - ..... 40/40";
      "ccall 0x000000 - ..... 0/0";
      "jo 0x000800 cond ..... 1/1";
      "jno 0x000800 cond ..... 1/1";
      "jb 0x000001 cond ..... 1/1";
      "jnb 0x000001 cond ..... 1/1";
      "jz 0x000040 cond ..... 1/1";
      "jnz 0x000040 cond ..... 1/1";
      "jbe 0x000041 cond ..... 1/1";
      "jnbe 0x000041 cond ..... 1/1";
      "js 0x000080 cond ..... 1/1";
      "jns 0x000080 cond ..... 1/1";
      "jp 0x000004 cond ..... 1/1";
      "jnp 0x000004 cond ..... 1/1";
      "jl 0x000880 cond ..... 1/1";
      "jnl 0x000880 cond ..... 1/1";
      "jle 0x0008c0 cond ..... 1/1";
      "jnle 0x0008c0 cond ..... 1/1";
  ]

let test_effects_pinned () =
  let actual = List.map effects_line all_opcodes in
  if actual <> pinned_effects then
    Alcotest.failf "opcode effects moved; actual:\n%s"
      (String.concat "\n" (List.map (Printf.sprintf "    %S;") actual))

(* The opcode sets three clients of the metadata single out. *)
let jccs =
  [ "jo"; "jno"; "jb"; "jnb"; "jz"; "jnz"; "jbe"; "jnbe"; "js"; "jns"; "jp";
    "jnp"; "jl"; "jnl"; "jle"; "jnle" ]

let pinned_sets =
  [
    ( "side-effect free",
      Opcode.side_effect_free,
      [ "mov"; "movzx8"; "movzx16"; "lea"; "add"; "adc"; "sub"; "sbb"; "inc";
        "dec"; "neg"; "cmp"; "imul"; "and"; "or"; "xor"; "not"; "test"; "shl";
        "shr"; "sar"; "fld"; "fmov"; "fadd"; "fsub"; "fmul"; "fdiv"; "fabs";
        "fneg"; "fsqrt"; "fcmp"; "cvtsi"; "cvtfi"; "nop" ] );
    ( "liveness barrier",
      Opcode.is_barrier,
      [ "jmp"; "jmp*"; "call"; "call*"; "ret"; "hlt"; "out"; "in"; "ccall" ]
      @ jccs );
    ( "constant-scan stop",
      Rio.Trace.For_testing.const_scan_stops,
      [ "push"; "pop"; "pushf"; "popf"; "jmp"; "jmp*"; "call"; "call*"; "ret";
        "hlt"; "out"; "in"; "ccall" ]
      @ jccs );
  ]

let test_sets_pinned () =
  List.iter
    (fun (what, p, expected) ->
      let actual = List.map Opcode.name (List.filter p all_opcodes) in
      Alcotest.(check (list string)) what expected actual)
    pinned_sets

let effects_cases =
  [
    ("66 opcodes", fun () -> Alcotest.(check int) "count" 66 (List.length all_opcodes));
    ("per-opcode effects", test_effects_pinned);
    ("opcode sets", test_sets_pinned);
  ]

(* A jump past the end of memory: the builder cannot fetch the target
   block, so the runtime interprets it and faults exactly as native
   execution does, instead of letting the fetch fault escape. *)
let test_wild_jump () =
  let image =
    Asm.Assemble.assemble
      (program ~name:"wild" ~entry:"main"
         ~text:[ label "main"; mov eax (i 0x7fff_fff0); jmp_ind eax; hlt ]
         ())
  in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    match (Vm.Sched.run ~emulate:false m).Vm.Sched.stop with
    | Vm.Interp.Fault f -> f
    | _ -> Alcotest.fail "native run did not fault"
  in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  match (Rio.run (Rio.create m)).Rio.reason with
  | Rio.App_fault f -> Alcotest.(check string) "the native fault" native f
  | r -> Alcotest.fail ("cached run: " ^ Rio.stop_reason_to_string r)

let () =
  let to_tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "opcodes"
    [
      ("integer", List.map to_tc integer_cases);
      ( "control",
        List.map to_tc control_cases
        @ [ Alcotest.test_case "jump off the end of memory" `Quick test_wild_jump ] );
      ("floating point", List.map to_tc fp_cases);
      ("static effects", List.map to_tc effects_cases);
    ]
