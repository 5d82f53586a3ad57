(** Tests for the VM substrate: interpreter semantics, flags, memory,
    scheduler, cost model, assembler round trips. *)

open Asm.Dsl

let checkb = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* Run a program natively on a fresh machine; return (output, machine). *)
let run_native ?(family = Vm.Cost.Pentium4) ?(input = []) prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create ~family () in
  Vm.Machine.set_input m input;
  let _t = Asm.Image.load m image in
  let outcome = Vm.Sched.run ~emulate:false m in
  (Vm.Machine.output m, m, outcome)

let expect_output ?input name prog expected =
  let out, _, outcome = run_native ?input prog in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "%s: stopped with %s" name (Vm.Interp.stop_to_string s));
  check_ilist name expected out

(* ------------------------------------------------------------------ *)
(* Basic arithmetic programs                                          *)
(* ------------------------------------------------------------------ *)

let test_mov_out () =
  expect_output "mov/out"
    (program ~name:"t" ~text:[ label "main"; mov eax (i 42); out eax; hlt ] ())
    [ 42 ]

let test_loop_sum () =
  (* sum 1..10 = 55 *)
  expect_output "loop sum"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 0);
           mov ecx (i 1);
           label "loop";
           add eax ecx;
           inc ecx;
           cmp ecx (i 10);
           j le "loop";
           out eax;
           hlt;
         ]
       ())
    [ 55 ]

let test_signed_arith () =
  expect_output "neg/idiv"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-17));
           mov ebx (i 5);
           idiv ebx;       (* eax = -3, edx = -2 *)
           out eax;
           out edx;
           neg eax;        (* 3 *)
           out eax;
           hlt;
         ]
       ())
    [ -3 land 0xFFFFFFFF; -2 land 0xFFFFFFFF; 3 ]

let test_flags_cf_of () =
  (* 0xFFFFFFFF + 1 sets CF and ZF, not OF *)
  expect_output "carry chain"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-1));
           add eax (i 1);      (* CF=1 ZF=1 *)
           mov ebx (i 0);
           adc ebx (i 0);      (* ebx = 0 + 0 + CF = 1 *)
           out ebx;
           (* signed overflow: 0x7FFFFFFF + 1 -> OF *)
           mov eax (i 0x7FFFFFFF);
           add eax (i 1);
           mov ecx (i 0);
           j no "no_of";
           mov ecx (i 1);
           label "no_of";
           out ecx;
           hlt;
         ]
       ())
    [ 1; 1 ]

let test_inc_preserves_cf () =
  expect_output "inc preserves CF"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-1));
           add eax (i 1);   (* CF=1 *)
           inc eax;         (* must not clobber CF *)
           mov ebx (i 0);
           adc ebx (i 0);   (* 1 if CF still set *)
           out ebx;
           hlt;
         ]
       ())
    [ 1 ]

let test_shifts () =
  expect_output "shifts"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 1);
           shl eax (i 4);
           out eax;              (* 16 *)
           mov eax (i (-32));
           sar eax (i 2);
           out eax;              (* -8 *)
           mov eax (i (-32));
           shr eax (i 28);
           out eax;              (* 0xF *)
           mov ecx (i 3);
           mov eax (i 2);
           shl eax ecx;
           out eax;              (* 16 *)
           hlt;
         ]
       ())
    [ 16; -8 land 0xFFFFFFFF; 0xF; 16 ]

let test_memory_ops () =
  expect_output "memory load/store"
    (program ~name:"t"
       ~text:
         [
           label "main";
           li ebx "buf";
           mov (mb ebx) (i 0x11223344);
           movzx8 eax (mb ebx);
           out eax;                       (* 0x44 *)
           movzx16 eax (mb ebx);
           out eax;                       (* 0x3344 *)
           mov (mb ebx ~disp:4) (i 7);
           mov eax (mb ebx ~disp:4);
           out eax;                       (* 7 *)
           (* scaled indexing: buf[2*4] *)
           mov ecx (i 2);
           mov (m ~base:ebx ~index:(ecx, 4) ()) (i 99);
           mov eax (mb ebx ~disp:8);
           out eax;                       (* 99 *)
           hlt;
         ]
       ~data:[ label "buf"; space 64 ]
       ())
    [ 0x44; 0x3344; 7; 99 ]

let test_stack_and_calls () =
  expect_output "call/ret"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 5);
           call "double";
           out eax;          (* 10 *)
           call "double";
           out eax;          (* 20 *)
           hlt;
           label "double";
           add eax eax;
           ret;
         ]
       ())
    [ 10; 20 ]

let test_indirect_branches () =
  expect_output "indirect jmp through table"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov esi (i 0);
           label "loop";
           li ebx "table";
           mov eax (m ~base:ebx ~index:(esi, 4) ());
           jmp_ind eax;
           label "case0";
           out (i 100);
           inc esi;
           jmp "loop";
           label "case1";
           out (i 200);
           inc esi;
           jmp "loop";
           label "case2";
           hlt;
         ]
       ~data:[ label "table"; word32_lbl [ "case0"; "case1"; "case2" ] ]
       ())
    [ 100; 200 ]

let test_fp () =
  expect_output "fp arithmetic"
    (program ~name:"t"
       ~text:
         [
           label "main";
           li ebx "vals";
           fld f0 (mb ebx);             (* 2.5 *)
           fld f1 (mb ebx ~disp:8);     (* 4.0 *)
           fmul f0 (fr f1);             (* 10.0 *)
           fsqrt f1;                    (* 2.0 *)
           fadd f0 (fr f1);             (* 12.0 *)
           cvtfi eax f0;
           out eax;                     (* 12 *)
           fcmp f0 (fr f1);
           j nbe "bigger";              (* 12 > 2 unsigned-style compare *)
           out (i 0);
           hlt;
           label "bigger";
           out (i 1);
           hlt;
         ]
       ~data:[ label "vals"; float64 [ 2.5; 4.0 ] ]
       ())
    [ 12; 1 ]

let test_in_port () =
  expect_output "input port" ~input:[ 3; 4 ]
    (program ~name:"t"
       ~text:
         [
           label "main";
           in_ eax;
           in_ ebx;
           imul eax ebx;
           out eax;
           hlt;
         ]
       ())
    [ 12 ]

let test_fault_oob () =
  let _, _, outcome =
    run_native
      (program ~name:"t"
         ~text:[ label "main"; mov eax (i (-4)); mov ebx (mb eax); hlt ]
         ())
  in
  match outcome.Vm.Sched.stop with
  | Vm.Interp.Fault _ -> ()
  | s -> Alcotest.failf "expected fault, got %s" (Vm.Interp.stop_to_string s)

(* Addresses near max_int fault like any other out-of-range address:
   [addr + size] must not wrap past the bounds check (an image-loaded
   exit target can hold such an address). *)
let test_fault_near_max_int () =
  let mem = Vm.Memory.create 4096 in
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s: no fault" what
      | exception Vm.Memory.Fault _ -> ())
    [
      ("read_u8", fun () -> ignore (Vm.Memory.read_u8 mem max_int));
      ("read_u32", fun () -> ignore (Vm.Memory.read_u32 mem (max_int - 2)));
      ("write_u8", fun () -> Vm.Memory.write_u8 mem max_int 0);
      ( "blit_bytes_raw",
        fun () ->
          Vm.Memory.blit_bytes_raw mem ~src:(Bytes.make 4 'x') ~src_pos:0
            ~dst:(max_int - 1) ~len:4 );
    ]

(* Write-watching: every store the application makes into a watched
   page is recorded dirty, so self-modification traps; a raw blit (the
   runtime's own code writes, image restores) is not. *)
let test_write_watch () =
  let page = 1 lsl Vm.Memory.page_bits in
  let fresh () =
    let mem = Vm.Memory.create (16 * page) in
    Vm.Memory.watch_code mem ~addr:(4 * page) ~len:16;
    mem
  in
  let dirty_after name write =
    let mem = fresh () in
    write mem (4 * page + 8);
    checkb name true (Vm.Memory.has_dirty mem)
  in
  let mem = fresh () in
  Vm.Memory.blit_bytes_raw mem ~src:(Bytes.make 8 '\x90') ~src_pos:0
    ~dst:(4 * page) ~len:8;
  checkb "blit_bytes_raw leaves no dirty range" false (Vm.Memory.has_dirty mem);
  Vm.Memory.write_u8 mem (6 * page) 1;
  checkb "store to an unwatched page is not dirty" false
    (Vm.Memory.has_dirty mem);
  dirty_after "write_u8 is dirty" (fun mem a -> Vm.Memory.write_u8 mem a 1);
  dirty_after "write_u32 is dirty" (fun mem a -> Vm.Memory.write_u32 mem a 1);
  dirty_after "blit_bytes is dirty" (fun mem a ->
      Vm.Memory.blit_bytes mem ~src:(Bytes.make 4 '\x90') ~src_pos:0 ~dst:a
        ~len:4)

let test_div_by_zero () =
  let _, _, outcome =
    run_native
      (program ~name:"t"
         ~text:[ label "main"; mov eax (i 1); mov ebx (i 0); idiv ebx; hlt ]
         ())
  in
  match outcome.Vm.Sched.stop with
  | Vm.Interp.Fault s ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "mentions div" true (contains s "division")
  | s -> Alcotest.failf "expected fault, got %s" (Vm.Interp.stop_to_string s)

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let cycles_of ?(family = Vm.Cost.Pentium4) prog =
  let _, _, outcome = run_native ~family prog in
  outcome.Vm.Sched.cycles

let count_loop body =
  program ~name:"t"
    ~text:
      ([ label "main"; mov ecx (i 0); label "loop" ]
      @ body
      @ [ inc ecx; cmp ecx (i 1000); j l "loop"; hlt ])
    ()

let test_family_inc_vs_add () =
  (* On P4, inc is slower than add 1; on P3 it is not. *)
  let inc_p4 = cycles_of ~family:Vm.Cost.Pentium4 (count_loop [ inc eax ]) in
  let add_p4 = cycles_of ~family:Vm.Cost.Pentium4 (count_loop [ add eax (i 1) ]) in
  let inc_p3 = cycles_of ~family:Vm.Cost.Pentium3 (count_loop [ inc eax ]) in
  let add_p3 = cycles_of ~family:Vm.Cost.Pentium3 (count_loop [ add eax (i 1) ]) in
  checkb "P4: inc slower than add" true (inc_p4 > add_p4);
  checkb "P3: inc not slower than add" true (inc_p3 <= add_p3)

let test_emulation_overhead () =
  let prog = count_loop [ add eax (i 1) ] in
  let image = Asm.Assemble.assemble prog in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    (Vm.Sched.run ~emulate:false m).Vm.Sched.cycles
  in
  let emu =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    (Vm.Sched.run ~emulate:true m).Vm.Sched.cycles
  in
  checkb "emulation is > 50x native" true (emu > 50 * native)

let test_ras_prediction () =
  (* call/ret pairs should be much cheaper than matched indirect jumps *)
  let call_prog =
    program ~name:"t"
      ~text:
        [
          label "main"; mov ecx (i 0);
          label "loop"; call "f"; inc ecx; cmp ecx (i 1000); j l "loop"; hlt;
          label "f"; ret;
        ]
      ()
  in
  let c = cycles_of call_prog in
  (* the same control flow written as push + pop/jmp_ind (what a code
     cache must do) loses RAS prediction when call sites alternate *)
  let mangled_prog =
    program ~name:"t"
      ~text:
        [
          label "main"; mov ecx (i 0);
          label "loop";
          push_lbl "ret1"; jmp "f";
          label "ret1";
          push_lbl "ret2"; jmp "f";
          label "ret2";
          inc ecx; cmp ecx (i 500); j l "loop"; hlt;
          (* f "returns" via pop + indirect jump: alternating targets
             defeat the one-entry BTB *)
          label "f"; pop eax; jmp_ind eax;
        ]
      ()
  in
  let c_mangled = cycles_of mangled_prog in
  (* both loops perform 1000 call/returns *)
  checkb "RAS-predicted returns beat indirect jumps" true (c < c_mangled)

(* ------------------------------------------------------------------ *)
(* Threads and signals                                                *)
(* ------------------------------------------------------------------ *)

let test_two_threads () =
  let prog =
    program ~name:"t"
      ~text:
        [
          label "main";
          label "spin";  (* wait for worker to write flag *)
          ld eax "flag";
          test eax eax;
          j z "spin";
          out (i 7);
          hlt;
          label "worker";
          mov eax (i 1);
          st "flag" eax;
          hlt;
        ]
      ~data:[ label "flag"; word32 [ 0 ] ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "worker");
  let outcome = Vm.Sched.run ~quantum:1000 ~max_cycles:10_000_000 ~emulate:false m in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "stopped with %s" (Vm.Interp.stop_to_string s));
  check_ilist "thread handoff" [ 7 ] (Vm.Machine.output m)

let test_signal_native () =
  let prog =
    program ~name:"t"
      ~text:
        [
          label "main";
          mov ecx (i 0);
          label "loop";
          inc ecx;
          cmp ecx (i 100000);
          j l "loop";
          out ecx;
          hlt;
          label "handler";
          out (i 555);
          ret;  (* return to interrupted pc (pushed by delivery) *)
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  Vm.Machine.schedule_signal m ~at:500 ~tid:0
    ~handler:(Asm.Image.label image "handler");
  let outcome = Vm.Sched.run ~emulate:false m in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "stopped with %s" (Vm.Interp.stop_to_string s));
  check_ilist "signal ran then program finished" [ 555; 100000 ]
    (Vm.Machine.output m)

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

let test_branch_relaxation () =
  (* a branch over >127 bytes of code must use the rel32 form; one over
     a few bytes must use rel8.  Both must still run correctly. *)
  let far_body = List.init 60 (fun _ -> add eax (i 1000)) (* 6 bytes each *) in
  expect_output "relaxed branches"
    (program ~name:"t"
       ~text:
         ([ label "main"; mov eax (i 0); cmp eax (i 1); j z "far" ]
         @ far_body
         @ [ label "far"; out eax; hlt ])
       ())
    [ 60000 ]

let test_duplicate_label () =
  let prog =
    program ~name:"t" ~text:[ label "main"; label "main"; hlt ] ()
  in
  checkb "duplicate label rejected" true
    (match Asm.Assemble.assemble prog with
     | exception Asm.Ast.Duplicate_label "main" -> true
     | exception _ -> false
     | _ -> false)

let test_unknown_label () =
  let prog = program ~name:"t" ~text:[ label "main"; jmp "nowhere" ] () in
  checkb "unknown label rejected" true
    (match Asm.Assemble.assemble prog with
     | exception _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vm"
    [
      ( "semantics",
        [
          Alcotest.test_case "mov/out" `Quick test_mov_out;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "signed arith" `Quick test_signed_arith;
          Alcotest.test_case "carry/overflow flags" `Quick test_flags_cf_of;
          Alcotest.test_case "inc preserves CF" `Quick test_inc_preserves_cf;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "memory ops" `Quick test_memory_ops;
          Alcotest.test_case "call/ret" `Quick test_stack_and_calls;
          Alcotest.test_case "indirect branches" `Quick test_indirect_branches;
          Alcotest.test_case "floating point" `Quick test_fp;
          Alcotest.test_case "input port" `Quick test_in_port;
          Alcotest.test_case "oob fault" `Quick test_fault_oob;
          Alcotest.test_case "fault near max_int" `Quick test_fault_near_max_int;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "write watch" `Quick test_write_watch;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "inc vs add by family" `Quick test_family_inc_vs_add;
          Alcotest.test_case "emulation overhead" `Quick test_emulation_overhead;
          Alcotest.test_case "RAS prediction" `Quick test_ras_prediction;
        ] );
      ( "threads+signals",
        [
          Alcotest.test_case "two threads" `Quick test_two_threads;
          Alcotest.test_case "native signal" `Quick test_signal_native;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "branch relaxation" `Quick test_branch_relaxation;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "unknown label" `Quick test_unknown_label;
        ] );
    ]
