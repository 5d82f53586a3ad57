(** Differential testing on random programs: the dynamic-optimizer
    analogue of compiler fuzzing.

    A generator produces arbitrary {e terminating, fault-free} programs
    (random straight-line arithmetic/memory/FP code in a forward-branch
    block structure, wrapped in a counted loop, sprinkled with calls
    and table-driven indirect jumps).  Every program must produce
    bit-identical output natively and under the code cache in several
    configurations — including with all four optimizations attached and
    a low trace threshold so traces, inline checks, and rewrites all
    trigger within the short run. *)

open Isa
open Asm.Dsl

(* Register discipline:
     eax/ecx/edx/ebp — free for random code
     ebx — scratch-memory base (never clobbered)
     esi — structural scratch (indirect-jump computation)
     edi — loop counter
     esp — stack pointer *)
let pool = [ eax; ecx; edx; ebp ]

type rstate = { mutable seed : int }

let rnd st n =
  st.seed <- (1103515245 * st.seed) + 12345;
  (st.seed lsr 16) mod n

let pick st l = List.nth l (rnd st (List.length l))

let rand_reg st = pick st pool
let rand_freg st = pick st [ f0; f1; f2; f3; f4; f5; f6; f7 ]

(* scratch memory: 64 int words then 32 float slots, all based at ebx *)
let rand_int_slot st = mb ebx ~disp:(4 * rnd st 64)
let rand_fp_slot st = mb ebx ~disp:(256 + (8 * rnd st 32))

let rand_imm st = rnd st 65536 - 32768

(* one random non-CTI instruction *)
let rand_instr st =
  match rnd st 22 with
  | 0 -> mov (rand_reg st) (i (rand_imm st))
  | 1 -> mov (rand_reg st) (rand_reg st)
  | 2 -> mov (rand_reg st) (rand_int_slot st)
  | 3 -> mov (rand_int_slot st) (rand_reg st)
  | 4 -> add (rand_reg st) (rand_reg st)
  | 5 -> sub (rand_reg st) (i (rand_imm st))
  | 6 -> and_ (rand_reg st) (i (rand_imm st))
  | 7 -> or_ (rand_reg st) (rand_reg st)
  | 8 -> xor (rand_reg st) (rand_int_slot st)
  | 9 -> inc (rand_reg st)
  | 10 -> dec (rand_reg st)
  | 11 -> neg (rand_reg st)
  | 12 -> not_ (rand_reg st)
  | 13 -> shl (rand_reg st) (i (rnd st 31))
  | 14 -> sar (rand_reg st) (i (rnd st 31))
  | 15 -> imul (rand_reg st) (i (rand_imm st))
  | 16 -> movzx8 (rand_reg st) (rand_int_slot st)
  | 17 -> lea (rand_reg st) (m ~base:ebx ~index:(rand_reg st, pick st [ 1; 2; 4 ]) ())
  | 18 -> fld (rand_freg st) (rand_fp_slot st)
  | 19 -> fst_ (rand_fp_slot st) (rand_freg st)
  | 20 -> fadd (rand_freg st) (fr (rand_freg st))
  | 21 -> fmul (rand_freg st) (rand_fp_slot st)
  | _ -> nop

(* a leaf function the blocks may call *)
let leaf k st =
  [ label (Printf.sprintf "leaf%d" k) ]
  @ List.init (1 + rnd st 4) (fun _ -> rand_instr st)
  @ [ ret ]

let n_leaves = 3

(* Generate blocks and collect indirect-jump tables separately. *)
let gen_program seed : Asm.Ast.program =
  let st = { seed = (seed * 2654435761) lxor 0x9E3779B9 } in
  let st = { seed = st.seed land 0x3FFFFFFF } in
  let n_blocks = 4 + rnd st 6 in
  let tables = ref [] in
  let blocks =
    List.init n_blocks (fun idx ->
        let this = Printf.sprintf "blk%d" idx in
        let next = Printf.sprintf "blk%d" (idx + 1) in
        let straight = List.init (3 + rnd st 6) (fun _ -> rand_instr st) in
        let forward_target () =
          Printf.sprintf "blk%d" (idx + 1 + rnd st (n_blocks - idx))
        in
        let construct =
          match rnd st 6 with
          | 0 ->
              [
                cmp (rand_reg st) (i (rand_imm st));
                j (pick st [ z; nz; l; nl; b; nbe; s; le ]) (forward_target ());
                jmp next;
              ]
          | 1 -> [ call (Printf.sprintf "leaf%d" (rnd st n_leaves)); jmp next ]
          | 2 -> [ push (rand_reg st); rand_instr st; pop (rand_reg st); jmp next ]
          | 3 ->
              let t1 = forward_target () and t2 = forward_target () in
              let tbl = Printf.sprintf "tbl%d" idx in
              tables := (tbl, t1, t2) :: !tables;
              [
                mov esi (rand_reg st);
                and_ esi (i 1);
                ins (fun env ->
                    Insn.mk_mov (Operand.Reg Reg.Esi)
                      (Operand.mem ~index:(Reg.Esi, 4) ~disp:(env tbl) ()));
                jmp_ind esi;
              ]
          | _ -> [ jmp next ]
        in
        [ label this ] @ straight @ construct)
  in
  let loop_count = 8 + rnd st 20 in
  let prologue =
    [
      label "main";
      li ebx "scratch";
      mov eax (i (rand_imm st));
      mov ecx (i (rand_imm st));
      mov edx (i (rand_imm st));
      mov ebp (i (rand_imm st));
      mov edi (i loop_count);
      label "blk_start";
    ]
  in
  let epilogue =
    [
      label (Printf.sprintf "blk%d" n_blocks);
      dec edi;
      j nz "blk_start";
      (* output: the register pool, some scratch words, an fp slot *)
      out eax; out ecx; out edx; out ebp;
      mov eax (mb ebx); out eax;
      mov eax (mb ebx ~disp:64); out eax;
      mov eax (mb ebx ~disp:128); out eax;
      fld f0 (mb ebx ~disp:256);
      cvtfi eax f0;
      out eax;
      hlt;
    ]
  in
  let leaves = List.concat (List.init n_leaves (fun k -> leaf k st)) in
  let data =
    [ label "scratch";
      word32 (List.init 64 (fun k -> (k * 747796405) land 0xFFFF));
      float64 (List.init 32 (fun k -> float_of_int (k * 37) /. 8.0)) ]
    @ List.concat_map
        (fun (tbl, t1, t2) -> [ label tbl; word32_lbl [ t1; t2 ] ])
        !tables
  in
  program ~name:"random" ~entry:"main"
    ~text:(prologue @ List.concat blocks @ epilogue @ leaves)
    ~data ()

(* ------------------------------------------------------------------ *)

let run_native prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let o = Vm.Sched.run ~emulate:false m in
  (Vm.Machine.output m, o.Vm.Sched.stop = Vm.Interp.Halted)

let run_rio ?(opts = Rio.Options.default) ?(client = Rio.Types.null_client) prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let rt = Rio.create ~opts ~client m in
  let o = Rio.run rt in
  (* the cache's link state is checked after every run, not just output *)
  (Vm.Machine.output m, o.Rio.reason = Rio.All_exited,
   Rio.Emit.For_testing.check_invariants rt)

(* low threshold so short random runs still exercise traces and
   adaptive rewrites *)
let hot_opts = { Rio.Options.default with trace_threshold = 4 }

let configs seed =
  ignore seed;
  [
    ("bb-only",
     (fun p -> run_rio p
         ~opts:{ hot_opts with link_direct = false; link_indirect = false;
                 enable_traces = false }));
    ("traces", fun p -> run_rio ~opts:hot_opts p);
    ("combined", fun p -> run_rio ~opts:hot_opts ~client:(Clients.Compose.all_four ()) p);
    ( "five-opts",
      fun p ->
        run_rio ~opts:hot_opts
          ~client:
            (Clients.Compose.compose
               [ Clients.Compose.all_four (); Stdlib.fst (Clients.Redundant_cmp.make ()) ])
          p );
  ]

let prop_differential =
  QCheck2.Test.make ~name:"random programs: native = cached (all configs)"
    ~count:60 ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let prog = gen_program seed in
      let n_out, n_ok = run_native prog in
      if not n_ok then QCheck2.Test.fail_reportf "seed %d: native did not halt" seed
      else begin
        List.iter
          (fun (cname, run) ->
            let out, ok, inv = run prog in
            if not ok then
              QCheck2.Test.fail_reportf "seed %d: %s did not complete" seed cname;
            if out <> n_out then
              QCheck2.Test.fail_reportf "seed %d: %s output mismatch" seed cname;
            match inv with
            | Ok () -> ()
            | Error e ->
                QCheck2.Test.fail_reportf "seed %d: %s link invariants: %s" seed
                  cname e)
          (configs seed);
        true
      end)

let debug_seed () =
  match Sys.getenv_opt "RANDOM_SEED" with
  | None -> false
  | Some sd ->
      let seed = int_of_string sd in
      let prog = gen_program seed in
      let n_out, n_ok = run_native prog in
      Printf.printf "native ok=%b out=[%s]\n" n_ok
        (String.concat ";" (List.map string_of_int n_out));
      List.iter
        (fun (name, client) ->
          let out, ok, _ = run_rio ~opts:hot_opts ~client prog in
          Printf.printf "%-10s ok=%b eq=%b out=[%s]\n" name ok (out = n_out)
            (String.concat ";" (List.map string_of_int out)))
        [
          ("null", Rio.Types.null_client);
          ("rlr", Clients.Rlr.make ());
          ("strength", Clients.Strength.make ~on_bb:false);
          ("ibdisp", Clients.Ibdispatch.make ());
          ("ctraces", Stdlib.fst (Clients.Ctraces.make ()));
          ("combined", Clients.Compose.all_four ());
        ];
      true

let () =
  if debug_seed () then exit 0;
  Alcotest.run "random-differential"
    [ ("property", [ QCheck_alcotest.to_alcotest prop_differential ]) ]
