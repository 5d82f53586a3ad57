(** Differential tests for the trace optimizer (DESIGN.md §6.4).

    The core property: running a safe straight-line program through the
    VM gives the same final machine state — every GPR, every FP
    register, the arithmetic flags, the output stream and both scratch
    memory regions — whether or not the [-O] passes rewrote it first,
    and the passes never increase the instruction count.  Directed
    units pin the conservatism boundaries (end of list, exit CTIs,
    undecoded bundles) and prove each structural peephole can fire. *)

open Isa

let check = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Harness: encode an IL, execute it, capture the full final state    *)
(* ------------------------------------------------------------------ *)

let code_base = 0x1000
let ebp_base = 0x20000
let esi_base = 0x30000
let stack_top = 0x50000

type final = {
  f_regs : int array;
  f_fregs : int64 array;
  f_flags : int;
  f_out : int list;
  f_ebp_mem : Bytes.t;
  f_esi_mem : Bytes.t;
  f_stack_mem : Bytes.t;
}

let il_of_insns (insns : Insn.t list) : Rio.Instrlist.t =
  let il = Rio.Instrlist.create () in
  List.iter (fun i -> Rio.Instrlist.append il (Rio.Create.of_insn i)) insns;
  il

(* Encode the IL followed by a terminating [hlt].  The [hlt] is outside
   the optimized region on purpose: the passes must already be fully
   conservative at the bare end of the list. *)
let encode_il (il : Rio.Instrlist.t) : Bytes.t =
  let buf = Buffer.create 256 in
  Rio.Instrlist.iter il (fun i ->
      Buffer.add_bytes buf
        (Rio.Instr.encode ~pc:(code_base + Buffer.length buf) i));
  Buffer.add_bytes buf
    (Rio.Instr.encode
       ~pc:(code_base + Buffer.length buf)
       (Rio.Create.of_insn (Insn.mk_hlt ())));
  Buffer.to_bytes buf

(* [ebp] is where the ebp scratch region starts: [ebp_base], far from
   the stack, or [ebp_at_stack_top], where its last slots are the ones
   the first pushes overwrite. *)
let ebp_at_stack_top = stack_top - (8 * Gen.safe_slots)

let run_code ?(ebp = ebp_base) (code : Bytes.t) : final =
  let m = Vm.Machine.create ~mem_size:(1 lsl 20) () in
  let mem = Vm.Machine.mem m in
  Vm.Memory.blit_bytes mem ~src:code ~src_pos:0 ~dst:code_base
    ~len:(Bytes.length code);
  (* non-trivial scratch data so loads see varied values *)
  for k = 0 to Gen.safe_slots - 1 do
    Vm.Memory.write_u32 mem (ebp + (8 * k)) ((k + 1) * 0x01010101);
    Vm.Memory.write_u32 mem (esi_base + (8 * k)) ((k + 3) * 0x00f0f0f1)
  done;
  let t = Vm.Machine.add_thread m ~entry:code_base ~stack_top in
  Vm.Machine.set_reg t Reg.Eax 0x1234;
  Vm.Machine.set_reg t Reg.Ebx 7;
  Vm.Machine.set_reg t Reg.Ecx 3;
  Vm.Machine.set_reg t Reg.Edx (-5);
  Vm.Machine.set_reg t Reg.Edi 0x55AA;
  Vm.Machine.set_reg t Reg.Ebp ebp;
  Vm.Machine.set_reg t Reg.Esi esi_base;
  Array.iteri
    (fun k f -> Vm.Machine.set_freg t f ((float_of_int k *. 1.5) -. 2.25))
    (Array.of_list Reg.F.all);
  (match Vm.Interp.run m t ~budget:100_000 ~emulate:true with
  | Vm.Interp.Halted -> ()
  | stop ->
      Alcotest.failf "safe program stopped with %s"
        (Vm.Interp.stop_to_string stop));
  {
    f_regs = Array.map (Vm.Machine.get_reg t) (Array.of_list Reg.all);
    f_fregs =
      Array.map
        (fun f -> Int64.bits_of_float (Vm.Machine.get_freg t f))
        (Array.of_list Reg.F.all);
    f_flags = t.Vm.Machine.eflags;
    f_out = Vm.Machine.output m;
    f_ebp_mem = Vm.Memory.read_bytes mem ~addr:ebp ~len:(8 * Gen.safe_slots);
    f_esi_mem = Vm.Memory.read_bytes mem ~addr:esi_base ~len:(8 * Gen.safe_slots);
    f_stack_mem = Vm.Memory.read_bytes mem ~addr:(stack_top - 256) ~len:512;
  }

let diff_final (a : final) (b : final) : string option =
  let probs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> probs := s :: !probs) fmt in
  List.iteri
    (fun k r ->
      if a.f_regs.(k) <> b.f_regs.(k) then
        note "%s: 0x%x vs 0x%x" (Reg.name r) a.f_regs.(k) b.f_regs.(k))
    Reg.all;
  Array.iteri
    (fun k x ->
      if x <> b.f_fregs.(k) then note "f%d: %Lx vs %Lx" k x b.f_fregs.(k))
    a.f_fregs;
  if a.f_flags <> b.f_flags then
    note "eflags: 0x%x vs 0x%x" a.f_flags b.f_flags;
  if a.f_out <> b.f_out then
    note "output: [%s] vs [%s]"
      (String.concat ";" (List.map string_of_int a.f_out))
      (String.concat ";" (List.map string_of_int b.f_out));
  if not (Bytes.equal a.f_ebp_mem b.f_ebp_mem) then note "ebp scratch differs";
  if not (Bytes.equal a.f_esi_mem b.f_esi_mem) then note "esi scratch differs";
  if not (Bytes.equal a.f_stack_mem b.f_stack_mem) then note "stack window differs";
  match !probs with [] -> None | l -> Some (String.concat "; " l)

(* ------------------------------------------------------------------ *)
(* The differential property                                          *)
(* ------------------------------------------------------------------ *)

let optimize_at level (il : Rio.Instrlist.t) : Rio.Stats.t =
  let c = Rio.Stats.create () in
  Rio.Opt.run_passes ~family:Vm.Cost.Pentium4 c
    (Rio.Options.passes_at_level level)
    il;
  c

let prop_differential ?(ebp = ebp_base) ?(where = "") ?(gen = Gen.safe_il)
    level =
  QCheck2.Test.make ~count:300
    ~name:(Printf.sprintf "-O%d preserves final machine state%s" level where)
    ~print:Gen.print_il gen
    (fun insns ->
      let base = il_of_insns insns in
      let opt = il_of_insns insns in
      let _c = optimize_at level opt in
      let n_before = List.length insns in
      let n_after = Rio.Instrlist.length opt in
      if n_after > n_before then
        QCheck2.Test.fail_reportf "instruction count grew: %d -> %d" n_before
          n_after
      else
        let s0 = run_code ~ebp (encode_il base) in
        let s1 = run_code ~ebp (encode_il opt) in
        match diff_final s0 s1 with
        | None -> true
        | Some d -> QCheck2.Test.fail_reportf "state diverged: %s" d)

(* With the ebp region at the stack top, its last words are the ones
   the first pushes overwrite.  Safe programs reach them rarely, so
   this generator mixes in pushes and word loads and stores of the
   region's last 16 bytes, each a push's worth apart. *)
let near_stack_top_il : Insn.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let top =
    map
      (fun k ->
        Operand.Mem
          { Operand.base = Some Reg.Ebp; index = None;
            disp = (8 * Gen.safe_slots) - (4 * k) })
      (int_range 1 4)
  in
  let near =
    oneof
      [
        (let* r = Gen.safe_wreg_op and* m = top in return (Insn.mk_mov r m));
        (let* m = top and* r = Gen.safe_rreg_op in return (Insn.mk_mov m r));
        (let* s = Gen.safe_src in return (Insn.mk_push s));
        return (Insn.mk_pushf ());
      ]
  in
  list_size (int_range 1 30) (frequency [ (2, Gen.safe_insn); (1, near) ])

(* Idempotence: a second pipeline run over already-optimized IL must
   not change the program's behaviour either (re-optimization feeds
   optimizer output back through the same passes). *)
let prop_reopt_stable =
  QCheck2.Test.make ~count:150 ~name:"second -O2 run stays state-preserving"
    ~print:Gen.print_il Gen.safe_il
    (fun insns ->
      let base = il_of_insns insns in
      let opt = il_of_insns insns in
      let _ = optimize_at 2 opt in
      let once = Rio.Instrlist.length opt in
      let _ = optimize_at 2 opt in
      if Rio.Instrlist.length opt > once then
        QCheck2.Test.fail_reportf "second run grew the IL"
      else
        let s0 = run_code (encode_il base) in
        let s1 = run_code (encode_il opt) in
        match diff_final s0 s1 with
        | None -> true
        | Some d -> QCheck2.Test.fail_reportf "state diverged after reopt: %s" d)

(* ------------------------------------------------------------------ *)
(* Directed units: conservatism boundaries                            *)
(* ------------------------------------------------------------------ *)

let mov_imm r k = Insn.mk_mov (Operand.Reg r) (Operand.Imm k)

(* A register written at the very end of the IL is live-out: nothing
   after it proves the write dead, so it must survive. *)
let test_end_of_list_conservative () =
  let il = il_of_insns [ mov_imm Reg.Eax 5 ] in
  let c = Rio.Stats.create () in
  Rio.Opt.For_testing.eliminate_dead c il;
  check "trailing write kept" 1 (Rio.Instrlist.length il);
  check "no removals" 0 c.Rio.Stats.opt_dead_removed;
  (* ... while the same write is removed when provably overwritten *)
  let il2 = il_of_insns [ mov_imm Reg.Eax 5; mov_imm Reg.Eax 6 ] in
  let c2 = Rio.Stats.create () in
  Rio.Opt.For_testing.eliminate_dead c2 il2;
  check "overwritten write removed" 1 (Rio.Instrlist.length il2);
  check "one removal" 1 c2.Rio.Stats.opt_dead_removed

(* An undecoded bundle may read anything: every fact must die at its
   boundary, so the overwrite on the far side proves nothing. *)
let test_bundle_boundary_conservative () =
  let nop_raw = Isa.Encode.encode_exn ~pc:0 (Insn.mk_nop ()) in
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.of_insn (mov_imm Reg.Eax 5));
  Rio.Instrlist.append il (Rio.Instr.of_bundle ~addr:0x2000 nop_raw);
  Rio.Instrlist.append il (Rio.Create.of_insn (mov_imm Reg.Eax 6));
  let c = Rio.Stats.create () in
  Rio.Opt.For_testing.eliminate_dead c il;
  check "bundle blocks dead-write removal" 3 (Rio.Instrlist.length il);
  check "no removals across bundle" 0 c.Rio.Stats.opt_dead_removed

(* Exit CTIs are full liveness boundaries: an inc whose carry flag is
   only clobbered on the far side of a conditional exit must not be
   converted — the exit path could observe CF. *)
let test_exit_cti_conservative () =
  let inc_eax = Insn.mk_inc (Operand.Reg Reg.Eax) in
  let kill_flags = Insn.mk_add (Operand.Reg Reg.Ebx) (Operand.Imm 1) in
  (* straight line: the add rewrites CF before anything reads it *)
  let il_ok = il_of_insns [ inc_eax; kill_flags ] in
  let c_ok = Rio.Stats.create () in
  Rio.Opt.strength_reduce ~family:Vm.Cost.Pentium4 c_ok il_ok;
  check "inc converted on straight line" 1 c_ok.Rio.Stats.opt_strength_reduced;
  (* same add, but behind a conditional exit *)
  let il_cti =
    il_of_insns [ inc_eax; Insn.mk_jcc Cond.NZ 0x4000; kill_flags ]
  in
  let c_cti = Rio.Stats.create () in
  Rio.Opt.strength_reduce ~family:Vm.Cost.Pentium4 c_cti il_cti;
  check "inc kept before exit CTI" 0 c_cti.Rio.Stats.opt_strength_reduced;
  (* and the whole transformation is gated on the processor family *)
  let il_p3 = il_of_insns [ inc_eax; kill_flags ] in
  let c_p3 = Rio.Stats.create () in
  Rio.Opt.strength_reduce ~family:Vm.Cost.Pentium3 c_p3 il_p3;
  check "inc kept on P3" 0 c_p3.Rio.Stats.opt_strength_reduced

(* A push writes [esp-4], and a slot addressed off another base may be
   that very word: here [ebp] is a copy of [esp].  The reload after the
   push must read what the push wrote, not the register stored before
   it. *)
let push_alias_insns =
  let slot = { Operand.base = Some Reg.Ebp; index = None; disp = -4 } in
  [
    Insn.mk_mov (Operand.Reg Reg.Ebp) (Operand.Reg Reg.Esp);
    Insn.mk_mov (Operand.Mem slot) (Operand.Reg Reg.Ecx);
    Insn.mk_push (Operand.Reg Reg.Edx);
    Insn.mk_mov (Operand.Reg Reg.Eax) (Operand.Mem slot);
    Insn.mk_out (Operand.Reg Reg.Eax);
  ]

let test_push_kills_other_base_facts () =
  let native = run_code (encode_il (il_of_insns push_alias_insns)) in
  Alcotest.(check (list int)) "native reads the pushed edx" [ 0xFFFF_FFFB ]
    native.f_out;
  let same what (il : Rio.Instrlist.t) =
    match diff_final native (run_code (encode_il il)) with
    | None -> ()
    | Some d -> Alcotest.failf "%s: %s" what d
  in
  List.iter
    (fun consts ->
      let il = il_of_insns push_alias_insns in
      Rio.Opt.remove_redundant_loads ~consts (Rio.Stats.create ()) il;
      same (Printf.sprintf "load removal, consts %b" consts) il)
    [ true; false ];
  let il = il_of_insns push_alias_insns in
  ignore (optimize_at 2 il);
  same "-O2" il

(* A pop moves esp (an implicit destination), so a fact that esp holds
   a slot's value dies with it: the reload after the pop must not read
   esp. *)
let test_pop_kills_esp_holder () =
  let slot = { Operand.base = Some Reg.Ebp; index = None; disp = 8 } in
  let insns =
    [
      mov_imm Reg.Ecx (stack_top - 64);
      Insn.mk_mov (Operand.Mem slot) (Operand.Reg Reg.Ecx);
      Insn.mk_mov (Operand.Reg Reg.Esp) (Operand.Mem slot);
      Insn.mk_pop (Operand.Reg Reg.Eax);
      Insn.mk_mov (Operand.Reg Reg.Edx) (Operand.Mem slot);
      Insn.mk_out (Operand.Reg Reg.Edx);
    ]
  in
  let native = run_code (encode_il (il_of_insns insns)) in
  Alcotest.(check (list int)) "native reads the slot" [ stack_top - 64 ]
    native.f_out;
  List.iter
    (fun consts ->
      let il = il_of_insns insns in
      Rio.Opt.remove_redundant_loads ~consts (Rio.Stats.create ()) il;
      match diff_final native (run_code (encode_il il)) with
      | None -> ()
      | Some d -> Alcotest.failf "load removal, consts %b: %s" consts d)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Directed units: structural peepholes can fire                      *)
(* ------------------------------------------------------------------ *)

let test_exit_check_peephole () =
  let slot = { Operand.base = Some Reg.Ebp; index = None; disp = 64 } in
  let il =
    il_of_insns
      [
        Insn.mk_mov (Operand.Mem slot) (Operand.Reg Reg.Eax);
        Insn.mk_cmp (Operand.Mem slot) (Operand.Imm 7);
      ]
  in
  let c = Rio.Stats.create () in
  Rio.Opt.For_testing.simplify_exit_checks c il;
  check "check simplified" 1 c.Rio.Stats.opt_checks_simplified;
  check "store kept" 2 (Rio.Instrlist.length il);
  (match Rio.Instrlist.last il with
  | Some i ->
      let insn = Rio.Instr.get_insn i in
      Alcotest.(check bool)
        "cmp now reads the register" true
        (Operand.equal insn.Insn.srcs.(0) (Operand.Reg Reg.Eax))
  | None -> Alcotest.fail "empty IL");
  (* jcc T; jmp T — the conditional is unobservable *)
  let il2 = il_of_insns [ Insn.mk_jcc Cond.NZ 0x4000; Insn.mk_jmp 0x4000 ] in
  let c2 = Rio.Stats.create () in
  Rio.Opt.For_testing.simplify_exit_checks c2 il2;
  check "same-target jcc removed" 1 (Rio.Instrlist.length il2)

(* Build the trace builder's flag-save bracket by hand and show the
   elision actually fires once the flags are provably dead. *)
let flag_bracket ~tail =
  let fslot = { Operand.base = Some Reg.Ebp; index = None; disp = 120 } in
  let stub = Rio.Instrlist.create () in
  Rio.Instrlist.append stub (Rio.Create.push (Operand.Mem fslot));
  Rio.Instrlist.append stub (Rio.Create.popf ());
  let jcc = Rio.Create.jcc Cond.NZ 0x4000 in
  Rio.Instr.set_note jcc
    (Rio.Instr.Any_note (Rio.Types.Stub_note (stub, false)));
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.pushf ());
  Rio.Instrlist.append il (Rio.Create.pop (Operand.Mem fslot));
  Rio.Instrlist.append il
    (Rio.Create.of_insn
       (Insn.mk_cmp (Operand.Reg Reg.Ebx) (Operand.Imm 42)));
  Rio.Instrlist.append il jcc;
  Rio.Instrlist.append il (Rio.Create.push (Operand.Mem fslot));
  Rio.Instrlist.append il (Rio.Create.popf ());
  List.iter (fun i -> Rio.Instrlist.append il (Rio.Create.of_insn i)) tail;
  (il, jcc)

let test_flag_elide_fires () =
  (* the trailing cmp rewrites every arithmetic flag before any read,
     so the restored flags are dead and the bracket must go *)
  let dead_tail = [ Insn.mk_cmp (Operand.Reg Reg.Eax) (Operand.Imm 0) ] in
  let il, jcc = flag_bracket ~tail:dead_tail in
  let before = Rio.Instrlist.length il in
  let c = Rio.Stats.create () in
  Rio.Opt.For_testing.elide_flag_saves c il;
  check "bracket elided" 1 c.Rio.Stats.opt_flag_saves_elided;
  check "four instructions gone" (before - 4) (Rio.Instrlist.length il);
  Alcotest.(check bool)
    "custom stub note cleared" true
    (Rio.Instr.get_note jcc = Rio.Instr.No_note);
  (* without the flag-killing tail the flags are live-out: keep it *)
  let il2, _ = flag_bracket ~tail:[] in
  let before2 = Rio.Instrlist.length il2 in
  let c2 = Rio.Stats.create () in
  Rio.Opt.For_testing.elide_flag_saves c2 il2;
  check "live flags keep the bracket" before2 (Rio.Instrlist.length il2);
  check "no elisions" 0 c2.Rio.Stats.opt_flag_saves_elided

(* ------------------------------------------------------------------ *)
(* Speculation and mid-trace deoptimization (DESIGN.md §6.7)          *)
(* ------------------------------------------------------------------ *)

(* The deopt property, at the IL level: compile a guard exactly the
   way the trace builder does — flags-save bracket, cmp against the
   assumed value, jne to a recovery block that restores the flags and
   runs the *unspecialized* suffix — and check that whichever way the
   guard goes, the final machine state is identical to the program
   that never speculated.  The guard position, the tested register and
   whether the assumption holds at runtime are all generated. *)

let spec_code_base = code_base      (* prefix + guard + specialized tail *)
let recover_base = 0x5000           (* deopt target: flags + plain suffix *)

(* the bracket's spill slot lives just past the compared scratch
   window, so saving flags there never shows up as a state diff *)
let guard_fslot =
  { Operand.base = Some Reg.Ebp; index = None; disp = 8 * Gen.safe_slots }

let encode_il_at (base : int) (il : Rio.Instrlist.t) : Bytes.t =
  let buf = Buffer.create 256 in
  Rio.Instrlist.iter il (fun i ->
      Buffer.add_bytes buf (Rio.Instr.encode ~pc:(base + Buffer.length buf) i));
  Buffer.add_bytes buf
    (Rio.Instr.encode
       ~pc:(base + Buffer.length buf)
       (Rio.Create.of_insn (Insn.mk_hlt ())));
  Buffer.to_bytes buf

let run_segments (segs : (int * Bytes.t) list) : final =
  let m = Vm.Machine.create ~mem_size:(1 lsl 20) () in
  let mem = Vm.Machine.mem m in
  List.iter
    (fun (base, code) ->
      Vm.Memory.blit_bytes mem ~src:code ~src_pos:0 ~dst:base
        ~len:(Bytes.length code))
    segs;
  for k = 0 to Gen.safe_slots - 1 do
    Vm.Memory.write_u32 mem (ebp_base + (8 * k)) ((k + 1) * 0x01010101);
    Vm.Memory.write_u32 mem (esi_base + (8 * k)) ((k + 3) * 0x00f0f0f1)
  done;
  let t = Vm.Machine.add_thread m ~entry:code_base ~stack_top in
  Vm.Machine.set_reg t Reg.Eax 0x1234;
  Vm.Machine.set_reg t Reg.Ebx 7;
  Vm.Machine.set_reg t Reg.Ecx 3;
  Vm.Machine.set_reg t Reg.Edx (-5);
  Vm.Machine.set_reg t Reg.Edi 0x55AA;
  Vm.Machine.set_reg t Reg.Ebp ebp_base;
  Vm.Machine.set_reg t Reg.Esi esi_base;
  Array.iteri
    (fun k f -> Vm.Machine.set_freg t f ((float_of_int k *. 1.5) -. 2.25))
    (Array.of_list Reg.F.all);
  (match Vm.Interp.run m t ~budget:100_000 ~emulate:true with
  | Vm.Interp.Halted -> ()
  | stop ->
      Alcotest.failf "guarded program stopped with %s"
        (Vm.Interp.stop_to_string stop));
  {
    f_regs = Array.map (Vm.Machine.get_reg t) (Array.of_list Reg.all);
    f_fregs =
      Array.map
        (fun f -> Int64.bits_of_float (Vm.Machine.get_freg t f))
        (Array.of_list Reg.F.all);
    f_flags = t.Vm.Machine.eflags;
    f_out = Vm.Machine.output m;
    f_ebp_mem = Vm.Memory.read_bytes mem ~addr:ebp_base ~len:(8 * Gen.safe_slots);
    f_esi_mem = Vm.Memory.read_bytes mem ~addr:esi_base ~len:(8 * Gen.safe_slots);
    f_stack_mem = Vm.Memory.read_bytes mem ~addr:(stack_top - 256) ~len:512;
  }

(* Bytes of the stack window strictly below the final stack pointer
   are dead — the bracket's transient pushf lives there in the
   speculated run but not the baseline.  Architected state is
   everything else. *)
let mask_dead_stack (f : final) : final =
  let esp_idx =
    let rec go k = function
      | [] -> assert false
      | r :: _ when Reg.equal r Reg.Esp -> k
      | _ :: tl -> go (k + 1) tl
    in
    go 0 Reg.all
  in
  let esp = f.f_regs.(esp_idx) in
  let base = stack_top - 256 in
  let live = Bytes.copy f.f_stack_mem in
  for k = 0 to Bytes.length live - 1 do
    if base + k < esp then Bytes.set live k '\x00'
  done;
  { f with f_stack_mem = live }

let reg_value_after (prefix : Insn.t list) (r : Reg.t) : int =
  let f = run_segments [ (code_base, encode_il_at code_base (il_of_insns prefix)) ] in
  let rec idx k = function
    | [] -> assert false
    | r' :: _ when Reg.equal r' r -> k
    | _ :: tl -> idx (k + 1) tl
  in
  f.f_regs.(idx 0 Reg.all)

let prop_guard_deopt =
  QCheck2.Test.make ~count:200
    ~name:"a guard firing anywhere deopts to the never-speculated state"
    ~print:Gen.print_guard_case Gen.guard_case
    (fun gc ->
      let open Gen in
      (* the assumed value: wrong when the guard should fire *)
      let v = reg_value_after gc.gc_prefix gc.gc_reg in
      let assumed = if gc.gc_fire then v lxor 1 else v in
      (* specialized tail: the assumption injected as a constant, then
         the ordinary -O2 pipeline over it — exactly what speculation
         buys the optimizer *)
      let spec_tail = il_of_insns (Insn.mk_mov (Operand.Reg gc.gc_reg) (Operand.Imm assumed) :: gc.gc_suffix) in
      ignore (optimize_at 2 spec_tail);
      (* main segment: prefix; flags save; cmp; jne recover; flags
         restore; specialized tail *)
      let main = il_of_insns gc.gc_prefix in
      Rio.Instrlist.append main (Rio.Create.pushf ());
      Rio.Instrlist.append main (Rio.Create.pop (Operand.Mem guard_fslot));
      Rio.Instrlist.append main
        (Rio.Create.of_insn
           (Insn.mk_cmp (Operand.Reg gc.gc_reg) (Operand.Imm assumed)));
      Rio.Instrlist.append main
        (Rio.Create.of_insn (Insn.mk_jcc Cond.NZ recover_base));
      Rio.Instrlist.append main (Rio.Create.push (Operand.Mem guard_fslot));
      Rio.Instrlist.append main (Rio.Create.popf ());
      Rio.Instrlist.iter spec_tail (fun i ->
          Rio.Instrlist.append main
            (Rio.Create.of_insn (Rio.Instr.get_insn i)));
      (* recovery segment: flags restore, then the unspecialized suffix *)
      let recover = Rio.Instrlist.create () in
      Rio.Instrlist.append recover (Rio.Create.push (Operand.Mem guard_fslot));
      Rio.Instrlist.append recover (Rio.Create.popf ());
      List.iter
        (fun i -> Rio.Instrlist.append recover (Rio.Create.of_insn i))
        gc.gc_suffix;
      let speculated =
        run_segments
          [ (spec_code_base, encode_il_at spec_code_base main);
            (recover_base, encode_il_at recover_base recover) ]
      in
      let baseline =
        run_segments
          [ (code_base,
             encode_il_at code_base (il_of_insns (gc.gc_prefix @ gc.gc_suffix))) ]
      in
      match
        diff_final (mask_dead_stack baseline) (mask_dead_stack speculated)
      with
      | None -> true
      | Some d ->
          QCheck2.Test.fail_reportf "deopt state diverged (%s): %s"
            (if gc.gc_fire then "guard fired" else "guard held")
            d)

open Workloads

(* The same property end-to-end through the real runtime: random
   speculation knobs over guard-heavy workloads must never perturb
   program output — every guard firing deoptimizes to exact state. *)
let prop_engine_spec =
  let open QCheck2.Gen in
  let case =
    let* bench = oneofl [ "gzip"; "crafty"; "eon"; "perlbmk"; "mesa"; "applu" ] in
    let* thr = int_range 1 32 in
    let* maxv = int_range 1 6 in
    return (bench, thr, maxv)
  in
  QCheck2.Test.make ~count:15
    ~name:"-O3 output identical to native for any speculation knobs"
    ~print:(fun (b, t, m) -> Printf.sprintf "%s --spec-threshold %d --spec-max-violations %d" b t m)
    case
    (fun (bench, thr, maxv) ->
      let w = Option.get (Suite.by_name bench) in
      let native = Workload.run_native w in
      let opts =
        { Rio.Options.default with
          Rio.Options.opt_level = 3;
          spec_threshold = thr;
          spec_max_violations = maxv;
          max_cycles = max_int / 2 }
      in
      let r, _ = Workload.run_rio ~opts w in
      r.Workload.ok && r.Workload.output = native.Workload.output)

(* The full speculate -> violate -> deoptimize -> re-optimize
   lifecycle on the phase-change workload: mesa alternates its
   transform function every few batches, so the dominant-target guard
   is built, violated in a burst when the phase flips, despeculated by
   rebuild, and re-speculated on the new phase — and the adaptive tier
   must beat the non-speculative one. *)
let test_spec_lifecycle () =
  let w = Option.get (Suite.by_name "mesa") in
  let native = Workload.run_native w in
  let at level =
    Workload.run_rio
      ~opts:
        { Rio.Options.default with
          Rio.Options.opt_level = level;
          max_cycles = max_int / 2 }
      w
  in
  let o2, _ = at 2 in
  let o3, rt3 = at 3 in
  Alcotest.(check bool) "-O3 output matches native" true
    (o3.Workload.ok && o3.Workload.output = native.Workload.output);
  let s = Rio.stats rt3 in
  Alcotest.(check bool) "guards compiled" true (s.Rio.Stats.spec_guards_ind >= 2);
  Alcotest.(check bool) "guards violated" true (s.Rio.Stats.spec_violations >= 1);
  Alcotest.(check bool) "trace despeculated" true (s.Rio.Stats.spec_despecs >= 1);
  Alcotest.(check bool) "re-speculated after deopt" true
    (s.Rio.Stats.spec_guards_ind > s.Rio.Stats.spec_despecs);
  Alcotest.(check bool) "-O3 beats -O2 on the phase-change workload" true
    (o3.Workload.cycles < o2.Workload.cycles)


(* Constant-guard despeculation, both arms of [Opt.despeculate].  The
   loop's second block starts with an absolute load of [cval], so the
   -O3 trace folds it to the value seen at build time behind a guard
   (the head block is never guarded).  [main] stores an input word to
   [cval] before each of two calls of the loop; a different second word
   makes every iteration of the second call miss the guard, a burst
   that spends the violation budget. *)
let const_guard_prog =
  Asm.Dsl.(
    program ~name:"const-guard" ~entry:"main"
      ~text:
        [
          label "main";
          in_ eax; st "cval" eax; call "kernel";
          in_ eax; st "cval" eax; call "kernel";
          hlt;
          label "kernel";
          mov ecx (i 0); mov edx (i 0);
          label "loop";
          add edx ecx;
          cmp ecx (i (-1)); j Cond.Z "never";
          label "body";
          ld eax "cval";
          add edx eax;
          inc ecx; cmp ecx (i 400); j Cond.L "loop";
          out edx; ret;
          label "never"; hlt;
        ]
      ~data:[ label "cval"; word32 [ 0 ] ]
      ())

let const_guard_opts =
  { Rio.Options.default with Rio.Options.opt_level = 3; max_cycles = max_int / 2 }

(* One run the way the pool serves a request, warm-booted from [cache]
   when given; returns the output and the runtime. *)
let run_const_guard ?cache input =
  let image = Asm.Assemble.assemble const_guard_prog in
  let m = Vm.Machine.create () in
  Asm.Image.load_cold m image;
  let rt = Rio.Engine.create ~opts:const_guard_opts m in
  Option.iter
    (fun path ->
      match
        Rio.Engine.load_image rt ~image_digest:(Asm.Image.digest image) ~path
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Rio.Persist.error_to_string e))
    cache;
  ignore
    (Vm.Machine.add_thread m ~entry:image.Asm.Image.entry
       ~stack_top:Asm.Image.default_stack_top);
  Vm.Machine.set_input m input;
  Rio.Engine.enable_flow_log rt;
  let o = Rio.Engine.run rt in
  Alcotest.(check bool) "run finished" true (o.Rio.Engine.reason = Rio.Engine.All_exited);
  (Vm.Machine.output m, rt, image)

(* the flow log names the despeculation arm that ran *)
let logged rt line =
  List.exists
    (fun l ->
      let n = String.length line in
      let rec at i = i + n <= String.length l && (String.sub l i n = line || at (i + 1)) in
      at 0)
    (Rio.Engine.flow_log rt)

let native_const_guard input =
  let image = Asm.Assemble.assemble const_guard_prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  Vm.Machine.set_input m input;
  ignore (Vm.Sched.run ~emulate:false m);
  Vm.Machine.output m

(* live trace: the guard is cut out of the trace in place *)
let test_const_despec_cut () =
  let input = [ 5; 9 ] in
  let out, rt, image = run_const_guard input in
  let s = Rio.Engine.stats rt in
  Alcotest.(check (list int)) "output matches native" (native_const_guard input) out;
  Alcotest.(check bool) "constant guard built" true (s.Rio.Stats.spec_guards_const >= 1);
  Alcotest.(check bool) "despeculated" true (s.Rio.Stats.spec_despecs >= 1);
  Alcotest.(check bool) "guard cut in place" true
    (logged rt
       (Printf.sprintf "at site 0x%x" (Asm.Image.label image "body"))
     && not (logged rt "(rebuild)"))

(* trace loaded from an image saved under the first input: there is no
   IL to cut, so the trace is rebuilt and the site marked nospec *)
let test_const_despec_loaded () =
  let path = Filename.temp_file "rio" ".riocache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let _, prime, image = run_const_guard [ 5; 5 ] in
      let n =
        Rio.Engine.save_image prime ~image_digest:(Asm.Image.digest image) ~path
      in
      Alcotest.(check bool) "trace persisted" true (n > 0);
      let input = [ 7; 7 ] in
      let out, rt, _ = run_const_guard ~cache:path input in
      let s = Rio.Engine.stats rt in
      Alcotest.(check (list int)) "output matches native" (native_const_guard input) out;
      Alcotest.(check bool) "despeculated" true (s.Rio.Stats.spec_despecs >= 1);
      let site = Asm.Image.label image "body" in
      Alcotest.(check bool) "loaded trace rebuilt" true
        (logged rt (Printf.sprintf "(rebuild) at site 0x%x" site));
      Alcotest.(check bool) "site marked nospec" true
        (List.exists
           (fun ts -> Rio.Fragindex.nospec ts.Rio.Types.index site)
           rt.Rio.Types.thread_states))

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_differential 1;
      prop_differential 2;
      prop_differential ~ebp:ebp_at_stack_top ~gen:near_stack_top_il
        ~where:", ebp slots at the stack top" 2;
      prop_reopt_stable;
    ]

let qcheck_spec_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_guard_deopt; prop_engine_spec ]

let () =
  Alcotest.run "opt"
    [
      ( "conservatism",
        [
          Alcotest.test_case "end of list" `Quick test_end_of_list_conservative;
          Alcotest.test_case "bundle boundary" `Quick
            test_bundle_boundary_conservative;
          Alcotest.test_case "exit CTI" `Quick test_exit_cti_conservative;
          Alcotest.test_case "push kills other-base facts" `Quick
            test_push_kills_other_base_facts;
          Alcotest.test_case "pop kills an esp holder" `Quick
            test_pop_kills_esp_holder;
        ] );
      ( "peepholes",
        [
          Alcotest.test_case "exit check" `Quick test_exit_check_peephole;
          Alcotest.test_case "flag-save elision" `Quick test_flag_elide_fires;
        ] );
      ("differential", qcheck_tests);
      ( "speculation",
        qcheck_spec_tests
        @ [
            Alcotest.test_case "deopt lifecycle (mesa)" `Slow test_spec_lifecycle;
            Alcotest.test_case "constant guard cut in place" `Quick
              test_const_despec_cut;
            Alcotest.test_case "constant guard in a loaded trace" `Quick
              test_const_despec_loaded;
          ] );
    ]
