(** Custom traces: whole-procedure-call inlining (paper §4.4).

    Default traces focus on loops and often split a hot call from its
    return, so the inlined return target keeps missing and falls back
    to the hashtable lookup.  This client redirects trace creation:

    - every direct call target becomes a trace head
      ([dr_mark_trace_head]);
    - a trace that crosses a [ret] is ended {e after the next basic
      block}, inlining the return and nearly guaranteeing the inlined
      target matches;
    - traces are capped at a maximum size to limit loop unrolling;
    - assuming the calling convention holds, the inlined return's
      pop-and-check sequence is replaced outright by
      [lea esp, 4(%esp)] — removing the return entirely without
      touching eflags. *)

open Isa
open Rio.Types

type tstate = {
  mutable phase : int;       (* 0 normal; 1 = ret block added; 2 = +1 block added *)
  mutable cur_trace : int;   (* trace being built, for the block cap *)
  mutable blocks : int;
}

type t = {
  threads : (int, tstate) Hashtbl.t;
  max_blocks : int;
  mutable heads_marked : int;
  mutable returns_elided : int;
}

let state (t : t) (ctx : context) =
  match Hashtbl.find_opt t.threads ctx.ts.ts_tid with
  | Some s -> s
  | None ->
      let s = { phase = 0; cur_trace = 0; blocks = 0 } in
      Hashtbl.replace t.threads ctx.ts.ts_tid s;
      s

(* Does the block starting at [tag] end with a return?  (A cheap
   Level-2 scan of application code.) *)
let block_ends_in_ret (ctx : context) tag : bool =
  let fetch = Vm.Memory.fetch (Vm.Machine.mem ctx.rt.machine) in
  let rec go addr n =
    if n > 512 then false
    else
      match Isa.Decode.opcode_eflags fetch addr with
      | Error _ -> false
      | Ok (op, len) ->
          if op = Opcode.Ret then true
          else if Opcode.is_cti op then false
          else go (addr + len) (n + 1)
  in
  go tag 0

(* bb hook: mark call sites as trace heads, so the trace rooted there
   inlines the whole call — the pushed return address, the callee body,
   the return, and the continuation all land in one trace (and the
   return elision can prove the pushed address matches the check) *)
let on_bb (t : t) (ctx : context) ~tag (il : Rio.Instrlist.t) =
  match Rio.Instrlist.last il with
  | None -> ()
  | Some last ->
      if
        (not (Rio.Instr.is_bundle last))
        && Rio.Instr.get_opcode last = Opcode.Call
      then begin
        Rio.Api.mark_trace_head ctx tag;
        t.heads_marked <- t.heads_marked + 1
      end

(* end_trace hook: implement "end after the block following a ret",
   plus the size cap *)
let on_end_trace (t : t) (ctx : context) ~trace_tag ~next_tag : end_trace_directive
    =
  let s = state t ctx in
  if s.cur_trace <> trace_tag then begin
    s.cur_trace <- trace_tag;
    s.blocks <- 0;
    s.phase <- 0
  end;
  s.blocks <- s.blocks + 1;
  if s.blocks >= t.max_blocks then begin
    s.phase <- 0;
    End_trace
  end
  else if s.phase = 2 then begin
    s.phase <- 0;
    End_trace
  end
  else if s.phase = 1 then begin
    (* the block after a ret: include it; if it too ends in a ret,
       keep inlining (cascaded returns), else end after it *)
    s.phase <- (if block_ends_in_ret ctx next_tag then 1 else 2);
    Continue_trace
  end
  else if block_ends_in_ret ctx next_tag then begin
    (* a ret is coming up: make sure it is inlined (checked), and end
       one block later *)
    s.phase <- 1;
    Continue_trace
  end
  else
    (* no return in play: defer to the default loop-oriented test *)
    Default_end

(* trace hook: elide inlined returns under the calling-convention
   assumption.  The mangled return is the sequence
       pop [ibl_slot]
       [pushf; pop [fslot]]
       cmp [ibl_slot], $expected
       jne IND(ret)
       [push [fslot]; popf]
   which is equivalent to discarding the top of stack
   (lea esp, 4(%esp)) — but only when we can see that the word being
   popped IS $expected: the matching call must have been inlined
   earlier in this same trace (its mangled form pushes the return
   address as an immediate).  A leaf called from several sites returns
   to different places; eliding its check without the matching push
   would follow the wrong path.  We track a symbolic stack while
   walking the trace to establish the match. *)
let elide_returns (t : t) (ctx : context) (il : Rio.Instrlist.t) =
  let tid = ctx.ts.ts_tid in
  let slot_addr = tls_addr ~tid ~slot:slot_ibl_target in
  let fslot_addr = tls_addr ~tid ~slot:slot_eflags in
  let is_abs_mem (o : Operand.t) addr =
    match o with
    | Operand.Mem { base = None; index = None; disp } -> disp = addr
    | _ -> false
  in
  let opcode_of i = if Rio.Instr.is_bundle i then Opcode.Nop else Rio.Instr.get_opcode i in
  let next i = i.Rio.Instr.next in
  (* symbolic stack: Some a = a known immediate (a pushed return
     address), None = unknown word.  [valid] goes false if esp is
     modified in a way we cannot model. *)
  let stack : int option list ref = ref [] in
  let valid = ref true in
  let spush v = stack := v :: !stack in
  let spop () = match !stack with [] -> None | v :: tl -> stack := tl; v in
  let track (i : Rio.Instr.t) =
    match opcode_of i with
    | Opcode.Push -> (
        match Rio.Instr.get_src i 0 with
        | Operand.Imm n -> spush (Some n)
        | _ -> spush None)
    | Opcode.Pushf -> spush None
    | Opcode.Pop | Opcode.Popf -> ignore (spop ())
    | Opcode.Call | Opcode.CallInd | Opcode.Ret ->
        (* shouldn't survive mangling, but be safe *)
        valid := false
    | _ ->
        (* any other explicit esp write invalidates the model *)
        if
          (not (Rio.Instr.is_bundle i))
          && Array.exists
               (function Operand.Reg Reg.Esp -> true | _ -> false)
               (Rio.Instr.get_insn i).Insn.dsts
        then valid := false
  in
  let rec go = function
    | None -> ()
    | Some (i : Rio.Instr.t) -> (
        let nxt = next i in
        (* match: pop [slot] *)
        match opcode_of i with
        | Opcode.Pop when is_abs_mem (Rio.Instr.get_dst i 0) slot_addr -> (
            (* optional flags save *)
            let after_save, saved =
              match nxt with
              | Some p when opcode_of p = Opcode.Pushf -> (
                  match next p with
                  | Some q
                    when opcode_of q = Opcode.Pop
                         && is_abs_mem (Rio.Instr.get_dst q 0) fslot_addr ->
                      (next q, Some (p, q))
                  | _ -> (nxt, None))
              | _ -> (nxt, None)
            in
            match after_save with
            | Some c
              when opcode_of c = Opcode.Cmp
                   && is_abs_mem (Rio.Instr.get_src c 0) slot_addr -> (
                match next c with
                | Some j when opcode_of j = Opcode.Jcc Cond.NZ -> (
                    match Rio.Instr.get_src j 0 with
                    | Operand.Target tok when ind_kind_of_token tok = Some Ind_ret -> (
                        (* the word about to be popped must be the
                           check's expected value: only then is the
                           elision sound *)
                        let expected =
                          match Rio.Instr.get_src c 1 with
                          | Operand.Imm n -> Some n
                          | _ -> None
                        in
                        let top = match !stack with v :: _ -> v | [] -> None in
                        match (expected, top, !valid) with
                        | Some e, Some p, true when e = p ->
                            ignore (spop ());
                            (* optional flags restore *)
                            let restore =
                              match next j with
                              | Some r1 when opcode_of r1 = Opcode.Push -> (
                                  match next r1 with
                                  | Some r2 when opcode_of r2 = Opcode.Popf ->
                                      Some (r1, r2)
                                  | _ -> None)
                              | _ -> None
                            in
                            (* rewrite: drop the whole sequence, bump esp *)
                            let lea =
                              Rio.Create.lea (Operand.Reg Reg.Esp)
                                (Operand.mem_base ~disp:4 Reg.Esp)
                            in
                            Rio.Instrlist.insert_before il i lea;
                            let kill = ref [ i; c; j ] in
                            (match saved with
                             | Some (p, q) -> kill := p :: q :: !kill
                             | None -> ());
                            (match restore with
                             | Some (r1, r2) -> kill := r1 :: r2 :: !kill
                             | None -> ());
                            let continue_at =
                              match restore with
                              | Some (_, r2) -> next r2
                              | None -> next j
                            in
                            List.iter (Rio.Instrlist.remove il) !kill;
                            t.returns_elided <- t.returns_elided + 1;
                            go continue_at
                        | _ ->
                            (* cannot prove the match: keep the check;
                               the pop consumes one stack word *)
                            ignore (spop ());
                            go nxt)
                    | _ -> ignore (spop ()); go nxt)
                | _ -> ignore (spop ()); go nxt)
            | _ -> ignore (spop ()); go nxt)
        | _ ->
            track i;
            go nxt)
  in
  go (Rio.Instrlist.first il)

let make ?(max_blocks = 12) () : client * t =
  let t =
    { threads = Hashtbl.create 8; max_blocks; heads_marked = 0; returns_elided = 0 }
  in
  ( {
      null_client with
      name = "ctraces";
      basic_block = Some (fun ctx ~tag il -> on_bb t ctx ~tag il);
      end_trace = Some (fun ctx ~trace_tag ~next_tag -> on_end_trace t ctx ~trace_tag ~next_tag);
      trace_hook = Some (fun ctx ~tag:_ il -> elide_returns t ctx il);
      exit_hook =
        (fun rt ->
          Rio.Api.printf rt "ctraces: %d call heads marked, %d returns elided\n"
            t.heads_marked t.returns_elided);
    },
    t )

let heads_marked t = t.heads_marked
let returns_elided t = t.returns_elided
