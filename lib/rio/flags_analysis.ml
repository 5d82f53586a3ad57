(** Eflags liveness over linear code — the analysis Level 2 exists to
    make cheap (paper §3.1).

    Used by the trace builder to decide whether an inserted comparison
    must save and restore the application's flags, and by clients (the
    strength-reduction example) to decide whether a transformation's
    flag differences are observable. *)

open Isa

(* A shift whose count masks to zero leaves every flag untouched at run
   time (Arith.shl/shr/sar short-circuit on [count land 31 = 0]), so
   the static write mask only counts as a kill when the count is a
   provably nonzero immediate.  A variable count may write or may not:
   for liveness that is "writes nothing" (flags pass through).  Shifts
   never read flags, so the read mask is unaffected.  Raising to
   Level 3 happens only for the three shift opcodes. *)
let certain_write_mask (i : Instr.t) : int =
  let m = Eflags.write_mask (Instr.get_eflags i) in
  match Instr.get_opcode i with
  | Opcode.Shl | Opcode.Shr | Opcode.Sar -> (
      let insn = Instr.get_insn i in
      if Array.length insn.Insn.srcs = 0 then 0
      else
        match insn.Insn.srcs.(0) with
        | Operand.Imm k when k land 31 <> 0 -> m
        | _ -> 0)
  | _ -> m

(** [dead_after i] — true when the application flags are provably dead
    at the program point {e before} instruction [i] (walking forward
    from [i], every flag is written before it is read, without leaving
    the fragment).  [None] (end of list) and exit CTIs are conservative
    [live] boundaries: code outside the fragment may read anything.

    Only Level-2 information (opcode → eflags mask) is consulted,
    except shifts, whose conditional flag write needs the count
    operand. *)
let dead_after (start : Instr.t option) : bool =
  let rec go (cur : Instr.t option) (still_live : int) =
    if still_live = 0 then true
    else
      match cur with
      | None -> false (* fell off the fragment: assume live *)
      | Some i ->
          if Instr.is_bundle i then
            (* a bundle's members may read flags; be conservative:
               splitting is the caller's job if precision matters *)
            false
          else
            let m = Instr.get_eflags i in
            let reads = Eflags.read_mask m land still_live in
            if reads <> 0 then false
            else
              let still_live = still_live land lnot (certain_write_mask i) in
              if Instr.is_cti i then
                (* leaving (or possibly leaving) the fragment *)
                still_live = 0
              else go i.Instr.next still_live
  in
  go start Eflags.all_mask

(** [flags_dead_after ~mask i] — like {!dead_after} but for a subset of
    flags: true when every flag in [mask] is written before read,
    without leaving the fragment (what inc→add needs for CF alone). *)
let flags_dead_after ~(mask : int) (start : Instr.t option) : bool =
  let rec go (cur : Instr.t option) (still_live : int) =
    if still_live = 0 then true
    else
      match cur with
      | None -> false
      | Some i ->
          if Instr.is_bundle i then false
          else
            let m = Instr.get_eflags i in
            if Eflags.read_mask m land still_live <> 0 then false
            else
              let still_live = still_live land lnot (certain_write_mask i) in
              if Instr.is_cti i then still_live = 0 else go i.Instr.next still_live
  in
  go start (mask land Eflags.all_mask)

(** [flags_written_set il_from] — the set of flags certainly written
    before any read, as a bit mask (used by tests). *)
let written_before_read (start : Instr.t option) : int =
  let rec go cur ~unread ~written =
    match cur with
    | None -> written
    | Some (i : Instr.t) ->
        if Instr.is_bundle i then written
        else
          let m = Instr.get_eflags i in
          (* within one instruction, reads happen before writes *)
          let unread = unread land lnot (Eflags.read_mask m) in
          let written = written lor (certain_write_mask i land unread) in
          if Instr.is_cti i then written
          else go i.Instr.next ~unread ~written
  in
  go start ~unread:Eflags.all_mask ~written:0

(* ------------------------------------------------------------------ *)
(* Backward register/memory liveness (DESIGN.md §6.4)                 *)
(* ------------------------------------------------------------------ *)

(** Liveness at a program point, as bit sets: one bit per GPR
    ({!Reg.number}), one per FP register, plus the eflags mask. *)
type live = {
  live_regs : int;
  live_fregs : int;
  live_flags : int;
}

let all_gprs = 0xFF
let all_fprs = 0xFF

(** Everything live: the state at every fragment boundary (exit CTIs,
    list ends) — code outside the fragment may read anything. *)
let all_live =
  { live_regs = all_gprs; live_fregs = all_fprs; live_flags = Eflags.all_mask }

let reg_bit r = 1 lsl Reg.number r
let freg_bit f = 1 lsl Reg.F.number f

let live_reg l r = l.live_regs land reg_bit r <> 0
let live_freg l f = l.live_fregs land freg_bit f <> 0

(* register uses / defs of one operand position *)
let operand_uses (o : Operand.t) =
  match o with
  | Operand.Reg r -> (reg_bit r, 0)
  | Operand.Freg f -> (0, freg_bit f)
  | Operand.Mem m ->
      (List.fold_left (fun acc r -> acc lor reg_bit r) 0 (Operand.mem_regs m), 0)
  | Operand.Imm _ | Operand.Target _ -> (0, 0)

(* Instructions whose effects the transfer function cannot summarise
   precisely are "everything live" barriers ({!Opcode.is_barrier}).
   CTIs leave the fragment; clean calls run arbitrary host code; in/out
   touch the machine's ports; hlt ends the program (conservatively
   live, matching {!dead_after}'s end-of-list rule). *)
let is_barrier (i : Instr.t) = Opcode.is_barrier (Instr.get_opcode i)

(* live-before from live-after for one instruction *)
let transfer (i : Instr.t) (after : live) : live =
  if Instr.is_bundle i || is_barrier i then all_live
  else
    let insn = Instr.get_insn i in
    let defs_r, defs_f =
      Array.fold_left
        (fun (dr, df) (d : Operand.t) ->
          match d with
          | Operand.Reg r -> (dr lor reg_bit r, df)
          | Operand.Freg f -> (dr, df lor freg_bit f)
          | _ -> (dr, df))
        (0, 0) insn.Isa.Insn.dsts
    in
    let uses_r, uses_f =
      let add (ur, uf) o =
        let r, f = operand_uses o in
        (ur lor r, uf lor f)
      in
      let u = Array.fold_left add (0, 0) insn.Isa.Insn.srcs in
      (* address registers of memory *destinations* are reads too *)
      Array.fold_left
        (fun acc (d : Operand.t) ->
          match d with Operand.Mem _ -> add acc d | _ -> acc)
        u insn.Isa.Insn.dsts
    in
    let m = Instr.get_eflags i in
    {
      live_regs = (after.live_regs land lnot defs_r) lor uses_r;
      live_fregs = (after.live_fregs land lnot defs_f) lor uses_f;
      live_flags =
        (after.live_flags land lnot (certain_write_mask i))
        lor Eflags.read_mask m;
    }

(** [backward_liveness il] — one backward walk over the list, pairing
    every instruction with the registers, FP registers and flags live
    {e after} it (in program order).  Exit CTIs and the list end are
    all-live boundaries, mirroring {!dead_after}'s conservatism. *)
let backward_liveness (il : Instrlist.t) : (Instr.t * live) list =
  let acc = ref [] in
  let live = ref all_live in
  Instrlist.iter_rev il (fun i ->
      acc := (i, !live) :: !acc;
      live := transfer i !live);
  !acc

(* ------------------------------------------------------------------ *)
(* Memory deadness (forward, per-store)                               *)
(* ------------------------------------------------------------------ *)

(** Conservative alias test between memory operands [a] (width [wa])
    and [b] (width [wb]): identical address expressions are disjoint
    exactly when their displacement ranges cannot overlap; different
    bases may point anywhere. *)
let may_alias (a : Operand.mem) wa (b : Operand.mem) wb =
  let same_index =
    Option.equal
      (fun (r1, s1) (r2, s2) -> Reg.equal r1 r2 && s1 = s2)
      a.Operand.index b.Operand.index
  in
  let same_base = Option.equal Reg.equal a.Operand.base b.Operand.base in
  if same_base && same_index then
    not (a.Operand.disp + wa <= b.Operand.disp || b.Operand.disp + wb <= a.Operand.disp)
  else true

(* the word an implicit stack write (push, pushf, call) stores *)
let pushed_slot = { Operand.base = Some Reg.Esp; index = None; disp = -4 }

(** [may_write_mem insn m w] — may executing [insn] write memory that a
    [w]-byte access at [m] overlaps?  Counts its Mem destinations, each
    {!Opcode.mem_width} bytes wide, and an implicit stack write: the
    word at [esp-4], which a slot addressed off any other base may
    be. *)
let may_write_mem (insn : Isa.Insn.t) (m : Operand.mem) (w : int) : bool =
  let op = insn.Isa.Insn.opcode in
  (Opcode.implicit_stack_write op && may_alias pushed_slot 4 m w)
  || Array.exists
       (fun (d : Operand.t) ->
         match d with
         | Operand.Mem dm -> may_alias dm (Opcode.mem_width op) m w
         | _ -> false)
       insn.Isa.Insn.dsts

(* does executing [i] change any register an address expression uses?
   (the dsts include implicit ones: a push or pop names esp) *)
let writes_addr_reg (insn : Isa.Insn.t) (m : Operand.mem) =
  let addr_regs = Operand.mem_regs m in
  Array.exists
    (fun (d : Operand.t) ->
      match d with
      | Operand.Reg r -> List.exists (Reg.equal r) addr_regs
      | _ -> false)
    insn.Isa.Insn.dsts

(** [store_dead_after ~mem ~width start] — true when the [width]-byte
    store to [mem] is provably dead at the program point before
    [start]: walking forward, an equal-address store of at least the
    same width overwrites it before any instruction that could observe
    it (an aliasing read, a CTI or other barrier leaving the fragment,
    an implicit stack access, or a write to one of its address
    registers). *)
let store_dead_after ~(mem : Operand.mem) ~(width : int) (start : Instr.t option) :
    bool =
  let rec go (cur : Instr.t option) =
    match cur with
    | None -> false (* fell off the fragment: assume observed *)
    | Some i ->
        if Instr.is_bundle i || is_barrier i then false
        else
          let insn = Instr.get_insn i in
          let op = insn.Isa.Insn.opcode in
          if Opcode.touches_stack op then
            false (* esp-relative access may alias anything esp-based *)
          else if
            (* any aliasing memory read observes the store *)
            Array.exists
              (fun (s : Operand.t) ->
                match s with
                | Operand.Mem m -> may_alias m (Opcode.mem_width op) mem width
                | _ -> false)
              insn.Isa.Insn.srcs
          then false
          else if
            (* an exactly-covering store kills it *)
            Opcode.mem_width op >= width
            && Array.exists
                 (fun (d : Operand.t) ->
                   match d with
                   | Operand.Mem m -> Operand.equal_mem m mem
                   | _ -> false)
                 insn.Isa.Insn.dsts
            && not (writes_addr_reg insn mem)
          then true
          else if
            (* a partial aliasing write is conservatively an observation;
               writing an address register changes what [mem] means
               downstream *)
            may_write_mem insn mem width || writes_addr_reg insn mem
          then false
          else go i.Instr.next
  in
  go start

module For_testing = struct
  let written_before_read = written_before_read
end
