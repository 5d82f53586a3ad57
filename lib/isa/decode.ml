(** SynISA decoders, at three fidelities.

    DynamoRIO's adaptive level-of-detail representation rests on having
    decoders of graded cost:

    - {!boundary} only finds the instruction length (what Level-0/1
      construction needs),
    - {!opcode_eflags} additionally identifies the opcode — and hence
      the eflags effects — without building operands (Level 2),
    - {!full} produces a complete {!Insn.t} (Levels 3/4).

    All three classify the opcode through the same lookup into
    {!Encoding_spec}'s form table and share its length logic, so they
    agree on boundaries and errors by construction; the test suite
    checks this with property tests anyway.  Only {!full} checks that
    a ModRM's mod suits its form. *)

type error =
  | Invalid_opcode of int * int  (** position, offending byte *)
  | Invalid_modrm of int

let error_to_string = function
  | Invalid_opcode (pos, b) -> Printf.sprintf "invalid opcode 0x%02x at 0x%x" b pos
  | Invalid_modrm pos -> Printf.sprintf "invalid modrm at 0x%x" pos

exception Decode_error of error

type fetch = int -> int
(** A byte fetcher: [fetch addr] returns the byte at [addr] (0..255). *)

let fetch_bytes (b : Bytes.t) : fetch = fun i -> Char.code (Bytes.get b i)
let fetch_string (s : string) : fetch = fun i -> Char.code (String.get s i)

(* ------------------------------------------------------------------ *)
(* Low-level readers                                                  *)
(* ------------------------------------------------------------------ *)

let read_u8 (f : fetch) p = f p

let read_i8 (f : fetch) p =
  let v = f p in
  if v >= 128 then v - 256 else v

let read_u32 (f : fetch) p =
  f p lor (f (p + 1) lsl 8) lor (f (p + 2) lsl 16) lor (f (p + 3) lsl 24)

let read_i32 (f : fetch) p = Encoding_spec.to_i32 (read_u32 f p)

(* Bytes of ModRM, SIB and displacement, from the ModRM byte [m] and
   the SIB byte [sib] (read only when [m] selects one). *)
let modrm_bytes m sib =
  let md = m lsr 6 and rm = m land 7 in
  if md = 3 then 1
  else
    let has_sib = rm = 4 in
    let disp_len =
      match md with
      | 1 -> 1
      | 2 -> 4
      | _ -> if rm = 5 || (has_sib && sib land 7 = 5) then 4 else 0
    in
    1 + (if has_sib then 1 else 0) + disp_len

let has_sib m = m land 7 = 4 && m lsr 6 <> 3

(* [modrm_len f p]: the bytes of the ModRM at [p] with its SIB and
   displacement *)
let modrm_len (f : fetch) p =
  let m = f p in
  modrm_bytes m (if has_sib m then f (p + 1) else 0)

let gpr n = Operand.Reg (Reg.of_number n)
let fpr n = Operand.Freg (Reg.F.make n)

(* the operand the ModRM [m] (and SIB [sib]) at [p] names in its rm
   field, a GPR if direct; [len] is [modrm_bytes m sib] *)
let rm_operand (f : fetch) p m sib len : Operand.t =
  let md = m lsr 6 and rm = m land 7 in
  if md = 3 then gpr rm
  else
    let base, index =
      if has_sib m then
        let sc = 1 lsl (sib lsr 6)
        and ix = (sib lsr 3) land 7
        and bs = sib land 7 in
        let base = if bs = 5 && md = 0 then None else Some (Reg.of_number bs) in
        let index = if ix = 4 then None else Some (Reg.of_number ix, sc) in
        (base, index)
      else if rm = 5 && md = 0 then (None, None)
      else (Some (Reg.of_number rm), None)
    in
    (* the displacement is what [len] leaves after ModRM and SIB *)
    let at = p + if has_sib m then 2 else 1 in
    let disp =
      match p + len - at with 1 -> read_i8 f at | 4 -> read_i32 f at | _ -> 0
    in
    Operand.Mem { base; index; disp }

(* ------------------------------------------------------------------ *)
(* One classification for all three decoders                         *)
(* ------------------------------------------------------------------ *)

open Encoding_spec

let prefix_len (f : fetch) pc = if f pc = lock_prefix then 1 else 0

(* the form whose opcode starts at [p] (past any prefix) with byte [b] *)
let lookup (f : fetch) p b = if b = escape then two_byte.(f (p + 1)) else one_byte.(b)

(* an unknown opcode: the byte after the escape for a two-byte one *)
let bad_opcode (f : fetch) start p =
  let b = f p in
  Invalid_opcode (start, if b = escape then f (p + 1) else b)

(* length of the instruction of form [r] whose opcode starts at [p] *)
let form_len (f : fetch) pc p r =
  let q = p + opcode_len r in
  q - pc + (if r.modrm then modrm_len f q else 0) + r.tail

(* ------------------------------------------------------------------ *)
(* Level 0/1: boundary scan                                           *)
(* ------------------------------------------------------------------ *)

(** [boundary f pc] is the length of the instruction at [pc].  This is
    the cheapest decode: it never builds operands. *)
let boundary (f : fetch) (pc : int) : (int, error) result =
  let p = pc + prefix_len f pc in
  match lookup f p (f p) with
  | None -> Error (bad_opcode f pc p)
  | Some r -> Ok (form_len f pc p r)

(* ------------------------------------------------------------------ *)
(* Level 2: opcode + eflags                                           *)
(* ------------------------------------------------------------------ *)

(** [opcode_eflags f pc] identifies the opcode (hence its eflags mask)
    and the instruction length, without building operands. *)
let opcode_eflags (f : fetch) (pc : int) : (Opcode.t * int, error) result =
  let p = pc + prefix_len f pc in
  match lookup f p (f p) with
  | None -> Error (bad_opcode f pc p)
  | Some r -> Ok (r.opcode, form_len f pc p r)

(* ------------------------------------------------------------------ *)
(* Level 3: full decode                                               *)
(* ------------------------------------------------------------------ *)

(* Explicit operand [k] of form [r]: [ext] is the ModRM.reg field, [rm]
   the operand in ModRM.rm, [low3] the register added to the opcode
   byte, and [tail] the immediate or the resolved branch target. *)
let[@inline] operand r k ~ext ~rm ~low3 ~tail =
  if k >= Array.length r.fields then Insn.no_operand
  else
    match r.fields.(k) with
    | Reg_gpr -> gpr ext
    | Reg_fp -> fpr ext
    | Rm | Rm_mem | Rm_gpr | Rm_fp -> rm
    | Plus_r -> gpr low3
    | Imm8s | Imm8u | Imm32 -> Operand.Imm tail
    | Rel8 | Rel32 -> Operand.Target tail
    | Fixed x -> x

(* The instruction at [start] of form [r], whose opcode starts at [p]
   with byte [b].  A ModRM whose mod does not suit the rm field is
   [Invalid_modrm]. *)
let decode_form (f : fetch) start p b r =
  let q = p + opcode_len r in
  let m = if r.modrm then f q else 0 in
  let sib = if r.modrm && has_sib m then f (q + 1) else 0 in
  let mlen = if r.modrm then modrm_bytes m sib else 0 in
  let direct = m lsr 6 = 3 in
  let rm =
    if r.rm_slot < 0 then
      if r.modrm && not direct then raise (Decode_error (Invalid_modrm q)) else Insn.no_operand
    else
      match (r.fields.(r.rm_slot), direct) with
      | Rm, _ | Rm_mem, false -> rm_operand f q m sib mlen
      | Rm_gpr, true -> gpr (m land 7)
      | Rm_fp, true -> fpr (m land 7)
      | _ -> raise (Decode_error (Invalid_modrm q))
  in
  let t = q + mlen in
  let next_pc = t + r.tail in
  let tail =
    if r.tail_slot < 0 then 0
    else
      match r.fields.(r.tail_slot) with
      | Imm8s -> read_i8 f t
      | Imm8u -> read_u8 f t
      | Rel8 -> next_pc + read_i8 f t
      | Rel32 -> next_pc + read_i32 f t
      | _ -> read_i32 f t
  in
  let ext = (m lsr 3) land 7 in
  let low3 = b - r.byte in
  let insn =
    Insn.of_explicit r.opcode
      (operand r 0 ~ext ~rm ~low3 ~tail)
      (operand r 1 ~ext ~rm ~low3 ~tail)
  in
  ((if p > start then { insn with Insn.prefixes = Insn.prefix_lock } else insn), next_pc - start)

(** [full f pc] fully decodes the instruction at [pc], reconstructing
    implicit operands and resolving pc-relative targets to absolute
    addresses.  Returns the instruction and its length. *)
let full (f : fetch) (pc : int) : (Insn.t * int, error) result =
  let p = pc + prefix_len f pc in
  try
    let b = f p in
    match lookup f p b with
    | None -> Error (bad_opcode f pc p)
    | Some r -> Ok (decode_form f pc p b r)
  with
  | Decode_error e -> Error e
  | Invalid_argument _ -> Error (Invalid_modrm pc)

let full_exn f pc =
  match full f pc with Ok r -> r | Error e -> raise (Decode_error e)

let boundary_exn f pc =
  match boundary f pc with Ok r -> r | Error e -> raise (Decode_error e)

let opcode_eflags_exn f pc =
  match opcode_eflags f pc with Ok r -> r | Error e -> raise (Decode_error e)

module For_testing = struct
  let fetch_string = fetch_string
  let boundary = boundary
end
