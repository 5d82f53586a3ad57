(** Instruction operands.

    Memory operands use IA-32-style [base + index*scale + disp]
    addressing.  Direct control-transfer targets are stored as
    *absolute* application addresses (the encoder materialises them as
    pc-relative displacements); keeping the absolute form in the
    operand is what lets the DynamoRIO layer re-encode a control
    transfer at a different cache address without fixups. *)

type mem = {
  base : Reg.t option;
  index : (Reg.t * int) option;  (** register and scale in {1,2,4,8} *)
  disp : int;                    (** signed 32-bit displacement *)
}

type t =
  | Reg of Reg.t
  | Freg of Reg.F.t
  | Imm of int                   (** signed immediate, fits in 32 bits *)
  | Mem of mem
  | Target of int                (** absolute code address of a direct CTI *)

let mem ?base ?index ?(disp = 0) () =
  (match index with
   | Some (_, s) when s <> 1 && s <> 2 && s <> 4 && s <> 8 ->
       invalid_arg "Operand.mem: scale must be 1, 2, 4 or 8"
   | _ -> ());
  Mem { base; index; disp }

let mem_abs addr = mem ~disp:addr ()
let mem_base ?(disp = 0) b = mem ~base:b ~disp ()
let mem_bi ?(disp = 0) b (i, s) = mem ~base:b ~index:(i, s) ~disp ()

let is_reg = function Reg _ -> true | _ -> false
let is_mem = function Mem _ -> true | _ -> false
let is_imm = function Imm _ -> true | _ -> false
let is_freg = function Freg _ -> true | _ -> false

let get_imm = function Imm i -> i | _ -> invalid_arg "Operand.get_imm"
let get_target = function Target t -> t | _ -> invalid_arg "Operand.get_target"

(** Registers read when computing a memory operand's effective address. *)
let mem_regs (m : mem) : Reg.t list =
  let b = match m.base with Some r -> [ r ] | None -> [] in
  let i = match m.index with Some (r, _) -> [ r ] | None -> [] in
  b @ i

(** General-purpose registers this operand reads when used as a source.
    (A [Mem] used as a destination still *reads* its address registers.) *)
let regs_used = function
  | Reg r -> [ r ]
  | Mem m -> mem_regs m
  | Freg _ | Imm _ | Target _ -> []

let equal_mem (a : mem) (b : mem) =
  a.disp = b.disp
  && Option.equal Reg.equal a.base b.base
  && Option.equal
       (fun (r1, s1) (r2, s2) -> Reg.equal r1 r2 && s1 = s2)
       a.index b.index

let equal (a : t) (b : t) =
  match (a, b) with
  | Reg x, Reg y -> Reg.equal x y
  | Freg x, Freg y -> Reg.F.equal x y
  | Imm x, Imm y -> x = y
  | Mem x, Mem y -> equal_mem x y
  | Target x, Target y -> x = y
  | _ -> false

let pp_mem ppf (m : mem) =
  let pp_base ppf = function
    | Some r -> Reg.pp ppf r
    | None -> ()
  in
  match m.index with
  | None ->
      if m.base = None then Fmt.pf ppf "0x%x" (m.disp land 0xffffffff)
      else if m.disp = 0 then Fmt.pf ppf "(%a)" pp_base m.base
      else Fmt.pf ppf "%s0x%x(%a)"
          (if m.disp < 0 then "-" else "")
          (abs m.disp) pp_base m.base
  | Some (i, s) ->
      if m.disp = 0 then
        Fmt.pf ppf "(%a,%a,%d)" pp_base m.base Reg.pp i s
      else
        Fmt.pf ppf "%s0x%x(%a,%a,%d)"
          (if m.disp < 0 then "-" else "")
          (abs m.disp) pp_base m.base Reg.pp i s

let pp ppf = function
  | Reg r -> Reg.pp ppf r
  | Freg f -> Reg.F.pp ppf f
  | Imm i -> Fmt.pf ppf "$0x%x" (i land 0xffffffff)
  | Mem m -> pp_mem ppf m
  | Target t -> Fmt.pf ppf "0x%x" t
