(** General-purpose registers of SynISA.

    SynISA mirrors IA-32's register scarcity: eight 32-bit general-purpose
    registers, with [Esp] conventionally the stack pointer and [Ebp] the
    frame pointer.  Register numbers match their 3-bit encoding in
    ModRM/SIB bytes. *)

type t =
  | Eax
  | Ecx
  | Edx
  | Ebx
  | Esp
  | Ebp
  | Esi
  | Edi

let all = [ Eax; Ecx; Edx; Ebx; Esp; Ebp; Esi; Edi ]

let number = function
  | Eax -> 0
  | Ecx -> 1
  | Edx -> 2
  | Ebx -> 3
  | Esp -> 4
  | Ebp -> 5
  | Esi -> 6
  | Edi -> 7

let of_number = function
  | 0 -> Eax
  | 1 -> Ecx
  | 2 -> Edx
  | 3 -> Ebx
  | 4 -> Esp
  | 5 -> Ebp
  | 6 -> Esi
  | 7 -> Edi
  | n -> invalid_arg (Printf.sprintf "Reg.of_number: %d" n)

let name = function
  | Eax -> "eax"
  | Ecx -> "ecx"
  | Edx -> "edx"
  | Ebx -> "ebx"
  | Esp -> "esp"
  | Ebp -> "ebp"
  | Esi -> "esi"
  | Edi -> "edi"

let equal (a : t) (b : t) = a = b
let pp ppf r = Fmt.pf ppf "%%%s" (name r)

(** Floating-point registers: a flat bank of eight 64-bit registers,
    [f0]..[f7] (no x87-style stack — SynISA's FP unit is SSE2-flavoured). *)
module F = struct
  type t = int (* invariant: 0..7 *)

  let make n =
    if n < 0 || n > 7 then invalid_arg (Printf.sprintf "Reg.F.make: %d" n);
    n

  let number (f : t) = f
  let all = [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  let name (f : t) = Printf.sprintf "f%d" f
  let equal (a : t) (b : t) = a = b
  let pp ppf f = Fmt.pf ppf "%%%s" (name f)
end
