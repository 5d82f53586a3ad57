(** The five levels of instruction representation (paper §3.1):
    L0 un-decoded bundle, L1 un-decoded single instruction, L2 opcode +
    eflags, L3 fully decoded with valid raw bytes, L4 fully decoded
    with invalidated raw bytes. *)

type t = L0 | L1 | L2 | L3 | L4

