(** The five levels of instruction representation (paper §3.1, Fig. 2).

    - {b L0} — a bundle of raw bytes covering one or more un-decoded
      instructions; only the final boundary is known.
    - {b L1} — raw bytes of exactly one instruction.
    - {b L2} — opcode and eflags effects known; operands not decoded.
    - {b L3} — fully decoded, and the raw bytes are still valid (encode
      by copying them).
    - {b L4} — fully decoded but modified or newly created: no valid
      raw bytes, must be encoded from operands. *)

type t = L0 | L1 | L2 | L3 | L4

