(* The types of {!Cost}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type family = Pentium3 | Pentium4

type t = {
  family : family;
  mispredict : int;
  taken_extra : int;
  mem_read : int;
  mem_write : int;
  emu_overhead : int;  (** per-instruction cost of pure emulation *)
}
