(** Custom traces: whole-procedure-call inlining (paper §4.4). *)

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

val make : ?max_blocks:int -> unit -> Rio.Types.client * t
