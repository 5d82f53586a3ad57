(** Program shepherding (paper §1/§7; Kiriansky, Bruening &
    Amarasinghe, USENIX Security 2002 — the paper's reference [23]). *)

type policy
(** The approved executable region and whether returns are checked. *)

val policy_of_image : ?check_returns:bool -> Asm.Image.t -> policy
(** Approve exactly the program image's text segment. *)

type t = {
  mutable blocks_vetted : int;
  mutable returns_checked : int;
  mutable violations : int;
}

val make : policy -> Rio.Types.client * t
