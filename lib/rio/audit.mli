(** Runtime cache auditor (S34): validates DESIGN.md §6 invariants 7
    (cache/link consistency) and 8 (fragment linearity) over the live
    code cache, plus a per-fragment byte checksum that catches
    arbitrary corruption of emitted code. *)

val checksum_bytes : Bytes.t -> int

val stamp : Types.runtime -> Types.fragment -> int -> unit
(** Record [checksum] as the fragment's current image and fold the
    stamp into [rt.emit_digest]. *)

val refresh : Types.runtime -> Types.fragment -> unit
(** Re-stamp a fragment's checksum after a legitimate byte patch. *)

val live_fragments : Types.runtime -> Types.fragment list

val run : Types.runtime -> (unit, Types.fragment * string) result
(** Audit every live fragment.  Returns the first offender (in cache
    layout order) so the dispatcher's recovery ladder can act on it.
    Charges the modelled per-fragment audit cost. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val check_fragment :
    Types.runtime -> Types.fragment -> string option
  (** First violation found in [f], or [None].  Checks, in order:
      bytes unchanged since the last legitimate patch (checksum); every
      exit's branch and stub-jump bytes agree with its link state and
      linked targets are live with symmetric incoming entries
      (invariant 7); the body and stubs decode linearly with control
      transfers only at registered exit sites (invariant 8). *)
end
