(** Mangling: rewriting application control transfers into forms a code
    cache can execute while preserving transparency (original program
    addresses everywhere the application can observe them). *)

val abs_slot : tid:int -> int -> Isa.Operand.t

val mangle_il : tid:int -> Instrlist.t -> unit
(** Rewrite every application CTI that needs it ([call], [call*],
    [jmp*], [ret]) into cache-executable form, in place.  Non-CTI
    instructions and direct jumps/branches pass through.  Notes on
    replaced CTIs (custom stubs) migrate to the replacement jump. *)

val inline_check :
  tid:int ->
  expected:int ->
  kind:Types.ind_kind -> flags_live:bool -> Instr.t list
(** Build the inline target check a trace inserts after a mangled
    indirect branch whose {e expected} (inlined) next tag is known:

    {v
    cmp [ibl_slot], $expected
    jne IND(k)          ; miss: restore flags in the stub, then lookup
    v}

    When the application's flags are live at this point, the check is
    bracketed with a save, and both the fall-through and the miss stub
    restore them (the restore instructions for the stub are attached
    via {!Types.Stub_note} on the [jne]). *)
