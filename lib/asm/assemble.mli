(** Two-pass assembler with branch relaxation: iterates layout to a
    fixed point because instruction lengths (rel8 vs rel32 branches,
    disp8 vs disp32) depend on label addresses and vice versa. *)

exception Assembly_error of string

val assemble : ?text_base:int -> ?data_base:int -> Ast.program -> Image.t
(** @raise Assembly_error on encoding failures, non-convergence, or an
    item that does not fit below {!Image.app_space_end};
    @raise Ast.Unknown_label / Ast.Duplicate_label for label errors. *)
