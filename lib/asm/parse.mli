(** Textual assembler front-end: AT&T-flavoured SynISA assembly →
    {!Ast.program}.

    {v
    .data
    buf:   .word 1, 2, @table_entry   ; ints or label addresses
    vals:  .float 1.5, 2.5
           .space 64
           .ascii "raw bytes"
    .text
    .entry main
    main:
        mov   %eax, $42               ; destination first
        mov   %ecx, 8(%ebp)           ; disp(base,index,scale)
        add   %eax, (%ebx,%ecx,4)
        fld   %f0, @vals+8            ; absolute memory at label+off
        li    %esi, $@buf             ; label address as immediate
        cmp   %eax, $10
        jl    main                    ; jcc <label>, all 16 conditions
        call  helper                  ;   (call/jmp with %reg or (mem)
        jmp   %eax                    ;    operands are indirect)
        out   %eax
        hlt
    v}

    Comments start with [#] or [;]. *)

exception Parse_error of { line : int; msg : string }

val program_of_file : string -> Ast.program

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val program : ?name:string -> string -> Ast.program
  (** Parse assembly source text.  @raise Parse_error with a line number
      on malformed input. *)
end
