(* The types of {!Instr}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

open Isa

type payload =
  | Bundle of { raw : Bytes.t; addr : int }
      (** L0: one or more un-decoded instructions; only the end is a
          known boundary.  [addr] is the original address of the bytes. *)
  | Raw of { raw : Bytes.t; addr : int }
      (** L1: one un-decoded instruction. *)
  | RawOp of { raw : Bytes.t; addr : int; opcode : Opcode.t }
      (** L2: opcode + eflags known. *)
  | Full of { raw : Bytes.t option; raw_valid : bool; addr : int; insn : Insn.t }
      (** L3 when [raw_valid] (bytes usable for encoding), L4 otherwise.
          Like DynamoRIO, invalidation keeps the raw-bits field (and its
          storage) and merely marks it unusable. *)

type t = {
  mutable payload : payload;
  mutable note : note;
  mutable prev : t option;
  mutable next : t option;
  mutable owner : int;
}

and note = No_note | Int_note of int | Any_note of exn
    (** Client annotation slot (paper §3.2).  [Any_note] carries an
        arbitrary payload via an exception constructor — the classic
        OCaml universal type. *)
