(** SynISA disassembler: AT&T-flavoured text for decoded instructions
    and raw byte ranges.  Used by examples, debugging output, and the
    Figure-2 reproduction. *)

(** Render one instruction: its explicit operands ({!Insn.explicit}),
    dst first (AT&T would be src first, but dst-first reads better
    alongside the paper's figures, which also print "operands ->
    destination").  Direct targets are printed as absolute hex
    addresses, matching how they are stored in the operand. *)
let insn_to_string (i : Insn.t) : string =
  let b = Buffer.create 32 in
  if i.prefixes land Insn.prefix_lock <> 0 then Buffer.add_string b "lock ";
  Buffer.add_string b (Opcode.name i.opcode);
  for k = 0 to Insn.arity i.opcode - 1 do
    Buffer.add_string b (if k = 0 then " " else ", ");
    Buffer.add_string b (Fmt.str "%a" Operand.pp (Insn.explicit i k))
  done;
  Buffer.contents b

let hex_bytes (bytes : Bytes.t) : string =
  String.concat " "
    (List.init (Bytes.length bytes) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get bytes i))))

(** Disassemble [len] bytes starting at [pc], one line per instruction:
    address, raw bytes, mnemonic.  Stops early on a decode error,
    appending an error line. *)
let region (f : Decode.fetch) ~pc ~len : string list =
  let stop = pc + len in
  let rec go pc acc =
    if pc >= stop then List.rev acc
    else
      match Decode.full f pc with
      | Error e ->
          List.rev (Printf.sprintf "%08x: <%s>" pc (Decode.error_to_string e) :: acc)
      | Ok (insn, n) ->
          let raw = Bytes.init n (fun i -> Char.chr (f (pc + i))) in
          let line =
            Printf.sprintf "%08x: %-24s %s" pc (hex_bytes raw) (insn_to_string insn)
          in
          go (pc + n) (line :: acc)
  in
  go pc []
