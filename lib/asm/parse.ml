(** Textual assembler front-end: parse AT&T-flavoured SynISA assembly
    into an {!Ast.program}.

    Syntax summary (one statement per line; [#] or [;] start comments):

    {v
    .text                     ; switch section (default)
    .data
    .entry main               ; entry label (default "main")
    .word 1, 2, -3            ; 32-bit words (data)
    .word @table_target       ; a label's address as a word
    .float 1.5, 2.5           ; 64-bit doubles
    .space 64                 ; zero bytes
    .ascii "bytes"            ; raw bytes

    main:                     ; label
        mov   %eax, $42       ; dst first (matching the disassembler)
        mov   %ecx, 8(%ebp)
        add   %eax, (%ebx,%ecx,4)
        fld   %f0, @vals+8    ; absolute memory at label+offset
        lea   %esi, @buf      ; a label address as an immediate? no —
                              ; lea of an absolute address
        li    %esi, @buf      ; pseudo: load label address (mov imm)
        cmp   %eax, $10
        jl    loop            ; branch to label
        call  helper
        jmp*  %eax            ; indirect
        out   %eax
        hlt
    v}

    Registers are [%eax]-style; immediates [$n] (decimal or 0x hex);
    memory operands are [disp(base,index,scale)] with any parts
    omitted, or [@label+off] for absolute data references. *)

open Isa

exception Parse_error of { line : int; msg : string }

let perr line fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizing one line                                                *)
(* ------------------------------------------------------------------ *)

let strip_comment s =
  let cut =
    match (String.index_opt s '#', String.index_opt s ';') with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, Some b -> Some b
    | None, None -> None
  in
  match cut with Some i -> String.sub s 0 i | None -> s

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

(* split "mov %eax, $42" into the mnemonic and raw operand strings *)
let split_stmt line (s : string) : string * string list =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, [])
  | Some sp ->
      let m = String.sub s 0 sp in
      let rest = String.sub s sp (String.length s - sp) in
      (* split top-level commas (parentheses protect the SIB commas) *)
      let ops = ref [] in
      let buf = Buffer.create 16 in
      let depth = ref 0 in
      String.iter
        (fun c ->
          match c with
          | '(' ->
              incr depth;
              Buffer.add_char buf c
          | ')' ->
              decr depth;
              Buffer.add_char buf c
          | ',' when !depth = 0 ->
              ops := Buffer.contents buf :: !ops;
              Buffer.clear buf
          | c -> Buffer.add_char buf c)
        rest;
      ops := Buffer.contents buf :: !ops;
      (* !ops is in reverse order; rev_map restores source order *)
      let ops = List.rev_map String.trim !ops in
      if List.exists (fun o -> o = "") ops then perr line "empty operand";
      (m, ops)

(* ------------------------------------------------------------------ *)
(* Operand parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse_int line (s : string) : int =
  let s = String.trim s in
  match int_of_string s (* handles 0x..., negatives *) with
  | v when v >= 0x8000_0000 && v <= 0xFFFF_FFFF ->
      (* canonicalize to the signed spelling of the same 32-bit value
         (so $0xffffffff means -1 and takes the short encoding) *)
      v - 0x1_0000_0000
  | v -> v
  | exception _ -> perr line "bad integer %S" s

let reg_of_name line = function
  | "%eax" -> Reg.Eax
  | "%ecx" -> Reg.Ecx
  | "%edx" -> Reg.Edx
  | "%ebx" -> Reg.Ebx
  | "%esp" -> Reg.Esp
  | "%ebp" -> Reg.Ebp
  | "%esi" -> Reg.Esi
  | "%edi" -> Reg.Edi
  | r -> perr line "unknown register %S" r

let freg_of_name _line (s : string) : Reg.F.t option =
  if String.length s = 3 && s.[0] = '%' && s.[1] = 'f' && s.[2] >= '0' && s.[2] <= '7'
  then Some (Reg.F.make (Char.code s.[2] - Char.code '0'))
  else None

(* a label reference with optional +off/-off *)
let parse_label_ref line (s : string) : string * int =
  match (String.index_opt s '+', String.index_opt s '-') with
  | Some i, _ ->
      (String.sub s 0 i, parse_int line (String.sub s (i + 1) (String.length s - i - 1)))
  | None, Some i when i > 0 ->
      (String.sub s 0 i, -parse_int line (String.sub s (i + 1) (String.length s - i - 1)))
  | _ -> (s, 0)

(* Operand grammar:
     %reg | %fN | $imm | @label(+off)? | disp? ( base? , index , scale )? *)
type raw_operand =
  | O_plain of Operand.t
  | O_labelled of (Ast.env -> Operand.t)  (* needs label resolution *)

let parse_operand line (s : string) : raw_operand =
  let s = String.trim s in
  if s = "" then perr line "empty operand"
  else if s.[0] = '%' then
    match freg_of_name line s with
    | Some f -> O_plain (Operand.Freg f)
    | None -> O_plain (Operand.Reg (reg_of_name line s))
  else if s.[0] = '$' then
    let body = String.sub s 1 (String.length s - 1) in
    if body <> "" && body.[0] = '@' then begin
      (* $@label: a label's address as an immediate *)
      let l, off = parse_label_ref line (String.sub body 1 (String.length body - 1)) in
      O_labelled (fun env -> Operand.Imm (env l + off))
    end
    else O_plain (Operand.Imm (parse_int line body))
  else if s.[0] = '@' then begin
    (* absolute memory at a label *)
    let l, off = parse_label_ref line (String.sub s 1 (String.length s - 1)) in
    O_labelled (fun env -> Operand.mem_abs (env l + off))
  end
  else if String.contains s '(' then begin
    let open_p = String.index s '(' in
    let close_p =
      match String.rindex_opt s ')' with
      | Some i when i > open_p -> i
      | _ -> perr line "unbalanced parentheses in %S" s
    in
    let disp_s = String.trim (String.sub s 0 open_p) in
    let inner = String.sub s (open_p + 1) (close_p - open_p - 1) in
    let parts = String.split_on_char ',' inner |> List.map String.trim in
    let base, index =
      match parts with
      | [ b ] -> ((if b = "" then None else Some (reg_of_name line b)), None)
      | [ b; i ] ->
          ( (if b = "" then None else Some (reg_of_name line b)),
            if i = "" then None else Some (reg_of_name line i, 1) )
      | [ b; i; sc ] ->
          ( (if b = "" then None else Some (reg_of_name line b)),
            if i = "" then None else Some (reg_of_name line i, parse_int line sc) )
      | _ -> perr line "bad memory operand %S" s
    in
    if disp_s <> "" && disp_s.[0] = '@' then begin
      let l, off = parse_label_ref line (String.sub disp_s 1 (String.length disp_s - 1)) in
      O_labelled
        (fun env -> Operand.mem ?base ?index ~disp:(env l + off) ())
    end
    else
      let disp = if disp_s = "" then 0 else parse_int line disp_s in
      O_plain (Operand.mem ?base ?index ~disp ())
  end
  else if s.[0] >= '0' && s.[0] <= '9' || (s.[0] = '-' && String.length s > 1) then
    (* a bare number is an absolute memory reference (as printed by the
       disassembler for no-base, no-index operands) *)
    O_plain (Operand.mem_abs (parse_int line s))
  else perr line "cannot parse operand %S" s

let resolve env = function O_plain o -> o | O_labelled f -> f env

(* ------------------------------------------------------------------ *)
(* Instruction parsing                                                *)
(* ------------------------------------------------------------------ *)

let cond_of_suffix (s : string) : Cond.t option =
  List.find_opt (fun c -> Cond.name c = s) Cond.all

(* Every mnemonic but the direct CTIs (parsed as branches, below) and
   the runtime-reserved ccall names its opcode; [li] is a pseudo-op
   that loads a label address or an immediate with [mov]. *)
let opcode_of_mnemonic : (string, Opcode.t) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (r : Encoding_spec.form) ->
      match r.opcode with
      | Jmp | Jcc _ | Call | Ccall -> ()
      | op -> Hashtbl.replace t (Opcode.name op) op)
    Encoding_spec.forms;
  Hashtbl.replace t "li" Opcode.Mov;
  t

(* explicit operand [k] of [op] is an FP register in every form *)
let fp_only op k =
  Array.for_all
    (fun (r : Encoding_spec.form) ->
      match r.fields.(k) with Reg_fp | Rm_fp -> true | _ -> false)
    (Encoding_spec.forms_of op)

let parse_instr line (mnemonic : string) (ops : raw_operand list) :
    (Ast.env -> Insn.t) =
  let op =
    match Hashtbl.find_opt opcode_of_mnemonic mnemonic with
    | Some op -> op
    | None -> perr line "unknown mnemonic %S" mnemonic
  in
  let n = Insn.arity op and n_ops = List.length ops in
  if n_ops <> n then perr line "%s expects %d operand(s), got %d" mnemonic n n_ops;
  let arg k env =
    if k >= n then Insn.no_operand
    else
      match resolve env (List.nth ops k) with
      | Operand.Freg _ as x -> x
      | _ when fp_only op k -> perr line "expected an FP register"
      | x -> x
  in
  fun env -> Insn.of_explicit op (arg 0 env) (arg 1 env)

(* branch mnemonics take a bare label or a numeric absolute address *)
let parse_branch line (mnemonic : string) (ops : string list) :
    (Ast.env -> Insn.t) option =
  let is_numeric l =
    l <> "" && (l.[0] = '0' && String.length l > 1 && l.[1] = 'x'
                || (l.[0] >= '0' && l.[0] <= '9'))
  in
  let target () =
    match ops with
    | [ l ] when is_numeric l ->
        let a = parse_int line l in
        fun (_ : Ast.env) -> a
    | [ l ] when l <> "" && (is_ident_char l.[0] || l.[0] = '_') ->
        fun env -> env l
    | _ -> perr line "%s expects a label" mnemonic
  in
  match mnemonic with
  | "jmp" -> (
      (* could be an indirect jmp through an operand: detect by sigil *)
      match ops with
      | [ o ] when o <> "" && (o.[0] = '%' || String.contains o '(') ->
          let ro = parse_operand line o in
          Some (fun env -> Insn.mk_jmp_ind (resolve env ro))
      | _ ->
          let t = target () in
          Some (fun env -> Insn.mk_jmp (t env)))
  | "call" -> (
      match ops with
      | [ o ] when o <> "" && (o.[0] = '%' || String.contains o '(') ->
          let ro = parse_operand line o in
          Some (fun env -> Insn.mk_call_ind (resolve env ro))
      | _ ->
          let t = target () in
          Some (fun env -> Insn.mk_call (t env)))
  | m when String.length m > 1 && m.[0] = 'j' && m <> "jmp*" -> (
      match cond_of_suffix (String.sub m 1 (String.length m - 1)) with
      | Some c ->
          let t = target () in
          Some (fun env -> Insn.mk_jcc c (t env))
      | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Directives and program assembly                                    *)
(* ------------------------------------------------------------------ *)

let parse_string_lit line (s : string) : string =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '"' || s.[String.length s - 1] <> '"' then
    perr line "expected a double-quoted string";
  Scanf.unescaped (String.sub s 1 (String.length s - 2))

(** Parse a whole program from source text. *)
let program ?(name = "asmfile") (source : string) : Ast.program =
  let entry = ref "main" in
  let text = ref [] and data = ref [] in
  let current = ref text in
  let push item = !current := item :: !(!current) in
  List.iteri
    (fun idx raw_line ->
      let line = idx + 1 in
      let s = String.trim (strip_comment raw_line) in
      if s <> "" then
        if s.[0] = '.' then begin
          (* directive *)
          let d, rest = split_stmt line s in
          match d with
          | ".text" -> current := text
          | ".data" -> current := data
          | ".entry" -> (
              match rest with
              | [ l ] -> entry := l
              | _ -> perr line ".entry expects a label")
          | ".word" ->
              let words =
                List.map
                  (fun w ->
                    let w = String.trim w in
                    if w <> "" && w.[0] = '@' then begin
                      let l, off = parse_label_ref line (String.sub w 1 (String.length w - 1)) in
                      fun (env : Ast.env) -> env l + off
                    end
                    else
                      let v = parse_int line w in
                      fun _ -> v)
                  rest
              in
              push (Ast.Word32 words)
          | ".float" ->
              push
                (Ast.Float64
                   (List.map
                      (fun w ->
                        try float_of_string (String.trim w)
                        with _ -> perr line "bad float %S" w)
                      rest))
          | ".space" -> (
              match rest with
              | [ n ] -> push (Ast.Space (parse_int line n))
              | _ -> perr line ".space expects a size")
          | ".align" -> (
              match rest with
              | [ n ] -> push (Ast.Align (parse_int line n))
              | _ -> perr line ".align expects a value")
          | ".ascii" ->
              (* re-join: the string literal may contain commas *)
              let payload = String.concat ", " rest in
              push (Ast.Bytes_lit (parse_string_lit line payload))
          | _ -> perr line "unknown directive %S" d
        end
        else if String.length s > 1 && s.[String.length s - 1] = ':' then
          push (Ast.Label (String.sub s 0 (String.length s - 1)))
        else begin
          let s, prefixes =
            if String.length s > 5 && String.sub s 0 5 = "lock " then
              (String.trim (String.sub s 5 (String.length s - 5)), Insn.prefix_lock)
            else (s, 0)
          in
          let with_prefix f env = { (f env) with Insn.prefixes } in
          let mnemonic, ops = split_stmt line s in
          match parse_branch line mnemonic ops with
          | Some f -> push (Ast.Ins (with_prefix f))
          | None ->
              let raw_ops = List.map (parse_operand line) ops in
              push (Ast.Ins (with_prefix (parse_instr line mnemonic raw_ops)))
        end)
    (String.split_on_char '\n' source);
  Ast.program ~name ~entry:!entry ~text:(List.rev !text) ~data:(List.rev !data) ()

let program_of_file (path : string) : Ast.program =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  program ~name:(Filename.basename path) source

module For_testing = struct
  let program = program
end
