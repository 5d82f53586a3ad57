(** Two-pass assembler with branch relaxation.

    Layout iterates to a fixed point: instruction lengths depend on
    label addresses (rel8 vs rel32 branch forms, disp8 vs disp32), and
    label addresses depend on lengths.  Each pass recomputes every
    item's size under the current label table; in practice this
    converges in two or three passes (a safety bound guards against
    pathological oscillation). *)

open Isa

exception Assembly_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Assembly_error s)) fmt

type laid_item = { item : Ast.item; mutable addr : int; mutable size : int }

let item_size (env : Ast.env) ~addr (it : Ast.item) : int =
  match it with
  | Ast.Label _ -> 0
  | Ast.Align n ->
      if n <= 0 then err "align %d" n
      else (n - (addr mod n)) mod n
  | Ast.Bytes_lit s -> String.length s
  | Ast.Word32 ws -> 4 * List.length ws
  | Ast.Float64 fs -> 8 * List.length fs
  | Ast.Space n -> n
  | Ast.Ins f -> (
      let insn = f env in
      match Encode.encode ~pc:addr insn with
      | Ok b -> Bytes.length b
      | Error e ->
          err "cannot encode %s: %s" (Disasm.insn_to_string insn)
            (Encode.error_to_string e))

(* Collect label definitions in a segment under the current layout. *)
let collect_labels (items : laid_item list) (tbl : (string, int) Hashtbl.t) =
  List.iter
    (fun li ->
      match li.item with
      | Ast.Label name ->
          if Hashtbl.mem tbl name then raise (Ast.Duplicate_label name);
          Hashtbl.replace tbl name li.addr
      | _ -> ())
    items

let assemble ?(text_base = Image.default_text_base)
    ?(data_base = Image.default_data_base) (p : Ast.program) : Image.t =
  let text = List.map (fun item -> { item; addr = 0; size = 0 }) p.text in
  let data = List.map (fun item -> { item; addr = 0; size = 0 }) p.data in
  let labels : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let env name =
    match Hashtbl.find_opt labels name with
    | Some a -> a
    | None -> raise (Ast.Unknown_label name)
  in
  (* Pass 0: lay out with all unknown labels at the segment base, so
     every size is defined; then iterate to fixed point. *)
  let layout ~first =
    let place base items =
      let addr = ref base in
      List.iter
        (fun li ->
          li.addr <- !addr;
          let env name =
            if first then Option.value (Hashtbl.find_opt labels name) ~default:base
            else env name
          in
          li.size <- item_size env ~addr:!addr li.item;
          if li.size < 0 || li.size > Image.app_space_end - !addr then
            err "item at 0x%x (%d bytes) does not fit below 0x%x" !addr li.size
              Image.app_space_end;
          addr := !addr + li.size)
        items
    in
    place text_base text;
    place data_base data;
    Hashtbl.reset labels;
    collect_labels text labels;
    collect_labels data labels
  in
  layout ~first:true;
  let snapshot () = List.map (fun li -> (li.addr, li.size)) (text @ data) in
  let rec converge n prev =
    if n > 100 then err "branch relaxation did not converge";
    layout ~first:false;
    let cur = snapshot () in
    if cur <> prev then converge (n + 1) cur
  in
  converge 0 (snapshot ());
  (* Final emission *)
  let emit_segment base (items : laid_item list) : Bytes.t =
    let total =
      List.fold_left (fun acc li -> max acc (li.addr + li.size - base)) 0 items
    in
    let out = Bytes.make total '\000' in
    List.iter
      (fun li ->
        let off = li.addr - base in
        match li.item with
        | Ast.Label _ | Ast.Align _ | Ast.Space _ -> ()
        | Ast.Bytes_lit s -> Bytes.blit_string s 0 out off (String.length s)
        | Ast.Word32 ws ->
            List.iteri
              (fun k w ->
                let v = w env land 0xFFFF_FFFF in
                Bytes.set_int32_le out (off + (4 * k)) (Int32.of_int v))
              ws
        | Ast.Float64 fs ->
            List.iteri
              (fun k v -> Bytes.set_int64_le out (off + (8 * k)) (Int64.bits_of_float v))
              fs
        | Ast.Ins f -> (
            let insn = f env in
            match Encode.encode ~pc:li.addr insn with
            | Ok b ->
                if Bytes.length b <> li.size then
                  err "size drift on %s: laid %d, encoded %d"
                    (Disasm.insn_to_string insn) li.size (Bytes.length b);
                Bytes.blit b 0 out off (Bytes.length b)
            | Error e ->
                err "cannot encode %s: %s" (Disasm.insn_to_string insn)
                  (Encode.error_to_string e)))
      items;
    out
  in
  let text_bytes = emit_segment text_base text in
  let data_bytes = emit_segment data_base data in
  let entry =
    match Hashtbl.find_opt labels p.entry with
    | Some a -> a
    | None -> err "entry label %S undefined" p.entry
  in
  {
    Image.name = p.name;
    entry;
    text_base;
    text = text_bytes;
    data_base;
    data = data_bytes;
    labels = Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels [];
  }
