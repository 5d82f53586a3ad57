(** The project's one JSON dialect: objects, arrays, strings, ints,
    floats, bools and null, printed and parsed here with no external
    dependency.  Configuration bundles ({!Bundle}) and the bench
    harness's datapoints both go through it.

    The printer is canonical — a bundle's digest is a hash of its
    printed payload, so its output must never change: two-space
    indented objects, scalar arrays inline, floats at [digits]
    significant digits (17 round-trips every float) with a [.0] kept
    on integral values.  Non-finite floats print as [null], so every
    output is valid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** The printed document, newline-terminated. *)
let to_string ?(digits = 17) (j : t) : string =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let escape s =
    String.iter
      (fun c ->
        match c with
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | '\t' -> add "\\t"
        | '\r' -> add "\\r"
        | c when Char.code c < 0x20 -> add (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s
  in
  let nested = function Arr _ | Obj _ -> true | _ -> false in
  let rec go ind j =
    let pad = String.make (ind + 2) ' ' in
    match j with
    | Null -> add "null"
    | Bool b -> add (if b then "true" else "false")
    | Int i -> add (string_of_int i)
    | Float f when not (Float.is_finite f) -> add "null"
    | Float f ->
        let s = Printf.sprintf "%.*g" digits f in
        add (if String.contains s '.' || String.contains s 'e' then s else s ^ ".0")
    | Str s -> add "\""; escape s; add "\""
    | Arr [] -> add "[]"
    | Arr xs when List.exists nested xs ->
        add "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then add ",\n";
            add pad;
            go (ind + 2) x)
          xs;
        add "\n"; add (String.make ind ' '); add "]"
    | Arr xs ->
        add "[";
        List.iteri (fun i x -> if i > 0 then add ", "; go ind x) xs;
        add "]"
    | Obj [] -> add "{}"
    | Obj kvs ->
        add "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then add ",\n";
            add pad; add "\""; escape k; add "\": ";
            go (ind + 2) v)
          kvs;
        add "\n"; add (String.make ind ' '); add "}"
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(** Deepest array/object nesting {!of_string} accepts; deeper input is
    a parse error rather than a stack overflow. *)
let max_depth = 512

(** Recursive-descent parser for the dialect above.  Errors carry a
    1-based line number.  Duplicate object keys are rejected (they
    would make round-tripping ambiguous). *)
let of_string (s : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    let line = ref 1 in
    for i = 0 to min !pos (n - 1) - 1 do
      if s.[i] = '\n' then incr line
    done;
    Error (Printf.sprintf "line %d: %s" !line msg)
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then (incr pos; Ok ())
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; Ok v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    let* () = expect '"' in
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos; Ok (Buffer.contents buf)
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape"
            else (
              (match s.[!pos] with
              | '"' -> Buffer.add_char buf '"'; incr pos
              | '\\' -> Buffer.add_char buf '\\'; incr pos
              | '/' -> Buffer.add_char buf '/'; incr pos
              | 'n' -> Buffer.add_char buf '\n'; incr pos
              | 't' -> Buffer.add_char buf '\t'; incr pos
              | 'r' -> Buffer.add_char buf '\r'; incr pos
              | 'b' -> Buffer.add_char buf '\b'; incr pos
              | 'u' ->
                  (* only codepoints < 0x80 are ever emitted by the
                     printer; decode those, pass others through raw *)
                  if !pos + 4 < n then begin
                    (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                    | Some c when c >= 0 && c < 0x80 -> Buffer.add_char buf (Char.chr c)
                    | _ -> Buffer.add_string buf ("\\u" ^ String.sub s (!pos + 1) 4));
                    pos := !pos + 5
                  end
                  else incr pos
              | c -> Buffer.add_char buf c; incr pos);
              go ())
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do incr pos done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Ok (Float f)
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Ok (Int i)
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '{' ->
        incr pos;
        let rec fields acc =
          skip_ws ();
          match peek () with
          | Some '}' -> incr pos; Ok (Obj (List.rev acc))
          | _ ->
              let* k = parse_string () in
              if List.mem_assoc k acc then fail (Printf.sprintf "duplicate key %S" k)
              else
                let* () = (skip_ws (); expect ':') in
                let* v = parse_value (depth + 1) in
                let acc = (k, v) :: acc in
                skip_ws ();
                (match peek () with
                | Some ',' -> incr pos; fields acc
                | Some '}' -> incr pos; Ok (Obj (List.rev acc))
                | _ -> fail "expected ',' or '}'")
        in
        fields []
    | Some '[' ->
        incr pos;
        let rec elems acc =
          skip_ws ();
          match peek () with
          | Some ']' -> incr pos; Ok (Arr (List.rev acc))
          | _ ->
              let* v = parse_value (depth + 1) in
              let acc = v :: acc in
              skip_ws ();
              (match peek () with
              | Some ',' -> incr pos; elems acc
              | Some ']' -> incr pos; Ok (Arr (List.rev acc))
              | _ -> fail "expected ',' or ']'")
        in
        elems []
    | Some '"' -> Result.map (fun s -> Str s) (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let* v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after document" else Ok v
