(* The binary codec under Wire and Persist; see codec.mli. *)

type error =
  | Truncated of int
  | Bad_tag of { field : string; value : int }
  | Too_long of int
  | Out_of_range of { field : string; value : int }
  | Trailing of int

let error_to_string = function
  | Truncated at -> Printf.sprintf "input ends inside the field at byte %d" at
  | Bad_tag { field; value } -> Printf.sprintf "bad %s tag %d" field value
  | Too_long at ->
      Printf.sprintf "varint at byte %d does not fit a non-negative int" at
  | Out_of_range { field; value } ->
      Printf.sprintf "%s out of range (%d)" field value
  | Trailing n -> Printf.sprintf "%d trailing bytes after the last field" n

exception Error of error

let fail e = raise (Error e)

let fnv32 (s : string) ~(pos : int) ~(len : int) : int =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := !h lxor Char.code s.[i];
    h := !h * 0x01000193 land 0xffff_ffff
  done;
  !h

type 'a enum = { e_field : string; e_codes : ('a * int) list }

let enum field codes = { e_field = field; e_codes = codes }
let bool_enum = enum "bool" [ (false, 0); (true, 1) ]

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Codec.put_u32: %d out of range" v);
  Buffer.add_int32_le b (Int32.of_int v)

let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let rec put_varint b v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  if v < 0x80 then Buffer.add_uint8 b v
  else begin
    Buffer.add_uint8 b (0x80 lor (v land 0x7f));
    put_varint b (v lsr 7)
  end

let put_enum e b v = Buffer.add_uint8 b (List.assoc v e.e_codes)
let put_bool b v = put_enum bool_enum b v

let put_str16 b s =
  if String.length s > 0xffff then invalid_arg "Codec.put_str16: too long";
  Buffer.add_uint16_le b (String.length s);
  Buffer.add_string b s

type cursor = { src : string; mutable pos : int; limit : int }

(* the offset of the first of [n] bytes, which must lie before the limit *)
let take c n =
  let at = c.pos in
  if n > c.limit - at then fail (Truncated at);
  c.pos <- at + n;
  at

let u8 c = String.get_uint8 c.src (take c 1)
let u16 c = String.get_uint16_le c.src (take c 2)
let u32 c = Int32.to_int (String.get_int32_le c.src (take c 4)) land 0xffff_ffff
let i64 c = Int64.to_int (String.get_int64_le c.src (take c 8))

(* An OCaml int holds 62 value bits: the ninth byte may carry six of
   them, and no tenth byte may follow. *)
let varint c =
  let start = c.pos in
  let rec go shift acc =
    let b = u8 c in
    if shift = 56 && b > 0x3f then fail (Too_long start);
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let raw c n = String.sub c.src (take c n) n

let enum_of e c =
  let k = u8 c in
  match List.find_opt (fun (_, k') -> k' = k) e.e_codes with
  | Some (v, _) -> v
  | None -> fail (Bad_tag { field = e.e_field; value = k })

let bool c = enum_of bool_enum c
let str16 c = raw c (u16 c)

let check ~field ~lo ~hi v =
  if v < lo || v >= hi then fail (Out_of_range { field; value = v });
  v

let list ~field ~max count item c =
  let n = check ~field ~lo:0 ~hi:(max + 1) (count c) in
  List.init n (fun _ -> item c)

let decode ?(pos = 0) ?limit f s =
  let limit = Option.value limit ~default:(String.length s) in
  let c = { src = s; pos; limit } in
  match f c with
  | v -> if c.pos < limit then Result.Error (Trailing (limit - c.pos)) else Ok v
  | exception Error e -> Result.Error e
