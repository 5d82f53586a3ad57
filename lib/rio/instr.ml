(** The adaptive level-of-detail [Instr] (paper §3.1).

    An [Instr] lazily migrates between five representations.  Reading
    richer information raises the level implicitly (and pays the decode
    cost exactly once); mutating operands invalidates the raw bytes and
    moves the instruction to Level 4, whose encode must run the full
    template-matching encoder.  "Switching incrementally between levels
    costs no more than a single switch spanning multiple levels."

    [Instr]s are intrusive doubly-linked-list nodes (see {!Instrlist}),
    like DynamoRIO's.  The [note] field is the client annotation slot
    from §3.2. *)

open Isa

include Instr_t

let make payload = { payload; note = No_note; prev = None; next = None; owner = 0 }

(* ------------------------------------------------------------------ *)
(* Construction at each level                                         *)
(* ------------------------------------------------------------------ *)

let of_bundle ~addr raw = make (Bundle { raw; addr })
let of_raw ~addr raw = make (Raw { raw; addr })
let of_insn (insn : Insn.t) =
  make (Full { raw = None; raw_valid = false; addr = 0; insn })

let of_decoded ~addr ~raw insn =
  make (Full { raw = Some raw; raw_valid = true; addr; insn })

let level (i : t) : Level.t =
  match i.payload with
  | Bundle _ -> L0
  | Raw _ -> L1
  | RawOp _ -> L2
  | Full { raw_valid = true; _ } -> L3
  | Full { raw_valid = false; _ } -> L4

(* ------------------------------------------------------------------ *)
(* Level raising                                                      *)
(* ------------------------------------------------------------------ *)

exception Is_bundle
(** Raised when per-instruction detail is requested from an L0 bundle;
    split the bundle first ({!Instrlist.split_bundles}). *)

exception Bad_raw_bits of { addr : int; msg : string }
(** Raised when raw bytes fail to decode during a level raise — the
    stored bits are not a valid instruction (cache corruption, or a
    client handing over garbage).  Typed so the dispatcher's recovery
    ladder can catch it and heal instead of dying. *)

let bad_raw ~addr e =
  raise (Bad_raw_bits { addr; msg = Decode.error_to_string e })

let raw_of (i : t) =
  match i.payload with
  | Bundle { raw; addr } | Raw { raw; addr } | RawOp { raw; addr; _ } -> (raw, addr)
  | Full { raw = Some raw; raw_valid = true; addr; _ } -> (raw, addr)
  | Full _ -> invalid_arg "Instr.raw_of: level 4"

(** Raise to at least L2: know the opcode.  No-op at L2+. *)
let uplevel2 (i : t) : unit =
  match i.payload with
  | Bundle _ -> raise Is_bundle
  | Raw { raw; addr } -> (
      match Decode.opcode_eflags (Decode.fetch_bytes raw) 0 with
      | Ok (opcode, _) -> i.payload <- RawOp { raw; addr; opcode }
      | Error e -> bad_raw ~addr e)
  | RawOp _ | Full _ -> ()

(** Raise to at least L3: fully decode.  No-op at L3/L4. *)
let uplevel3 (i : t) : unit =
  match i.payload with
  | Bundle _ -> raise Is_bundle
  | Raw { raw; addr } | RawOp { raw; addr; _ } -> (
      (* decode with the original address so pc-relative targets
         resolve to their absolute values *)
      let fetch a = Char.code (Bytes.get raw (a - addr)) in
      match Decode.full fetch addr with
      | Ok (insn, _) -> i.payload <- Full { raw = Some raw; raw_valid = true; addr; insn }
      | Error e -> bad_raw ~addr e)
  | Full _ -> ()

(** Invalidate raw bytes: the instruction was modified (→ L4). *)
let invalidate_raw (i : t) : unit =
  uplevel3 i;
  match i.payload with
  | Full { insn; addr; raw; _ } ->
      i.payload <- Full { raw; raw_valid = false; addr; insn }
  | _ -> assert false

(** Deep copy: fresh payload bytes, [note] preserved, list links and
    ownership cleared.  Used by the client-hook barrier to snapshot a
    fragment's IL before handing it to a potentially-faulty client. *)
let copy (i : t) : t =
  let payload =
    match i.payload with
    | Bundle { raw; addr } -> Bundle { raw = Bytes.copy raw; addr }
    | Raw { raw; addr } -> Raw { raw = Bytes.copy raw; addr }
    | RawOp { raw; addr; opcode } -> RawOp { raw = Bytes.copy raw; addr; opcode }
    | Full { raw; raw_valid; addr; insn } ->
        Full { raw = Option.map Bytes.copy raw; raw_valid; addr; insn }
  in
  { payload; note = i.note; prev = None; next = None; owner = 0 }

(* ------------------------------------------------------------------ *)
(* Accessors (paper-style API; levels adjust implicitly)              *)
(* ------------------------------------------------------------------ *)

let is_bundle (i : t) = match i.payload with Bundle _ -> true | _ -> false

(** Original application address of the instruction's raw bytes
    (0 for newly created instructions). *)
let addr (i : t) =
  match i.payload with
  | Bundle { addr; _ } | Raw { addr; _ } | RawOp { addr; _ } | Full { addr; _ } -> addr

let get_opcode (i : t) : Opcode.t =
  uplevel2 i;
  match i.payload with
  | RawOp { opcode; _ } -> opcode
  | Full { insn; _ } -> insn.Insn.opcode
  | _ -> assert false

(** Eflags effect mask — the Level-2 query central to transformation
    safety analyses. *)
let get_eflags (i : t) : Eflags.mask = Opcode.eflags (get_opcode i)

let get_insn (i : t) : Insn.t =
  uplevel3 i;
  match i.payload with Full { insn; _ } -> insn | _ -> assert false

let num_srcs i = Insn.num_srcs (get_insn i)
let get_src i n = Insn.src (get_insn i) n
let get_dst i n = Insn.dst (get_insn i) n
let get_prefixes i = (get_insn i).Insn.prefixes

(** Replace the decoded form entirely (→ L4). *)
let set_insn (i : t) (insn : Insn.t) : unit =
  let addr = addr i and raw =
    match i.payload with
    | Full { raw; _ } -> raw
    | Bundle { raw; _ } | Raw { raw; _ } | RawOp { raw; _ } -> Some raw
  in
  i.payload <- Full { raw; raw_valid = false; addr; insn }

let set_src (i : t) n (o : Operand.t) : unit =
  let insn = get_insn i in
  let srcs = Array.copy insn.Insn.srcs in
  srcs.(n) <- o;
  set_insn i { insn with Insn.srcs }

let set_prefixes (i : t) p : unit =
  let insn = get_insn i in
  set_insn i { insn with Insn.prefixes = p }

let is_cti (i : t) : bool =
  if is_bundle i then false (* bundles never contain CTIs by construction *)
  else Opcode.is_cti (get_opcode i)

(* ------------------------------------------------------------------ *)
(* Length and encoding                                                *)
(* ------------------------------------------------------------------ *)

(** Encoded length when placed at [pc].  For L0–L3 with
    position-independent content this is the raw length; CTIs are
    re-encoded because their pc-relative form depends on placement. *)
let length ?(pc = 0) (i : t) : int =
  match i.payload with
  | Bundle { raw; _ } | Raw { raw; _ } | RawOp { raw; _ } -> Bytes.length raw
  | Full { raw = Some raw; raw_valid = true; insn; _ } ->
      if Insn.is_cti insn then Encode.length ~pc insn else Bytes.length raw
  | Full { insn; _ } -> Encode.length ~pc insn

(** Encode into bytes for placement at [pc].  Raw bytes are copied
    whenever they are valid (L0–L3, non-CTI); L4 and CTIs run the full
    encoder. *)
let encode ~pc (i : t) : Bytes.t =
  match i.payload with
  | Bundle { raw; _ } | Raw { raw; _ } | RawOp { raw; _ } -> Bytes.copy raw
  | Full { raw = Some raw; raw_valid = true; insn; _ } ->
      if Insn.is_cti insn then Encode.encode_exn ~pc insn else Bytes.copy raw
  | Full { insn; _ } -> Encode.encode_exn ~pc insn

(* ------------------------------------------------------------------ *)
(* Notes                                                              *)
(* ------------------------------------------------------------------ *)

let set_note i n = i.note <- n
let get_note i = i.note

let pp ppf (i : t) =
  match i.payload with
  | Bundle { raw; addr } ->
      Fmt.pf ppf "<L0 bundle %d bytes @0x%x>" (Bytes.length raw) addr
  | Raw { raw; addr } -> Fmt.pf ppf "<L1 %d bytes @0x%x>" (Bytes.length raw) addr
  | RawOp { opcode; addr; _ } -> Fmt.pf ppf "<L2 %a @0x%x>" Opcode.pp opcode addr
  | Full { raw_valid; insn; _ } ->
      Fmt.pf ppf "<L%d %s>" (if raw_valid then 3 else 4) (Disasm.insn_to_string insn)

let to_string i = Fmt.str "%a" pp i

module For_testing = struct
  let length = length
end
