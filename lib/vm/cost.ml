(** Processor cost model.

    The simulated machine charges a deterministic cycle cost per
    executed instruction.  The model captures exactly the asymmetries
    the paper's evaluation depends on:

    - a {e processor family} knob: on [Pentium4], [inc]/[dec] pay a
      flag-merge penalty that [add 1]/[sub 1] do not; on [Pentium3] the
      short forms are the cheap ones (§4.2 of the paper);
    - a {e return-address stack} (RAS) predictor: native [call]/[ret]
      pairs predict perfectly, but code-cache execution — which mangles
      returns into indirect jumps — cannot use it (§5);
    - a one-entry-per-site {e BTB} for indirect jumps: an indirect
      branch whose target differs from its previous target pays a full
      misprediction;
    - a 2-bit counter predictor per conditional-branch site;
    - a small extra cost for {e taken} transfers (fetch redirection),
      which is what gives traces their superior-code-layout benefit.

    Everything is deterministic so experiment outputs are reproducible. *)

open Isa

include Cost_t

let family_name = function Pentium3 -> "Pentium 3" | Pentium4 -> "Pentium 4"

let default_params = function
  | Pentium4 ->
      { family = Pentium4; mispredict = 20; taken_extra = 1;
        mem_read = 2; mem_write = 2; emu_overhead = 480 }
  | Pentium3 ->
      { family = Pentium3; mispredict = 10; taken_extra = 1;
        mem_read = 2; mem_write = 2; emu_overhead = 480 }

(** Base execution cycles for an opcode (excluding memory-operand and
    branch-resolution extras), from its {!Opcode} row. *)
let base_cycles (t : t) (op : Opcode.t) : int =
  match t.family with
  | Pentium4 -> Opcode.p4_cycles op
  | Pentium3 -> Opcode.p3_cycles op

(* ------------------------------------------------------------------ *)
(* Branch predictors (deterministic hardware state)                   *)
(* ------------------------------------------------------------------ *)

(* Predictor tables are consulted on every branch, so they use
   exact-keyed open-addressing int->int maps (no per-lookup hashing
   machinery or option allocation) instead of Hashtbl.  Keys are exact
   branch sites — predictions never alias, so the charged cycles are
   bit-identical to a per-site association. *)
type imap = {
  mutable keys : int array;          (* -1 = empty; sites are >= 0 *)
  mutable vals : int array;
  mutable imask : int;
  mutable icount : int;
}

let imap_create bits =
  let n = 1 lsl bits in
  { keys = Array.make n (-1); vals = Array.make n 0; imask = n - 1; icount = 0 }

let imap_clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.icount <- 0

(* Fibonacci hash, then linear probe to the key or the first empty. *)
let imap_slot (keys : int array) mask key =
  let i = ref ((key * 0x2545F4914F6CDD1D) lsr 16 land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> -1 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

let imap_find t key ~default =
  let i = imap_slot t.keys t.imask key in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else default

let imap_grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let n = 2 * (t.imask + 1) in
  t.keys <- Array.make n (-1);
  t.vals <- Array.make n 0;
  t.imask <- n - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = imap_slot t.keys t.imask k in
        t.keys.(j) <- k;
        t.vals.(j) <- old_vals.(i)
      end)
    old_keys

let imap_set t key v =
  if 4 * (t.icount + 1) > 3 * (t.imask + 1) then imap_grow t;
  let i = imap_slot t.keys t.imask key in
  if Array.unsafe_get t.keys i <> key then begin
    Array.unsafe_set t.keys i key;
    t.icount <- t.icount + 1
  end;
  Array.unsafe_set t.vals i v

type predictor = {
  cond : imap;                       (** site -> 2-bit saturating counter *)
  btb : imap;                        (** site -> last indirect target *)
  ras : int array;                   (** return-address stack, ring buffer *)
  mutable ras_top : int;             (** index of newest entry *)
  mutable ras_count : int;
}

let ras_depth = 16 (* power of two: ring arithmetic uses land *)

let create_predictor () =
  {
    cond = imap_create 9;
    btb = imap_create 8;
    ras = Array.make ras_depth 0;
    ras_top = ras_depth - 1;
    ras_count = 0;
  }

let reset_predictor p =
  imap_clear p.cond;
  imap_clear p.btb;
  p.ras_top <- ras_depth - 1;
  p.ras_count <- 0

(** [cond_branch t p ~site ~taken] — cycles charged for resolving a
    conditional branch at [site]; updates predictor state. *)
let cond_branch (t : t) (p : predictor) ~site ~taken : int =
  let counter = imap_find p.cond site ~default:1 in
  let predicted_taken = counter >= 2 in
  let counter' =
    if taken then min 3 (counter + 1) else max 0 (counter - 1)
  in
  imap_set p.cond site counter';
  let mis = if predicted_taken <> taken then t.mispredict else 0 in
  mis + if taken then t.taken_extra else 0

(** Direct unconditional transfer (jmp/call): always predicted. *)
let direct_jump (t : t) : int = t.taken_extra

(* Pushing onto a full ring overwrites the oldest entry — exactly the
   bounded-stack truncation the model specifies. *)
let ras_push (p : predictor) addr =
  p.ras_top <- (p.ras_top + 1) land (ras_depth - 1);
  Array.unsafe_set p.ras p.ras_top addr;
  if p.ras_count < ras_depth then p.ras_count <- p.ras_count + 1

(** [ret_branch t p ~target] — a native return: predicted by the RAS. *)
let ret_branch (t : t) (p : predictor) ~target : int =
  if p.ras_count = 0 then t.mispredict + t.taken_extra
  else begin
    let top = Array.unsafe_get p.ras p.ras_top in
    p.ras_top <- (p.ras_top - 1) land (ras_depth - 1);
    p.ras_count <- p.ras_count - 1;
    (if top = target then 0 else t.mispredict) + t.taken_extra
  end

(** [indirect_jump t p ~site ~target] — indirect jmp/call resolved via
    the BTB: hit iff the same site jumped to the same target last time. *)
let indirect_jump (t : t) (p : predictor) ~site ~target : int =
  let hit = imap_find p.btb site ~default:(-1) = target in
  imap_set p.btb site target;
  (if hit then 0 else t.mispredict) + t.taken_extra
