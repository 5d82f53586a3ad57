(** The simulated machine: memory, hardware threads, predictor state,
    cycle counter, and I/O ports.

    The machine is the substrate "hardware + OS" that both native
    execution and the DynamoRIO runtime drive.  It knows nothing about
    code caches; the RIO layer reserves a memory region for its cache
    and registers a {e trap base} — control transfers at or above that
    address stop the interpreter and hand control to the runtime
    (modelling exit stubs and lookup routines). *)

open Isa

include Machine_t

let icache_bits = 15
let icache_mask = (1 lsl icache_bits) - 1

let fresh_islot () =
  { is_pc = -1; is_gen = 0; is_insn = Insn.mk_hlt (); is_len = 0; is_cost = 0 }

(* All lines start out pointing at one shared never-filled slot
   (is_pc = -1, so it can never hit); a line gets its own record on
   first refill.  Creating a machine then costs one pointer fill, not
   32K record allocations. *)
let dummy_islot = fresh_islot ()

let create ?(family = Cost.Pentium4) ?(mem_size = 1 lsl 26) () =
  {
    mem = Memory.create mem_size;
    cost = Cost.default_params family;
    pred = Cost.create_predictor ();
    cycles = 0;
    insns_retired = 0;
    output = [];
    input = [];
    threads = [];
    next_tid = 0;
    trap_base = max_int;
    icache = Array.make (1 lsl icache_bits) dummy_islot;
    icache_gens = Array.make ((mem_size lsr Memory.page_bits) + 1) 0;
    emu_slot = fresh_islot ();
    signal_queue = [];
    intercept_signals = false;
    smc_trap = false;
    pending_smc = [];
  }

let mem m = m.mem
let cost m = m.cost
let cycles m = m.cycles
let add_cycles m n = m.cycles <- m.cycles + n
let output m = List.rev m.output
let set_input m vs = m.input <- vs
let push_output m v = m.output <- v :: m.output

let pop_input m =
  match m.input with
  | [] -> 0
  | v :: rest ->
      m.input <- rest;
      v

(* ------------------------------------------------------------------ *)
(* Threads                                                            *)
(* ------------------------------------------------------------------ *)

let add_thread m ~entry ~stack_top =
  let t =
    {
      tid = m.next_tid;
      regs = Array.make 8 0;
      fregs = Array.make 8 0.0;
      eflags = Eflags.empty;
      pc = entry;
      alive = true;
      pending_signals = [];
    }
  in
  t.regs.(Reg.number Reg.Esp) <- stack_top;
  m.next_tid <- m.next_tid + 1;
  m.threads <- m.threads @ [ t ];
  t

let live_threads m = List.filter (fun t -> t.alive) m.threads
let main_thread m = List.hd m.threads

let get_reg (t : thread) (r : Reg.t) = t.regs.(Reg.number r)
let set_reg (t : thread) (r : Reg.t) v = t.regs.(Reg.number r) <- v land Arith.mask32
let get_freg (t : thread) (f : Reg.F.t) = t.fregs.(Reg.F.number f)
let set_freg (t : thread) (f : Reg.F.t) v = t.fregs.(Reg.F.number f) <- v

(* ------------------------------------------------------------------ *)
(* Signals                                                            *)
(* ------------------------------------------------------------------ *)

(** Schedule an asynchronous signal: at (or after) cycle [at], thread
    [tid]'s control is redirected to [handler] (old pc pushed on its
    stack, handler returns with [ret]). *)
let schedule_signal m ~at ~tid ~handler =
  m.signal_queue <-
    List.sort compare ((at, tid, handler) :: m.signal_queue)

(** Move due signals into their thread's pending queue; returns true if
    any became pending. *)
let poll_signals m =
  let due, later = List.partition (fun (at, _, _) -> at <= m.cycles) m.signal_queue in
  m.signal_queue <- later;
  List.iter
    (fun (_, tid, h) ->
      match List.find_opt (fun t -> t.tid = tid) m.threads with
      | Some t when t.alive -> t.pending_signals <- t.pending_signals @ [ h ]
      | _ -> ())
    due;
  due <> []

(* ------------------------------------------------------------------ *)
(* Instruction cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Static (operand-shape) cost of an instruction: base cycles plus
   memory-operand read/write costs, including implicit stack traffic. *)
let static_cost (c : Cost.t) (i : Insn.t) : int =
  let base = Cost.base_cycles c i.opcode in
  let mem_srcs =
    match i.opcode with
    | Lea -> 0 (* address computation only *)
    | _ -> Array.fold_left (fun n o -> if Operand.is_mem o then n + 1 else n) 0 i.srcs
  in
  let mem_dsts =
    Array.fold_left (fun n o -> if Operand.is_mem o then n + 1 else n) 0 i.dsts
  in
  let implicit_r = if Opcode.implicit_stack_read i.opcode then 1 else 0 in
  let implicit_w = if Opcode.implicit_stack_write i.opcode then 1 else 0 in
  base
  + ((mem_srcs + implicit_r) * c.mem_read)
  + ((mem_dsts + implicit_w) * c.mem_write)

exception Bad_code of { pc : int; err : Decode.error }

(** Fetch-and-decode with caching.  Returns the (mutable, reused) cache
    slot — valid until the next fetch that maps to the same line. *)
let fetch_slot m pc : islot =
  let slot = Array.unsafe_get m.icache (pc land icache_mask) in
  let gens = m.icache_gens in
  let gi = pc lsr Memory.page_bits in
  (* a pc outside memory never matches (slots are only filled after a
     successful decode) and faults in the decoder below *)
  let gen = if gi < Array.length gens then Array.unsafe_get gens gi else 0 in
  if slot.is_pc = pc && slot.is_gen = gen then slot
  else
    match Decode.full (Memory.fetch m.mem) pc with
    | Error err -> raise (Bad_code { pc; err })
    | Ok (insn, len) ->
        let slot =
          if slot == dummy_islot then begin
            let s = fresh_islot () in
            Array.unsafe_set m.icache (pc land icache_mask) s;
            s
          end
          else slot
        in
        slot.is_pc <- pc;
        slot.is_gen <- gen;
        slot.is_insn <- insn;
        slot.is_len <- len;
        slot.is_cost <- static_cost m.cost insn;
        (* executed code becomes write-watched so self-modification
           is detected (code-cache / icache consistency) *)
        Memory.watch_code m.mem ~addr:pc ~len;
        slot

(** Decode without caching (the pure-emulation path re-decodes every
    time, which is the point of Table 1's first row).  Fills the
    machine's scratch slot. *)
let fetch_slot_nocache m pc : islot =
  match Decode.full (Memory.fetch m.mem) pc with
  | Error err -> raise (Bad_code { pc; err })
  | Ok (insn, len) ->
      let slot = m.emu_slot in
      slot.is_pc <- pc;
      slot.is_insn <- insn;
      slot.is_len <- len;
      slot.is_cost <- static_cost m.cost insn;
      slot

(** Invalidate cached decodes for [len] bytes at [addr].  The RIO layer
    calls this after writing code (patching links, emitting fragments). *)
let invalidate_icache m ~addr ~len =
  (* conservative: decoded instructions are at most 13 bytes long, so
     also cover decodes starting shortly before the range; the page
     generation bump invalidates every cached decode on those pages *)
  let lo = max 0 (addr - 13) in
  let hi = addr + len - 1 in
  let gens = m.icache_gens in
  let p1 = min (Array.length gens - 1) (hi lsr Memory.page_bits) in
  for p = lo lsr Memory.page_bits to p1 do
    gens.(p) <- gens.(p) + 1
  done

(** Reset the per-run machine state for serving a new request on a
    reused machine: threads, I/O ports, cycle and instruction counters,
    signals, and predictor go back to power-on.  Memory contents and
    cached decodes are left alone — the warm-reuse path (Rio) zeroes
    the pages the previous run wrote and restores the program image,
    invalidating cached decodes only where bytes changed. *)
let reset_for_run m =
  m.cycles <- 0;
  m.insns_retired <- 0;
  m.output <- [];
  m.input <- [];
  m.threads <- [];
  m.next_tid <- 0;
  m.signal_queue <- [];
  m.pending_smc <- [];
  Cost.reset_predictor m.pred

module For_testing = struct
  let main_thread = main_thread
end
