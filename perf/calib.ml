(** A fixed CPU yardstick, independent of the code under test: a tiny
    register-machine interpreter (opcode dispatch, register and memory
    traffic, a data-dependent branch) running a fixed loop.

    A shared host's speed drifts between runs and flips between fast
    and slow states within one.  Short yardstick ticks interleaved with
    the workload sample the same mix of states the workload ran in, so
    the mean tick time tracks the speed the host gave the workload.
    Host times are reported scaled to a reference host on which one
    tick takes {!reference_ns}: the drift cancels, while a change to the
    code under test shows in full. *)

let reference_ns = 1_300_000.0

let program = [| 0; 1; 2; 3; 4; 5; 6; 7 |]

let run_kernel (iters : int) : int =
  let regs = Array.make 4 0 in
  let mem = Bytes.make 4096 '\001' in
  regs.(0) <- iters;
  let pc = ref 0 in
  while regs.(0) > 0 do
    (match program.(!pc) with
    | 0 -> regs.(1) <- (regs.(1) * 31) + regs.(0)
    | 1 -> regs.(2) <- (regs.(1) lxor (regs.(1) lsr 7)) land 4095
    | 2 -> regs.(1) <- regs.(1) + Char.code (Bytes.unsafe_get mem regs.(2))
    | 3 -> Bytes.unsafe_set mem regs.(2) (Char.unsafe_chr (regs.(1) land 255))
    | 4 -> if regs.(1) land 1 = 0 then regs.(3) <- regs.(3) + 1
    | 5 -> regs.(1) <- regs.(1) land 0xffff_ffff
    | 6 -> regs.(3) <- regs.(3) lxor regs.(2)
    | _ -> regs.(0) <- regs.(0) - 1);
    pc := if !pc = Array.length program - 1 then 0 else !pc + 1
  done;
  regs.(1) + regs.(3)

(** Tick times collected over one measured interval. *)
type meter = { mutable sum : int; mutable n : int }

let meter () = { sum = 0; n = 0 }

(** Time one tick (1.3 ms on the reference host) into [m]. *)
let tick (m : meter) : unit =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (run_kernel 50_000));
  m.sum <- m.sum + (Span.now_ns () - t0);
  m.n <- m.n + 1

let ticks m k = for _ = 1 to k do tick m done

(** Mean tick time of [m], in ns. *)
let mean (m : meter) : float = float_of_int m.sum /. float_of_int (max 1 m.n)

(** Multiply a host time measured while the yardstick ticked at [ns]
    by this to express it at the reference speed (divide a rate by it). *)
let factor (ns : float) : float = reference_ns /. ns
