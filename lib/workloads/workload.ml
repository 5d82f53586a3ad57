(** Workload infrastructure.

    Each workload is a synthetic SynISA program named after the
    SPEC2000 benchmark whose {e behavioural character} it reproduces
    (see DESIGN.md §2): loop-dominated FP with register-pressure
    reloads, branchy integer with indirect dispatch, call-heavy,
    low-code-reuse multi-phase, and so on.  Figure 5's shape depends on
    those characters, not on the original SPEC source.

    Every program finishes by writing a checksum to the output port and
    halting, so observational-equivalence tests can compare native,
    emulated, and code-cache executions exactly. *)

type t = {
  name : string;
  spec_name : string;      (** the SPEC2000 benchmark this models *)
  fp : bool;               (** floating-point (vs integer) benchmark *)
  description : string;
  program : Asm.Ast.program;
  input : int list;        (** values served by the [in] port *)
}

let make ~name ~spec_name ~fp ~description ?(input = []) program =
  { name; spec_name; fp; description; program; input }

(* ------------------------------------------------------------------ *)
(* Deterministic pseudo-random data for data segments                 *)
(* ------------------------------------------------------------------ *)

(** Linear congruential generator (Numerical Recipes constants),
    yielding non-negative 31-bit values. *)
let lcg ?(seed = 12345) n : int list =
  let state = ref seed in
  List.init n (fun _ ->
      state := (1664525 * !state + 1013904223) land 0xFFFF_FFFF;
      !state lsr 1)

let lcg_mod ?seed n m = List.map (fun v -> v mod m) (lcg ?seed n)

let lcg_floats ?(seed = 999) n : float list =
  let ints = lcg ~seed n in
  List.map (fun v -> float_of_int (v land 0xFFFF) /. 65536.0 +. 0.25) ints

(* ------------------------------------------------------------------ *)
(* Request parameterization (serving)                                  *)
(* ------------------------------------------------------------------ *)

(** The per-request input words a serving variant's preamble consumes
    (four LCG words derived from the request seed). *)
let request_input ~seed : int list = lcg ~seed:(seed + 1) 4

let with_input (w : t) (input : int list) : t = { w with input }

(** Wrap a workload for serving: a fixed preamble reads the four
    request words, folds them into a fingerprint written to the output
    port, zeroes its scratch registers, and jumps to the original
    entry.  The text is {e identical} for every request seed — only the
    input stream differs — so a warm code cache built for one seed is
    directly reusable for the next. *)
let serving_variant (w : t) : t =
  let open Asm.Dsl in
  let preamble =
    [
      label "__request_entry";
      in_ eax;
      in_ ebx;
      xor eax ebx;
      in_ ebx;
      add eax ebx;
      in_ ebx;
      xor eax ebx;
      out eax;
      mov eax (i 0);
      mov ebx (i 0);
      jmp w.program.Asm.Ast.entry;
    ]
  in
  {
    w with
    name = w.name;
    program =
      {
        w.program with
        Asm.Ast.entry = "__request_entry";
        Asm.Ast.text = preamble @ w.program.Asm.Ast.text;
      };
  }

(* ------------------------------------------------------------------ *)
(* Running                                                            *)
(* ------------------------------------------------------------------ *)

type run_result = {
  output : int list;
  cycles : int;
  insns : int;
  ok : bool;               (** program halted normally *)
  detail : string;
}

(** Run natively (or in pure interpreter-emulation mode via the
    scheduler, for calibration tests). *)
let run_native ?(family = Vm.Cost.Pentium4) ?(emulate = false) (w : t) : run_result =
  let image = Asm.Assemble.assemble w.program in
  let m = Vm.Machine.create ~family () in
  Vm.Machine.set_input m w.input;
  ignore (Asm.Image.load m image);
  let o = Vm.Sched.run ~emulate m in
  {
    output = Vm.Machine.output m;
    cycles = o.Vm.Sched.cycles;
    insns = o.Vm.Sched.insns;
    ok = o.Vm.Sched.stop = Vm.Interp.Halted;
    detail = Vm.Interp.stop_to_string o.Vm.Sched.stop;
  }

(** Run under the RIO runtime with the given options and client.
    Returns the result plus the runtime (for stats inspection). *)
let run_rio ?(family = Vm.Cost.Pentium4) ?(opts = Rio.Options.default)
    ?(client = Rio.Types.null_client) (w : t) : run_result * Rio.t =
  let image = Asm.Assemble.assemble w.program in
  let m = Vm.Machine.create ~family () in
  Vm.Machine.set_input m w.input;
  ignore (Asm.Image.load m image);
  let rt = Rio.create ~opts ~client m in
  let o = Rio.run rt in
  ( {
      output = Vm.Machine.output m;
      cycles = o.Rio.cycles;
      insns = o.Rio.insns;
      ok = o.Rio.reason = Rio.All_exited;
      detail = Rio.stop_reason_to_string o.Rio.reason;
    },
    rt )

(* ------------------------------------------------------------------ *)
(* Serving-pool plumbing                                              *)
(* ------------------------------------------------------------------ *)

(** Boot table for a workload mix: one boot per workload, image
    assembled once, cold-load machine factory per instance. *)
let pool_boots ?(client = fun () -> Rio.Types.null_client) ?cache_dir ~opts
    (wls : t list) : (string * Rio.Pool.boot) list =
  List.map
    (fun w ->
      let image = Asm.Assemble.assemble w.program in
      ( w.name,
        {
          Rio.Pool.boot_machine =
            (fun () ->
              let m = Vm.Machine.create () in
              Asm.Image.load_cold m image;
              m);
          boot_entry = image.Asm.Image.entry;
          boot_stack_top = Asm.Image.default_stack_top;
          boot_restore = (fun m ~zeroed -> Asm.Image.restore m image ~zeroed);
          boot_opts = opts w.name;
          boot_client = client;
          boot_image_digest = Asm.Image.digest image;
          boot_cache =
            Option.map
              (fun dir -> Filename.concat dir (Rio.Pool.cache_file_name w.name))
              cache_dir;
        } ))
    wls

(** Request [i] round-robins the mix at seed [seed_base + i]. *)
let request_maker ~(native : t -> int list) (wls : t list) ~seed_base n :
    Rio.Pool.request list =
  let nwl = List.length wls in
  List.init n (fun i ->
      let w = List.nth wls (i mod nwl) in
      let seed = seed_base + i in
      let input = request_input ~seed @ w.input in
      {
        Rio.Pool.req_id = i;
        req_key = w.name;
        req_seed = seed;
        req_input = input;
        req_expect = Some (native (with_input w input));
      })
