(** inc→add / dec→sub strength reduction (paper §4.2, Figure 3).

    On the Pentium 4, [inc] is slower than [add 1] because it merges
    into the flags register instead of overwriting it ([inc] preserves
    CF).  On the Pentium 3 the opposite holds.  An architecture-specific
    optimization like this is exactly what a dynamic optimizer can do
    that a static compiler cannot: the binary stays generic and
    specializes itself to the processor it lands on.

    The transformation is flag-correct only when no instruction reads
    CF between the [inc] and the next full CF write — the scan below is
    a direct port of the paper's Figure 3. *)

open Isa
open Rio.Types

type stats = { mutable examined : int; mutable converted : int }

(* Direct port of the paper's inc2add: walk forward from [instr]; if
   CF is read before being written, the transformation is unsafe; if
   CF is written first, it is safe; stopping at an exit CTI is the
   paper's own simplification. *)
let inc2add (il : Rio.Instrlist.t) (instr : Rio.Instr.t) : bool =
  let rec scan (in_ : Rio.Instr.t option) ok_to_replace =
    match in_ with
    | None -> ok_to_replace
    | Some i ->
        if Rio.Instr.is_bundle i then false
        else
          let eflags = Rio.Instr.get_eflags i in
          if Eflags.reads_flag eflags Eflags.CF then false
          else if Eflags.writes_flag eflags Eflags.CF then true
          else if Rio.Instr.is_cti i then
            (* simplification: stop at first exit *)
            false
          else scan i.Rio.Instr.next false
  in
  if not (scan instr.Rio.Instr.next false) then false
  else begin
    let opcode = Rio.Instr.get_opcode instr in
    let dst = Rio.Instr.get_dst instr 0 in
    let replacement =
      match opcode with
      | Opcode.Inc -> Insn.mk_add dst (Operand.Imm 1)
      | Opcode.Dec -> Insn.mk_sub dst (Operand.Imm 1)
      | _ -> assert false
    in
    let in_ = Rio.Create.of_insn replacement in
    Rio.Instr.set_prefixes in_ (Rio.Instr.get_prefixes instr);
    Rio.Instrlist.replace il instr in_;
    true
  end

let optimize_il (il : Rio.Instrlist.t) (st : stats) =
  Rio.Instrlist.split_bundles il;
  let rec go = function
    | None -> ()
    | Some (i : Rio.Instr.t) ->
        let nxt = i.Rio.Instr.next in
        (match Rio.Instr.get_opcode i with
         | Opcode.Inc | Opcode.Dec ->
             st.examined <- st.examined + 1;
             if inc2add il i then st.converted <- st.converted + 1
         | _ -> ());
        go nxt
  in
  go (Rio.Instrlist.first il)

(* ------------------------------------------------------------------ *)

(** [make ~on_bb:false] transforms traces only (hot code); [~on_bb:true]
    additionally transforms every basic block, trading build time for
    coverage. *)
let make ~(on_bb : bool) : client =
  (* per instance: pool domains run instances side by side *)
  let totals = { examined = 0; converted = 0 } in
  let enabled = ref false in
  let hook _ctx ~tag:_ il = if !enabled then optimize_il il totals in
  {
    null_client with
    name = "strength";
    init =
      (fun rt ->
        totals.examined <- 0;
        totals.converted <- 0;
        enabled := Rio.Api.proc_get_family rt = Vm.Cost.Pentium4);
    basic_block = (if on_bb then Some hook else None);
    trace_hook = Some hook;
    exit_hook =
      (fun rt ->
        if !enabled then
          Rio.Api.printf rt "strength: converted %d out of %d\n" totals.converted
            totals.examined
        else Rio.Api.printf rt "strength: kept original inc/dec\n");
  }

module For_testing = struct
  let optimize_il = optimize_il
end
