(** Quickstart: run a program under the RIO runtime with a simple
    instrumentation client.

    {v dune exec examples/quickstart.exe v}

    This is the smallest end-to-end use of the public API:
    1. write a program in the assembler DSL,
    2. assemble and load it into a simulated machine,
    3. attach a client that counts basic-block executions,
    4. run under the code cache and inspect results. *)

open Asm.Dsl

(* 1. a program: sum the first 10,000 integers, print the sum *)
let prog =
  program ~name:"sum" ~entry:"main"
    ~text:
      [
        label "main";
        mov eax (i 0);
        mov ecx (i 1);
        label "loop";
        add eax ecx;
        inc ecx;
        cmp ecx (i 10_000);
        j le "loop";
        out eax;
        hlt;
      ]
    ()

let () =
  (* 2. assemble + load *)
  let image = Asm.Assemble.assemble prog in
  let machine = Vm.Machine.create () in
  ignore (Asm.Image.load machine image);

  (* 3. a client: Table-3 hooks + a clean call counting executions *)
  let executions = ref 0 in
  let client =
    {
      Rio.Types.null_client with
      name = "quickstart";
      basic_block =
        Some
          (fun ctx ~tag il ->
            Printf.printf "  built basic block for app address 0x%x (%d instrs)\n"
              tag
              (Rio.Instrlist.length il);
            let call = Rio.Api.clean_call ctx.Rio.Types.rt (fun _ -> incr executions) in
            match Rio.Instrlist.first il with
            | Some first -> Rio.Instrlist.insert_before il first call
            | None -> Rio.Instrlist.append il call);
      trace_hook =
        Some
          (fun _ ~tag il ->
            Printf.printf "  built trace at 0x%x (%d instrs)\n" tag
              (Rio.Instrlist.length il));
    }
  in

  (* 4. run *)
  let rt = Rio.create ~client machine in
  let outcome = Rio.run rt in
  Printf.printf "\nprogram output: %s\n"
    (String.concat ", " (List.map string_of_int (Vm.Machine.output machine)));
  Printf.printf "stopped: %s after %d simulated cycles (%d instructions)\n"
    (Rio.stop_reason_to_string outcome.Rio.reason)
    outcome.Rio.cycles outcome.Rio.insns;
  Printf.printf "basic-block executions observed by the client: %d\n" !executions;
  Format.printf "\nruntime statistics:@.%a@."
    (Rio.Stats.pp_report (Rio.options rt))
    (Rio.stats rt)
