(** Shared scaffolding for the bench sweep subcommands (cachesweep,
    optsweep, parsweep): CLI parsing, native-checked runs,
    and JSON datapoint emission (through {!Rio.Json}).  Factoring it here keeps each sweep
    about its experiment, not its plumbing. *)

let pr fmt = Printf.printf fmt

let geomean xs =
  exp
    (List.fold_left (fun a x -> a +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let time_now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)
(* ------------------------------------------------------------------ *)

type cli = {
  quick : bool;
  out_path : string;
  extra : (string * string) list;  (* accepted --name value options *)
}

(** Parse a sweep's arguments: [--quick], [--out PATH], plus any
    [--name VALUE] options named in [string_opts]. *)
let parse_cli ~cmd ?(string_opts = []) ~default_out (args : string list) : cli =
  let quick = ref false in
  let out_path = ref default_out in
  let extra = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: tl ->
        quick := true;
        parse tl
    | "--out" :: p :: tl ->
        out_path := p;
        parse tl
    | a :: v :: tl when List.mem a string_opts ->
        extra := (a, v) :: !extra;
        parse tl
    | a :: _ -> failwith (cmd ^ ": unknown argument " ^ a)
  in
  parse args;
  { quick = !quick; out_path = !out_path; extra = List.rev !extra }

(* ------------------------------------------------------------------ *)
(* Native references                                                  *)
(* ------------------------------------------------------------------ *)

(** Native run that must complete; sweeps compare against it. *)
let native_checked (w : Workloads.Workload.t) : Workloads.Workload.run_result =
  let r = Workloads.Workload.run_native w in
  if not r.Workloads.Workload.ok then
    failwith (w.Workloads.Workload.name ^ ": native failed");
  r

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

(** Write a sweep's JSON datapoint and report the path. *)
let write_json ~path (v : Rio.Json.t) : unit =
  let oc = open_out path in
  output_string oc (Rio.Json.to_string ~digits:6 v);
  close_out oc;
  pr "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Pool scaffolding (parsweep, chaossweep)                            *)
(* ------------------------------------------------------------------ *)

(** Boot table for a workload mix: one boot per workload, image
    assembled once, cold-load machine factory per instance.
    [opts_for] maps a workload name to its engine options — this is
    where a bundle's per-workload opt-level overrides reach the pool
    (default: [opts] for every workload). *)
let pool_boots ?(client = fun () -> Rio.Types.null_client) ?cache_dir
    ?opts_for ~opts (wls : Workloads.Workload.t list) :
    (string * Rio.Pool.boot) list =
  let opts_for = match opts_for with Some f -> f | None -> fun _ -> opts in
  List.map
    (fun w ->
      let image = Asm.Assemble.assemble w.Workloads.Workload.program in
      let name = w.Workloads.Workload.name in
      ( name,
        {
          Rio.Pool.boot_machine =
            (fun () ->
              let m = Vm.Machine.create () in
              Asm.Image.load_cold m image;
              m);
          boot_entry = image.Asm.Image.entry;
          boot_stack_top = Asm.Image.default_stack_top;
          boot_restore = (fun m ~zeroed -> Asm.Image.restore m image ~zeroed);
          boot_opts = opts_for name;
          boot_client = client;
          boot_image_digest = Asm.Image.digest image;
          boot_cache =
            Option.map
              (fun dir ->
                Filename.concat dir (Rio.Pool.cache_file_name name))
              cache_dir;
        } ))
    wls

(** Request maker over a workload mix, with a native-reference cache:
    request [i] round-robins the mix at seed [seed_base + i]; each
    (workload, seed) native output is computed once and reused across
    passes and pools. *)
let request_maker (wls : Workloads.Workload.t list) :
    seed_base:int -> int -> Rio.Pool.request list =
  let refs : (string * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let native_ref (w : Workloads.Workload.t) seed =
    match Hashtbl.find_opt refs (w.Workloads.Workload.name, seed) with
    | Some out -> out
    | None ->
        let input =
          Workloads.Workload.request_input ~seed @ w.Workloads.Workload.input
        in
        let r = native_checked (Workloads.Workload.with_input w input) in
        Hashtbl.replace refs
          (w.Workloads.Workload.name, seed)
          r.Workloads.Workload.output;
        r.Workloads.Workload.output
  in
  let nwl = List.length wls in
  fun ~seed_base n ->
    List.init n (fun i ->
        let w = List.nth wls (i mod nwl) in
        let seed = seed_base + i in
        {
          Rio.Pool.req_id = i;
          req_key = w.Workloads.Workload.name;
          req_seed = seed;
          req_input =
            Workloads.Workload.request_input ~seed @ w.Workloads.Workload.input;
          req_expect = Some (native_ref w seed);
        })

(** Submit that treats a rejection as a sweep bug. *)
let submit_exn pool (r : Rio.Pool.request) : unit =
  match Rio.Pool.submit pool r with
  | Ok () -> ()
  | Error e ->
      failwith
        (Printf.sprintf "pool rejected %s seed %d: %s" r.Rio.Pool.req_key
           r.Rio.Pool.req_seed
           (Rio.Pool.reject_to_string e))

(** Count and report results that did not come back ok. *)
let check_pass ~divergences tag (results : Rio.Pool.result list) : unit =
  List.iter
    (fun r ->
      if not r.Rio.Pool.res_ok then begin
        incr divergences;
        pr "!! %s: %s seed %d on domain %d diverged (%s)\n%!" tag
          r.Rio.Pool.res_key r.Rio.Pool.res_seed r.Rio.Pool.res_worker
          (Rio.Engine.stop_reason_to_string r.Rio.Pool.res_reason)
      end)
    results
