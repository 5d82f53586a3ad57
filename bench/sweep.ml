(** Shared scaffolding for the experiments of [main.ml]: typed gates
    and their one reporter, the native-checked run, the hang backstop,
    JSON datapoint emission (through {!Rio.Json}) and the serving-pool
    plumbing.  Factoring it here keeps each experiment about its
    experiment, not its plumbing. *)

open Workloads

let pr fmt = Printf.printf fmt

let geomean xs =
  exp
    (List.fold_left (fun a x -> a +. log x) 0.0 xs
    /. float_of_int (List.length xs))

let time_now () = Unix.gettimeofday ()

(** What one invocation of an experiment was asked for: [--quick],
    the datapoint path ([--out]), and any further [--name VALUE]
    options its row declares. *)
type cli = {
  quick : bool;
  out : string;
  flags : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Gates                                                              *)
(* ------------------------------------------------------------------ *)

type rel = At_most | At_least | Below | Above

(** One pass/fail criterion: a measured value against a fixed bound. *)
type gate = { name : string; value : float; rel : rel; bound : float }

let gate rel name ~bound value = { name; value; rel; bound }
let at_most = gate At_most
let at_least = gate At_least
let below = gate Below
let above = gate Above

(** A yes/no criterion, as the value 1 (holds) against the bound 1. *)
let holds name b = at_least name ~bound:1.0 (if b then 1.0 else 0.0)

let passes g =
  match g.rel with
  | At_most -> g.value <= g.bound
  | At_least -> g.value >= g.bound
  | Below -> g.value < g.bound
  | Above -> g.value > g.bound

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let total = ref 0
let failed = ref []

(** Print an experiment's gates on stderr as they are decided. *)
let print_gates exp gates =
  flush stdout;
  List.iter
    (fun g ->
      incr total;
      let ok = passes g in
      if not ok then failed := (exp, g) :: !failed;
      Printf.eprintf "%s %-12s %s: %s %s %s\n%!"
        (if ok then "PASS" else "FAIL")
        exp g.name (num g.value)
        (match g.rel with
        | At_most -> "<="
        | At_least -> ">="
        | Below -> "<"
        | Above -> ">")
        (num g.bound))
    gates

(** Sum up every gate printed: exit 1, listing the failures again, if
    any failed. *)
let finish () =
  match List.rev !failed with
  | [] -> if !total > 0 then Printf.eprintf "all %d gates passed\n%!" !total
  | fs ->
      Printf.eprintf "%d of %d gates FAILED:\n" (List.length fs) !total;
      List.iter (fun (exp, g) -> Printf.eprintf "  %s: %s\n" exp g.name) fs;
      flush stderr;
      exit 1

(* ------------------------------------------------------------------ *)
(* The native-checked run                                             *)
(* ------------------------------------------------------------------ *)

(* Native references, each computed once per process.  The entry label
   is part of the key because a serving variant keeps its workload's
   name but not its program. *)
let natives : (string * string * int list, Workload.run_result) Hashtbl.t =
  Hashtbl.create 64

(** The native run of [w] on its input, which must complete. *)
let native (w : Workload.t) : Workload.run_result =
  let key = (w.Workload.name, w.Workload.program.Asm.Ast.entry, w.Workload.input) in
  match Hashtbl.find_opt natives key with
  | Some r -> r
  | None ->
      let r = Workload.run_native w in
      if not r.Workload.ok then failwith (w.Workload.name ^ ": native failed");
      Hashtbl.replace natives key r;
      r

(* How many runs the current experiment compared with native, and how
   many of them differed.  [run_row] turns these into a gate. *)
let checked = ref 0
let diverged = ref 0

(** Count one comparison with native; [same] is its verdict. *)
let tally same =
  incr checked;
  if not same then incr diverged;
  same

(** Whether a run of [w] stopped cleanly ([ok]) with native's output;
    a difference is reported and counted. *)
let check ?(label = "") (w : Workload.t) ~ok output =
  let same = tally (ok && output = (native w).Workload.output) in
  if not same then
    pr "!! %s%s diverged from native\n%!" w.Workload.name
      (if label = "" then "" else " under " ^ label);
  same

type run = {
  res : Workload.run_result;
  rt : Rio.t;
  ratio : float;  (** simulated cycles over native's *)
  same : bool;    (** exited cleanly with native's output *)
}

(** A RIO run of [w], compared with its native run. *)
let run ?label ?opts ?client (w : Workload.t) : run =
  let res, rt = Workload.run_rio ?opts ?client w in
  let same = check ?label w ~ok:res.Workload.ok res.Workload.output in
  {
    res;
    rt;
    ratio =
      float_of_int res.Workload.cycles
      /. float_of_int (native w).Workload.cycles;
    same;
  }

(** The gate every experiment that compared runs with native carries. *)
let divergence_gate () =
  if !checked = 0 then []
  else
    [
      at_most
        (Printf.sprintf "runs diverged from native (of %d)" !checked)
        ~bound:0.0 (float_of_int !diverged);
    ]

(* ------------------------------------------------------------------ *)
(* Hang backstop and JSON                                             *)
(* ------------------------------------------------------------------ *)

(** Run [f] under a whole-process alarm: a deadlocked experiment must
    not look like a quiet CI timeout, so it exits with status 3. *)
let with_alarm ~name secs f =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline ("!! " ^ name ^ ": HANG — alarm fired before completion");
         exit 3));
  ignore (Unix.alarm secs);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

(** Write a sweep's JSON datapoint and report the path. *)
let write_json ~path (v : Rio.Json.t) : unit =
  let oc = open_out path in
  output_string oc (Rio.Json.to_string ~digits:6 v);
  close_out oc;
  pr "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Pool scaffolding (parsweep, servesweep, chaossweep, autotune)      *)
(* ------------------------------------------------------------------ *)

(** {!Workloads.Workload.request_maker} expecting the memoized native
    output. *)
let request_maker = Workload.request_maker ~native:(fun w -> (native w).Workload.output)

(** Submit that treats a rejection as a sweep bug. *)
let submit_exn pool (r : Rio.Pool.request) : unit =
  match Rio.Pool.submit pool r with
  | Ok () -> ()
  | Error e ->
      failwith
        (Printf.sprintf "pool rejected %s seed %d: %s" r.Rio.Pool.req_key
           r.Rio.Pool.req_seed
           (Rio.Pool.reject_to_string e))

(** Count, and report, results that did not come back ok (exited and
    matched their native [req_expect]). *)
let check_pass tag (results : Rio.Pool.result list) : unit =
  List.iter
    (fun r ->
      if not (tally r.Rio.Pool.res_ok) then
        pr "!! %s: %s seed %d on domain %d diverged (%s)\n%!" tag
          r.Rio.Pool.res_key r.Rio.Pool.res_seed r.Rio.Pool.res_worker
          (Rio.Engine.stop_reason_to_string r.Rio.Pool.res_reason))
    results
