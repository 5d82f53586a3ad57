(** Reducing samples to metrics, and the outcome of one workload run. *)

(* quantile with linear interpolation between closest ranks *)
let quantile (l : float list) (q : float) : float =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = quantile l 0.5

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

(* The tail reported as p99_ms: each round's (or window's) 99th
   percentile, then the median over rounds, so one burst of load on a
   shared host moves one round, not the result. *)
let tail_p99 (rounds : float list list) : float =
  median (List.map (fun l -> quantile l 0.99) rounds)

let fsum = List.fold_left ( +. ) 0.0
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
let secs_of_ns ns = float_of_int ns /. 1e9

(* A seeded permutation of 0 .. n-1. *)
let shuffle rng (n : int) : int array =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

type outcome = {
  e2e : (string * float) list;
  layer : (string * float) list;  (** only filled by a traced run *)
  attempted : int;
  failed : int;
  consistent : bool;  (** simulated cycles repeated exactly across rounds *)
  yardstick_ns : float;
      (** typical {!Calib} tick of the run: end-to-end host times are
          already scaled (round by round, deploy by deploy), per-layer
          ones are scaled by this on report *)
}
