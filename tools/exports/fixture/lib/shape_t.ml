(* A type-only unit: no interface; Shape includes and re-exports it. *)

type point = { x : int; y : int; z : int }

type color = Red | Green | Blue
