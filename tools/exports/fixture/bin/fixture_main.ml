open Exports_fixture

let () =
  let p = Shape.origin in
  let b = Shape.make_box p.Shape.x p.Shape.y in
  let c = if b.Shape.w > b.Shape.h then Shape.Green else Shape.Red in
  print_endline (match c with Shape.Red -> "red" | _ -> "other")
