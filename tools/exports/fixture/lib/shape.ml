include Shape_t

type unused_kind = A | B

type box = {
  w : int;
  h : int;
  tag : string;
}

let origin = { x = 0; y = 0; z = 0 }
let make_box w h = { w; h; tag = "box" }
let unused_value = 0
