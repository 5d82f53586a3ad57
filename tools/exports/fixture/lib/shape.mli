include module type of struct include Shape_t end

type unused_kind = A | B

type box = {
  w : int;
  h : int;
  tag : string;
}

val origin : point

val make_box : int -> int -> box

val unused_value : int
