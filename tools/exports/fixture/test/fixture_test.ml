let () = print_endline (Exports_fixture.Shape.make_box 1 2).Exports_fixture.Shape.tag
