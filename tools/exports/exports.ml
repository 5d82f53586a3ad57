(* Export scanner: every value and exception a library module exports
   has a user in another compilation unit, every library module has an
   interface, and a value or exception that only tests use lives in a
   [For_testing] submodule.

   It reads the .cmt/.cmti files the compiler writes with -bin-annot,
   resolves each value identifier (module aliases, opens and binding
   operators included) and each exception constructor, raised or
   matched, to the unit that defines it, and prints every
   finding that [allow.txt] does not list.  Exit status 1 on any such
   finding, on an allow-list entry without a reason, or on one that
   matches nothing.

     exports.exe ALLOW_LIST ROOT OBJDIR...

   OBJDIRs are the object directories (relative to ROOT, the build
   context root) that the dune rule depends on; one that exists under
   ROOT but is not named is an error, since it could hold stale files. *)

open Typedtree

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* (unit, module name) -> target, for every top-level module alias *)
let unit_aliases : (string * string, Path.t) Hashtbl.t = Hashtbl.create 64

(* local module ident -> the path it aliases *)
let local_aliases : (Ident.t, Path.t) Hashtbl.t = Hashtbl.create 64

let rec flat = function
  | Path.Pident id -> (
      match Hashtbl.find_opt local_aliases id with
      | Some p -> flat p
      | None -> if Ident.persistent id then Some [ Ident.name id ] else None)
  | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (flat p)
  | _ -> None

let rec norm = function
  | u :: m :: rest when Hashtbl.mem unit_aliases (u, m) -> (
      match flat (Hashtbl.find unit_aliases (u, m)) with
      | Some t -> norm (t @ rest)
      | None -> u :: m :: rest)
  | l -> l

let key p = Option.map (fun l -> String.concat "." (norm l)) (flat p)

(* export key -> kinds ("lib", "test", ...) of the units that use it *)
let refs : (string, string) Hashtbl.t = Hashtbl.create 4096
let whole : (string * string) list ref = ref []  (* include M, F(M) *)

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let iterator kind =
  let open Tast_iterator in
  let use p = Option.iter (fun k -> Hashtbl.add refs k kind) (key p) in
  (* an exception (or other extension) constructor, built or matched *)
  let constr (cd : Types.constructor_description) =
    match cd.cstr_tag with Cstr_extension (p, _) -> use p | _ -> () in
  let alias id me = match id, alias_target me with
    | Some id, Some p -> Hashtbl.replace local_aliases id p; true
    | _ -> false in
  { default_iterator with
    expr = (fun it e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> use p
      | Texp_letop { let_; ands; _ } ->
          List.iter (fun b -> use b.bop_op_path) (let_ :: ands);
          default_iterator.expr it e
      | Texp_letmodule (id, _, _, me, body) when alias id me -> it.expr it body
      | Texp_construct (_, cd, _) ->
          constr cd;
          default_iterator.expr it e
      | _ -> default_iterator.expr it e);
    pat = (fun (type k) it (p : k general_pattern) ->
      (match p.pat_desc with Tpat_construct (_, cd, _, _) -> constr cd | _ -> ());
      default_iterator.pat it p);
    module_binding = (fun it mb ->
      if not (alias mb.mb_id mb.mb_expr) then default_iterator.module_binding it mb);
    open_declaration = (fun it od ->
      if alias_target od.open_expr = None then default_iterator.open_declaration it od);
    module_expr = (fun it me ->
      (match me.mod_desc with
       | Tmod_ident (p, _) -> Option.iter (fun k -> whole := (k ^ ".", kind) :: !whole) (key p)
       | _ -> ());
      default_iterator.module_expr it me) }

(* every value and exception a signature exports, with its path under
   the unit *)
let rec exports prefix (s : Types.signature) =
  List.concat_map (function
    | Types.Sig_value (id, vd, _) -> [ (prefix ^ "." ^ Ident.name id, vd.Types.val_loc) ]
    | Sig_typext (id, ext, Text_exception, _) -> [ (prefix ^ "." ^ Ident.name id, ext.Types.ext_loc) ]
    | Sig_module (id, _, { md_type = Mty_signature s; _ }, _, _) ->
        exports (prefix ^ "." ^ Ident.name id) s
    | _ -> []) s

let display k = Str.global_replace (Str.regexp_string "__") "." k

let glob_match pat s =
  Str.string_match (Str.regexp (String.concat ".*" (List.map Str.quote (String.split_on_char '*' pat)) ^ "$")) s 0

let rec objdirs root rel =
  let full = Filename.concat root rel in
  if Filename.basename rel = "byte" && Filename.check_suffix (Filename.dirname rel) "objs" then [ rel ]
  else if Sys.file_exists full && Sys.is_directory full then
    List.concat_map (fun d -> objdirs root (Filename.concat rel d)) (Array.to_list (Sys.readdir full))
  else []

let () =
  let allow_file, root, dirs = match Array.to_list Sys.argv with
    | _ :: a :: r :: (_ :: _ as d) -> (a, r, d) | _ -> fail "usage: exports.exe ALLOW_LIST ROOT OBJDIR..." in
  List.iter (fun top -> List.iter (fun d ->
      if not (List.mem d dirs) then fail "exports: %s is not a dependency of the scanner rule" d)
      (objdirs root top)) [ "lib"; "bin"; "bench"; "perf"; "examples"; "test"; "tools" ];
  let units = List.concat_map (fun d ->
      let kind = List.hd (String.split_on_char '/' d) in
      Array.to_list (Sys.readdir (Filename.concat root d))
      |> List.filter (fun f -> Filename.check_suffix f ".cmt") |> List.sort compare
      |> List.map (fun f -> (kind, Filename.concat (Filename.concat root d) f))) dirs in
  let units = List.map (fun (kind, f) -> (kind, f, Cmt_format.read_cmt f)) units in
  List.iter (fun (_, _, c) -> match c.Cmt_format.cmt_annots with
    | Implementation s -> List.iter (function
        | Types.Sig_module (id, _, { md_type = Mty_alias p; _ }, _, _) ->
            Hashtbl.replace unit_aliases (c.cmt_modname, Ident.name id) p
        | _ -> ()) s.str_type
    | _ -> ()) units;
  List.iter (fun (kind, _, c) -> match c.Cmt_format.cmt_annots with
    | Implementation s -> Hashtbl.reset local_aliases; (iterator kind).structure (iterator kind) s
    | _ -> ()) units;
  let findings = List.concat_map (fun (kind, f, c) ->
      let generated = match c.Cmt_format.cmt_sourcefile with
        | Some s -> Filename.check_suffix s ".ml-gen" | None -> true in
      match c.cmt_annots with
      | Implementation s when kind = "lib" && not generated ->
          let cmti = f ^ "i" in
          let has_intf = Sys.file_exists cmti in
          let sg = if not has_intf then s.str_type else match (Cmt_format.read_cmt cmti).cmt_annots with
            | Interface i -> i.sig_type | _ -> fail "exports: %s: not an interface" cmti in
          (if has_intf then [] else [ (display c.cmt_modname, "has no interface") ])
          @ List.filter_map (fun (k, (loc : Location.t)) ->
              let users = Hashtbl.find_all refs k
                @ List.filter_map (fun (p, kd) -> if String.starts_with ~prefix:p k then Some kd else None) !whole in
              let where = Printf.sprintf "(%s:%d)" loc.loc_start.pos_fname loc.loc_start.pos_lnum in
              if users = [] then Some (display k, "is exported but never used outside its module " ^ where)
              else if List.for_all (( = ) "test") users
                   && not (List.mem "For_testing" (String.split_on_char '.' k))
              then Some (display k, "is used only by tests, outside For_testing " ^ where)
              else None) (exports c.cmt_modname sg)
      | _ -> []) units in
  let allow = In_channel.with_open_text allow_file In_channel.input_all
    |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l -> match String.index_opt l ' ' with
      | Some i when String.trim (String.sub l i (String.length l - i)) <> "" -> String.sub l 0 i
      | _ -> fail "exports: allow-list entry %S has no reason" l) in
  let bad = List.filter (fun (n, _) -> not (List.exists (fun p -> glob_match p n) allow)) findings in
  let stale = List.filter (fun p -> not (List.exists (fun (n, _) -> glob_match p n) findings)) allow in
  List.iter (fun (n, why) -> Printf.printf "%s %s\n" n why) bad;
  List.iter (fun p -> Printf.printf "allow-list entry %s matches no finding; remove it\n" p) stale;
  if bad <> [] || stale <> [] then exit 1
