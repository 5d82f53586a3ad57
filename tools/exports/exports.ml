(* Export scanner: every value, exception, type, constructor and record
   field a library module exports has a user in another compilation
   unit, every library module has an interface, and a name that only
   tests use lives in a [For_testing] submodule.

   It reads the .cmt/.cmti files the compiler writes with -bin-annot.
   It resolves each value identifier (module aliases, opens and binding
   operators included), each exception constructor, raised or matched,
   each constructor built or matched, each record field read, written,
   built or matched, and each type name in a type expression to the
   unit that defines it, and prints every finding that [allow.txt] does
   not list.  A type counts as used when another unit names it or uses
   one of its constructors or fields, or when another export of its own
   module mentions it; its constructors and fields are reported only
   when the type itself is used.

   A unit that declares no value (types and exceptions only) needs no
   interface: its exports are checked directly.  A module that does
   [include X] of such a unit re-exports it: a use of [M.name] resolves
   to [X.name], and the includer's own uses do not count for [X].

   It also counts the lines of every type representation (variant,
   record or open type) that a unit's .mli states and its .ml declares
   again, prints the count, and fails when it exceeds the
   [restated-type-lines] budget line of the allow list.

   Exit status 1 on any unlisted finding, on an allow-list entry without
   a reason or one that matches nothing, or on a blown budget.

     exports.exe ALLOW_LIST ROOT OBJDIR...

   OBJDIRs are the object directories (relative to ROOT, the build
   context root) that the dune rule depends on; one that exists under
   ROOT but is not named is an error, since it could hold stale files. *)

open Typedtree

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* An export's namespace: values and exceptions, type names, and the
   constructors and fields of a type (keyed [Unit.type.name]). *)
type ns = Value | Type | Member

(* (unit, module name) -> target, for every top-level module alias *)
let unit_aliases : (string * string, Path.t) Hashtbl.t = Hashtbl.create 64

(* unit -> the units it includes, and (unit, name) for every top-level
   type, value, exception and module of a unit *)
let includes : (string, string) Hashtbl.t = Hashtbl.create 16
let defines : (string * string, unit) Hashtbl.t = Hashtbl.create 4096

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
  | u :: n :: rest -> (
      match List.find_opt (fun x -> Hashtbl.mem defines (x, n)) (Hashtbl.find_all includes u) with
      | Some x -> norm (x :: n :: rest)
      | None -> u :: n :: rest)
  | l -> l

let key p = Option.map (fun l -> String.concat "." (norm l)) (flat p)

(* The path of a constructor's or field's type. *)
let type_path ty = match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some p | _ -> None

(* (namespace, export key) -> (kind, unit) of each use: kind is the
   first directory of the using unit ("lib", "test", ...) *)
let refs : (ns * string, string * string) Hashtbl.t = Hashtbl.create 4096
let whole : (string * (string * string)) list ref = ref []  (* include M, F(M) *)

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* [include X] of another unit: a re-export, recorded, not a use *)
let unit_include me = match Option.bind (alias_target me) key with
  | Some x when not (String.contains x '.') -> Some x
  | _ -> None

let iterator kind unit =
  let open Tast_iterator in
  let add ns k = Hashtbl.add refs (ns, k) (kind, unit) in
  let use p = Option.iter (add Value) (key p) in
  let member ty name =
    Option.iter (fun p -> Option.iter (fun k -> add Member (k ^ "." ^ name)) (key p)) (type_path ty) in
  let constr (cd : Types.constructor_description) =
    match cd.cstr_tag with
    | Cstr_extension (p, _) -> use p
    | _ -> member cd.cstr_res cd.cstr_name in
  let field (ld : Types.label_description) = member ld.lbl_res ld.lbl_name in
  let alias id me = match id, alias_target me with
    | Some id, Some p -> Hashtbl.replace local_aliases id p; true
    | _ -> false in
  { default_iterator with
    expr = (fun it e ->
      (match e.exp_desc with
       | Texp_ident (p, _, _) -> use p
       | Texp_letop { let_; ands; _ } -> List.iter (fun b -> use b.bop_op_path) (let_ :: ands)
       | Texp_construct (_, cd, _) -> constr cd
       | Texp_field (_, _, ld) | Texp_setfield (_, _, ld, _) -> field ld
       | Texp_record { fields; _ } ->
           Array.iter (function ld, Overridden _ -> field ld | _, Kept _ -> ()) fields
       | _ -> ());
      match e.exp_desc with
      | Texp_letmodule (id, _, _, me, body) when alias id me -> it.expr it body
      | _ -> default_iterator.expr it e);
    pat = (fun (type k) it (p : k general_pattern) ->
      (match p.pat_desc with
       | Tpat_construct (_, cd, _, _) -> constr cd
       | Tpat_record (fs, _) -> List.iter (fun (_, ld, _) -> field ld) fs
       | _ -> ());
      default_iterator.pat it p);
    typ = (fun it t ->
      (match t.ctyp_desc with Ttyp_constr (p, _, _) -> Option.iter (add Type) (key p) | _ -> ());
      default_iterator.typ it t);
    structure_item = (fun it si ->
      match si.str_desc with
      | Tstr_include { incl_mod; _ } when unit_include incl_mod <> None -> ()
      | _ -> default_iterator.structure_item it si);
    module_binding = (fun it mb ->
      if not (alias mb.mb_id mb.mb_expr) then default_iterator.module_binding it mb);
    open_declaration = (fun it od ->
      if alias_target od.open_expr = None then default_iterator.open_declaration it od);
    module_expr = (fun it me ->
      (match me.mod_desc with
       | Tmod_ident (p, _) -> Option.iter (fun k -> whole := (k ^ ".", (kind, unit)) :: !whole) (key p)
       | _ -> ());
      default_iterator.module_expr it me) }

(* Every path a type mentions. *)
let iter_constrs f ty =
  let seen = Hashtbl.create 16 in
  let rec go ty =
    if not (Hashtbl.mem seen (Types.get_id ty)) then begin
      Hashtbl.add seen (Types.get_id ty) ();
      (match Types.get_desc ty with Types.Tconstr (p, _, _) -> f p | _ -> ());
      Btype.iter_type_expr go ty
    end in
  go ty

let args = function Types.Cstr_tuple ts -> ts | Cstr_record ls -> List.map (fun l -> l.Types.ld_type) ls

let decl_types (d : Types.type_declaration) =
  Option.to_list d.type_manifest
  @ match d.type_kind with
    | Type_record (ls, _) -> List.map (fun l -> l.Types.ld_type) ls
    | Type_variant (cs, _) -> List.concat_map (fun c -> args c.Types.cd_args @ Option.to_list c.cd_res) cs
    | Type_abstract | Type_open -> []

(* Every export of a signature as (namespace, key, location), with its
   path under the unit; a name the unit re-exports from an included unit
   is that unit's export.  The types that another export of the same
   signature mentions are recorded as used by [unit] itself. *)
let exports unit (s : Types.signature) =
  let local : (Ident.t, string) Hashtbl.t = Hashtbl.create 64 in
  let mention self ty = iter_constrs (fun p ->
      let k = match p with
        | Path.Pident id when Ident.same id self -> None
        | Path.Pident id -> Option.map (String.split_on_char '.') (Hashtbl.find_opt local id)
        | _ -> flat p in
      Option.iter (fun k -> Hashtbl.add refs (Type, String.concat "." (norm k)) ("self", unit)) k) ty in
  let own k = norm (String.split_on_char '.' k) = String.split_on_char '.' k in
  let rec go prefix s =
    List.iter (function
      | Types.Sig_type (id, _, _, _) -> Hashtbl.replace local id (prefix ^ "." ^ Ident.name id)
      | _ -> ()) s;
    List.concat_map (fun item ->
      let name id = prefix ^ "." ^ Ident.name id in
      match item with
      | Types.Sig_value (id, vd, _) ->
          mention id vd.Types.val_type;
          [ (Value, name id, vd.val_loc) ]
      | Sig_typext (id, ext, Text_exception, _) when own (name id) ->
          List.iter (mention id) (args ext.Types.ext_args);
          [ (Value, name id, ext.ext_loc) ]
      | Sig_type (id, d, _, _) when own (name id) ->
          let t = name id in
          List.iter (mention id) (decl_types d);
          let members = match d.type_kind with
            | Type_record (ls, _) -> List.map (fun l -> (Member, t ^ "." ^ Ident.name l.Types.ld_id, l.ld_loc)) ls
            | Type_variant (cs, _) -> List.map (fun c -> (Member, t ^ "." ^ Ident.name c.Types.cd_id, c.cd_loc)) cs
            | Type_abstract | Type_open -> [] in
          (Type, t, d.type_loc) :: members
      | Sig_module (id, _, { md_type = Mty_signature s; _ }, _, _) -> go (name id) s
      | _ -> []) s in
  go unit s

(* The lines of every type representation an interface states that its
   implementation declares too, over nested modules. *)
let restated (impl : structure) (intf : signature) =
  let repr td = td.typ_kind <> Ttype_abstract in
  let rec impl_types prefix (s : structure) = List.concat_map (fun si -> match si.str_desc with
      | Tstr_type (_, tds) -> List.filter_map (fun td -> if repr td then Some (prefix ^ td.typ_name.txt) else None) tds
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
          let rec body me = match me.mod_desc with
            | Tmod_structure s -> impl_types (prefix ^ m ^ ".") s
            | Tmod_constraint (me, _, _, _) -> body me
            | _ -> [] in
          body mb_expr)
      | _ -> []) s.str_items in
  let declared = impl_types "" impl in
  let rec lines prefix (s : signature) = List.fold_left (fun n si -> match si.sig_desc with
      | Tsig_type (_, tds) ->
          List.fold_left (fun n td ->
              if repr td && List.mem (prefix ^ td.typ_name.txt) declared
              then n + td.typ_loc.loc_end.pos_lnum - td.typ_loc.loc_start.pos_lnum + 1 else n) n tds
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          n + lines (prefix ^ m ^ ".") s
      | _ -> n) 0 s.sig_items in
  lines "" intf

let display k = Str.global_replace (Str.regexp_string "__") "." k

let glob_match pat s =
  Str.string_match (Str.regexp (String.concat ".*" (List.map Str.quote (String.split_on_char '*' pat)) ^ "$")) s 0

let rec objdirs root rel =
  let full = Filename.concat root rel in
  if Filename.basename rel = "byte" && Filename.check_suffix (Filename.dirname rel) "objs" then [ rel ]
  else if Sys.file_exists full && Sys.is_directory full then
    List.concat_map (fun d -> objdirs root (Filename.concat rel d)) (Array.to_list (Sys.readdir full))
  else []

let budget_key = "restated-type-lines"

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
  let units = List.map (fun (kind, f, c) ->
      let cmti = f ^ "i" in
      let intf = if not (Sys.file_exists cmti) then None else match (Cmt_format.read_cmt cmti).cmt_annots with
        | Interface i -> Some i | _ -> fail "exports: %s: not an interface" cmti in
      (kind, c, intf)) (List.map (fun (kind, f) -> (kind, f, Cmt_format.read_cmt f)) units) in
  let impls = List.filter_map (fun (kind, c, intf) -> match c.Cmt_format.cmt_annots with
    | Implementation s -> Some (kind, c.cmt_modname, c.cmt_sourcefile, s, intf)
    | _ -> None) units in
  List.iter (fun (_, u, _, s, _) -> List.iter (function
      | Types.Sig_module (id, _, { md_type = Mty_alias p; _ }, _, _) ->
          Hashtbl.replace unit_aliases (u, Ident.name id) p;
          Hashtbl.replace defines (u, Ident.name id) ()
      | Sig_value (id, _, _) | Sig_type (id, _, _, _) | Sig_typext (id, _, _, _) | Sig_module (id, _, _, _, _) ->
          Hashtbl.replace defines (u, Ident.name id) ()
      | _ -> ()) s.str_type) impls;
  List.iter (fun (_, u, _, s, _) -> List.iter (fun si -> match si.str_desc with
      | Tstr_include { incl_mod; _ } -> Option.iter (Hashtbl.add includes u) (unit_include incl_mod)
      | _ -> ()) s.str_items) impls;
  List.iter (fun (kind, u, _, s, intf) ->
      Hashtbl.reset local_aliases;
      let it = iterator kind u in
      it.structure it s;
      Option.iter (it.signature it) intf) impls;
  let lib = List.filter (fun (kind, _, src, _, _) ->
      kind = "lib" && match src with Some s -> not (Filename.check_suffix s ".ml-gen") | None -> false) impls in
  let type_only (s : structure) = List.for_all (function
      | Types.Sig_value _ | Sig_module _ | Sig_class _ | Sig_class_type _ -> false
      | _ -> true) s.str_type in
  let owners x = List.filter_map (fun (_, u, _, _, _) ->
      if List.mem x (Hashtbl.find_all includes u) then Some u else None) lib in
  let exported = List.map (fun (_, u, _, s, intf) ->
      let sg = match intf with Some i -> i.sig_type | None -> s.str_type in
      (u, intf, exports u sg)) lib in
  let findings = List.concat_map (fun (u, intf, ex) ->
      let outside = u :: owners u in
      let users ns k =
        List.filter (fun (kind, v) -> kind = "self" || not (List.mem v outside))
          (Hashtbl.find_all refs (ns, k)
           @ List.filter_map (fun (p, kd) -> if String.starts_with ~prefix:p k then Some kd else None) !whole) in
      let type_users t = users Type t @ List.concat_map (fun (ns, k, _) ->
          if ns = Member && String.starts_with ~prefix:(t ^ ".") k then users Member k else []) ex in
      let s = List.find_map (fun (_, v, _, s, _) -> if v = u then Some s else None) lib |> Option.get in
      (if intf <> None || type_only s then [] else [ (display u, "has no interface") ])
      @ List.filter_map (fun (ns, k, (loc : Location.t)) ->
          let users = match ns with
            | Type -> type_users k
            | Value | Member -> users ns k in
          let where = Printf.sprintf "(%s:%d)" loc.loc_start.pos_fname loc.loc_start.pos_lnum in
          if ns = Member && type_users (String.sub k 0 (String.rindex k '.')) = [] then None
          else if users = [] then Some (display k, "is exported but never used outside its module " ^ where)
          else if List.for_all (fun (kind, _) -> kind = "test") users
               && not (List.mem "For_testing" (String.split_on_char '.' k))
          then Some (display k, "is used only by tests, outside For_testing " ^ where)
          else None) ex) exported in
  let restated_lines = List.fold_left (fun n (_, _, _, s, intf) ->
      match intf with Some i -> n + restated s i | None -> n) 0 lib in
  let entries = In_channel.with_open_text allow_file In_channel.input_all
    |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l -> match String.index_opt l ' ' with
      | Some i when String.trim (String.sub l i (String.length l - i)) <> "" ->
          (String.sub l 0 i, String.trim (String.sub l i (String.length l - i)))
      | _ -> fail "exports: allow-list entry %S has no reason" l) in
  let budget, allow = List.partition (fun (n, _) -> n = budget_key) entries in
  let budget = match budget with
    | [ (_, r) ] -> (match int_of_string_opt (List.hd (String.split_on_char ' ' r)) with
        | Some b -> b | None -> fail "exports: %s needs a number, then a reason" budget_key)
    | _ -> fail "exports: the allow list needs one %s line" budget_key in
  let allow = List.map fst allow in
  let bad = List.filter (fun (n, _) -> not (List.exists (fun p -> glob_match p n) allow)) findings in
  let stale = List.filter (fun p -> not (List.exists (fun (n, _) -> glob_match p n) findings)) allow in
  List.iter (fun (n, why) -> Printf.printf "%s %s\n" n why) bad;
  List.iter (fun p -> Printf.printf "allow-list entry %s matches no finding; remove it\n" p) stale;
  Printf.printf "restated type lines: %d (budget %d)\n" restated_lines budget;
  if restated_lines > budget then print_endline "restated type lines exceed the budget";
  if bad <> [] || stale <> [] || restated_lines > budget then exit 1
