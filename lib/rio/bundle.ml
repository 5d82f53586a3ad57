(** Configuration bundles as a first-class artifact (DESIGN.md §6.9).

    A bundle is the complete tunable surface of the system — every
    engine knob ({!Options.t} including the cost model), the pool
    sizing/supervision block ({!Options.pool_opts}), and per-workload
    opt-level overrides — plus provenance describing where it came
    from.  Bundles serialize through {!Json}, so the autotuner can ship
    its winner as `bundle.json` and `rio_serve --bundle` can load it at
    boot.  The engine and pool blocks are not written out here: their
    codec walks {!Options.engine_table} / {!Options.pool_table}, whose
    row order is the canonical field order.

    Deserialization is *validating*: unknown keys, values outside
    their row's range (a path-qualified {!Bad_value}), cross-field
    violations (via {!Options.validate} / {!Options.pool_ranges},
    also applied to every override-projected configuration), malformed
    JSON, and stale [bundle_version]s are all rejected with a typed
    {!error}, never an exception.  {!digest} hashes the canonical printed form of
    the semantic payload (engine + pool + sorted overrides, provenance
    excluded), so reordering fields in the file — or rewriting the
    provenance block — does not change a bundle's identity. *)

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

include Bundle_t

let default_provenance =
  { pv_created_by = "hand"; pv_created_at = ""; pv_objective = ""; pv_note = "" }

(** Current serialization format.  Bump on incompatible schema change;
    older files are refused with {!Stale_version}. *)
let format_version = 1

let error_to_string = function
  | Io_error m -> "bundle i/o error: " ^ m
  | Parse_error m -> "bundle parse error: " ^ m
  | Unknown_key k -> Printf.sprintf "bundle has unknown key %S" k
  | Bad_value (f, m) -> Printf.sprintf "bundle field %S: %s" f m
  | Stale_version v ->
      Printf.sprintf
        "bundle version %d is not supported (this build reads version %d)" v
        format_version
  | Invalid_bundle m -> "invalid bundle: " ^ m

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Codec derived from the knob table                                  *)
(* ------------------------------------------------------------------ *)

let path ctx k = if ctx = "" then k else ctx ^ "." ^ k

(** Every schema object has a closed key list: anything else is
    {!Unknown_key}. *)
let check_keys ~ctx allowed kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
  | Some (k, _) -> Error (Unknown_key (path ctx k))
  | None -> Ok ()

let rec value_to_json : type a. a Options.ty -> a -> Json.t =
 fun ty v ->
  match ty with
  | Options.Bool -> Json.Bool v
  | Options.Int -> Json.Int v
  | Options.Float -> Json.Float v
  | Options.Opt t -> ( match v with None -> Json.Null | Some x -> value_to_json t x)
  | Options.Passes -> Json.Arr (List.map (fun p -> Json.Str (Options.pass_name p)) v)
  | Options.Policy -> Json.Str (Options.flush_policy_name v)
  | Options.Table tbl ->
      Json.Obj
        (List.map
           (fun (Options.Knob k) -> (k.key, value_to_json k.ty (k.get v)))
           tbl.rows)

(** Typed read of one value at field path [ctx].  An absent key never
    reaches here — the enclosing table keeps its default — and a
    [null] table reads as its default, so terse hand-written bundles
    stay loadable. *)
let rec value_of_json : type a. ctx:string -> a Options.ty -> Json.t -> (a, error) result =
 fun ~ctx ty j ->
  let expected what = Error (Bad_value (ctx, "expected " ^ what)) in
  match (ty, j) with
  | Options.Bool, Json.Bool b -> Ok b
  | Options.Bool, _ -> expected "a boolean"
  | Options.Int, Json.Int i -> Ok i
  | Options.Int, _ -> expected "an integer"
  | Options.Float, Json.Float f -> Ok f
  | Options.Float, Json.Int i -> Ok (float_of_int i)
  | Options.Float, _ -> expected "a number"
  | Options.Opt _, Json.Null -> Ok None
  | Options.Opt t, _ -> Result.map Option.some (value_of_json ~ctx t j)
  | Options.Policy, Json.Str s ->
      Result.map_error (fun m -> Bad_value (ctx, m)) (Options.parse ty s)
  | Options.Policy, _ -> expected "a policy name"
  | Options.Passes, Json.Arr xs ->
      List.fold_right
        (fun x acc ->
          match (x, acc) with
          | _, Error _ -> acc
          | Json.Str s, Ok ps -> (
              match Options.pass_of_name s with
              | Some p -> Ok (p :: ps)
              | None ->
                  Error (Bad_value (ctx, Printf.sprintf "unknown optimizer pass %S" s)))
          | _ -> expected "an array of pass names")
        xs (Ok [])
  | Options.Passes, _ -> expected "an array of pass names"
  | Options.Table tbl, Json.Null -> Ok tbl.default
  | Options.Table tbl, Json.Obj kvs ->
      let* () = check_keys ~ctx (List.map (fun (Options.Knob k) -> k.key) tbl.rows) kvs in
      List.fold_left
        (fun acc (Options.Knob k) ->
          let* r = acc in
          match List.assoc_opt k.key kvs with
          | None -> Ok r
          | Some j -> (
              let ctx = path ctx k.key in
              let* v = value_of_json ~ctx k.ty j in
              match k.range v with
              | Some why -> Error (Bad_value (ctx, why))
              | None -> Ok (k.set r v)))
        (Ok tbl.default) tbl.rows
  | Options.Table _, _ -> expected "an object or null"

let get_str ~ctx kvs k ~default =
  match List.assoc_opt k kvs with
  | None -> Ok default
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Bad_value (path ctx k, "expected a string"))

let get_obj ~ctx kvs k =
  match List.assoc_opt k kvs with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj o) -> Ok (Some o)
  | Some _ -> Error (Bad_value (path ctx k, "expected an object or null"))

(* ------------------------------------------------------------------ *)
(* Schema: printer                                                    *)
(* ------------------------------------------------------------------ *)

let sorted_overrides ov =
  List.sort (fun (a, _) (b, _) -> compare a b) ov

(** The semantic payload: everything that participates in {!digest},
    in canonical field order with overrides sorted by key. *)
let payload (b : t) : (string * Json.t) list =
  [
    ("engine", value_to_json (Options.Table Options.engine_table) b.b_opts);
    ("pool", value_to_json (Options.Table Options.pool_table) b.b_pool);
    ( "overrides",
      Json.Obj
        (List.map (fun (k, v) -> (k, Json.Int v)) (sorted_overrides b.b_overrides))
    );
  ]

(** Stable identity of a bundle: FNV-1a over the canonical printed
    payload.  Reordering fields in the file, re-indenting it, or
    editing provenance leaves the digest unchanged; changing any knob
    or override changes it. *)
let digest (b : t) : int =
  let s = Json.to_string (Json.Obj (payload b)) in
  Codec.fnv32 s ~pos:0 ~len:(String.length s)

let to_json (b : t) : Json.t =
  Json.Obj
    (("bundle_version", Json.Int format_version)
    :: ("digest", Json.Str (Printf.sprintf "%08x" (digest b)))
    :: ( "provenance",
         Json.Obj
           [
             ("created_by", Json.Str b.b_provenance.pv_created_by);
             ("created_at", Json.Str b.b_provenance.pv_created_at);
             ("objective", Json.Str b.b_provenance.pv_objective);
             ("note", Json.Str b.b_provenance.pv_note);
           ] )
    :: payload b)

let to_string (b : t) : string = Json.to_string (to_json b)

(* ------------------------------------------------------------------ *)
(* Schema: parser                                                     *)
(* ------------------------------------------------------------------ *)

let overrides_of_json ~ctx kvs : ((string * int) list, error) result =
  let rec go acc = function
    | [] -> Ok (sorted_overrides (List.rev acc))
    | (k, Json.Int lvl) :: rest ->
        if lvl < 0 || lvl > 3 then
          Error
            (Bad_value
               ( path ctx k,
                 Printf.sprintf "override opt level must be 0..3 (got %d)" lvl ))
        else go ((k, lvl) :: acc) rest
    | (k, _) :: _ -> Error (Bad_value (path ctx k, "expected an integer opt level"))
  in
  go [] kvs

let provenance_of_json ~ctx kvs : (provenance, error) result =
  let d = default_provenance in
  let* () = check_keys ~ctx [ "created_by"; "created_at"; "objective"; "note" ] kvs in
  let* pv_created_by = get_str ~ctx kvs "created_by" ~default:d.pv_created_by in
  let* pv_created_at = get_str ~ctx kvs "created_at" ~default:d.pv_created_at in
  let* pv_objective = get_str ~ctx kvs "objective" ~default:d.pv_objective in
  let* pv_note = get_str ~ctx kvs "note" ~default:d.pv_note in
  Ok { pv_created_by; pv_created_at; pv_objective; pv_note }

(* ------------------------------------------------------------------ *)
(* Assembly + validation                                              *)
(* ------------------------------------------------------------------ *)

(** Engine options actually used when booting workload [key]: the
    bundle's base options with the per-workload opt-level override
    applied.  Demoting to level 0 turns the optimizer fully off, so
    level-gated knobs ([opt_enable], [reopt_threshold]) are dropped
    along with it — the projected configuration is always valid when
    the base one is. *)
let opts_for (b : t) (key : string) : Options.t =
  match List.assoc_opt key b.b_overrides with
  | None -> b.b_opts
  | Some 0 ->
      { b.b_opts with opt_level = 0; opt_enable = []; reopt_threshold = None }
  | Some lvl -> { b.b_opts with opt_level = lvl }

(** Semantic validation of an assembled bundle: the base options, the
    pool block, and every override-projected configuration must pass
    the {!Options} validators. *)
let validate (b : t) : (unit, error) result =
  let* () =
    match Options.validate b.b_opts with
    | Ok () -> Ok ()
    | Error m -> Error (Invalid_bundle m)
  in
  let* () =
    match Options.pool_ranges b.b_pool with
    | Ok () -> Ok ()
    | Error m -> Error (Invalid_bundle m)
  in
  let rec check = function
    | [] -> Ok ()
    | (k, _) :: rest -> (
        match Options.validate (opts_for b k) with
        | Ok () -> check rest
        | Error m ->
            Error (Invalid_bundle (Printf.sprintf "override for %S: %s" k m)))
  in
  check b.b_overrides

let of_json (j : Json.t) : (t, error) result =
  match j with
  | Json.Obj kvs ->
      let* () =
        check_keys ~ctx:""
          [ "bundle_version"; "digest"; "provenance"; "engine"; "pool"; "overrides" ]
          kvs
      in
      let* version =
        match List.assoc_opt "bundle_version" kvs with
        | None -> Error (Bad_value ("bundle_version", "required field is missing"))
        | Some j -> value_of_json ~ctx:"bundle_version" Options.Int j
      in
      if version <> format_version then Error (Stale_version version)
      else
        let table k tbl =
          match List.assoc_opt k kvs with
          | None -> Ok tbl.Options.default
          | Some j -> value_of_json ~ctx:k (Options.Table tbl) j
        in
        let* b_opts = table "engine" Options.engine_table in
        let* b_pool = table "pool" Options.pool_table in
        let* b_overrides =
          let* o = get_obj ~ctx:"" kvs "overrides" in
          match o with
          | None -> Ok []
          | Some o -> overrides_of_json ~ctx:"overrides" o
        in
        let* b_provenance =
          let* p = get_obj ~ctx:"" kvs "provenance" in
          match p with
          | None -> Ok default_provenance
          | Some p -> provenance_of_json ~ctx:"provenance" p
        in
        let b = { b_opts; b_pool; b_overrides; b_provenance } in
        let* () = validate b in
        let* () =
          (* the embedded digest, when present, must match the payload:
             catches bundles whose knobs were edited by hand without
             re-stamping *)
          let* ds = get_str ~ctx:"" kvs "digest" ~default:"" in
          if ds = "" || ds = Printf.sprintf "%08x" (digest b) then Ok ()
          else
            Error
              (Bad_value
                 ( "digest",
                   Printf.sprintf
                     "embedded digest %s does not match payload digest %08x \
                      (knobs edited without re-stamping?)"
                     ds (digest b) ))
        in
        Ok b
  | _ -> Error (Parse_error "top-level value must be an object")

let of_string (s : string) : (t, error) result =
  let* j = Result.map_error (fun m -> Parse_error m) (Json.of_string s) in
  of_json j

(* ------------------------------------------------------------------ *)
(* File I/O                                                           *)
(* ------------------------------------------------------------------ *)

let load (path : string) : (t, error) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Io_error m)
  | s -> of_string s

let save (path : string) (b : t) : (unit, error) result =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (to_string b))
  with
  | exception Sys_error m -> Error (Io_error m)
  | () -> Ok ()

module For_testing = struct
  let to_json = to_json
  let of_json = of_json
  let to_string = to_string
  let of_string = of_string
end
