(** Top-level runtime: create a RIO instance over a machine, attach a
    client, and run the application under the code cache.

    {[
      let m = Vm.Machine.create () in
      let _thread = Asm.Image.load m image in
      let rt = Rio.create m in
      let outcome = Rio.run rt in
      ...
    ]}

    The lifecycle implementation lives in {!Engine}; the
    domain-parallel serving pool in {!Pool}.  This module is the
    library's public face and re-exports both. *)

(* Re-exports: [Rio] is the library's public face. *)
module Level = Level
module Instr = Instr
module Instrlist = Instrlist
module Create = Create
module Options = Options
module Json = Json
module Bundle = Bundle
module Cli = Cli
module Stats = Stats
module Types = Types
module Fragindex = Fragindex
module Cachealloc = Cachealloc
module Flags_analysis = Flags_analysis
module Mangle = Mangle
module Emit = Emit
module Guard = Guard
module Audit = Audit
module Faultinject = Faultinject
module Blockbuild = Blockbuild
module Opt = Opt
module Trace = Trace
module Dispatch = Dispatch
module Api = Api
module Codec = Codec
module Persist = Persist
module Engine = Engine
module Pool = Pool
module Wire = Wire
module Server = Server

type t = Engine.t

include Engine_t

let stats = Engine.stats
let options = Engine.options
let flow_log = Engine.flow_log
let create = Engine.create
let enable_flow_log = Engine.enable_flow_log
let run = Engine.run
let stop_reason_to_string = Engine.stop_reason_to_string
