(** Top-level runtime: create a RIO instance over a machine, attach a
    client, and run the application under the code cache.  The
    lifecycle lives in {!Engine}; this module re-exports its everyday
    entry points and every library module. *)

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

include module type of struct include Engine_t end

val stats : t -> Stats.t

val options : t -> Options.t

val flow_log : t -> string list

val create : ?opts:Options.t -> ?client:Types.client -> Vm.Machine.t -> t

val enable_flow_log : t -> unit

val run : t -> outcome

val stop_reason_to_string : stop_reason -> string
