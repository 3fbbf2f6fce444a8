(** Packet-fate logs: what the SLO replay reads.

    A replica's fate hook appends every packet's terminal fate here in
    event-time order (the hook stamps [Engine.now]), so a log needs no
    sort before replay. Storage is struct-of-arrays: recording a fate is
    two unboxed float stores and one packed int, no record, no cons. *)

type t

val create : unit -> t

val add :
  t -> time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
  unit
(** Append one fate ([latency] is 0 for drops); the shape of
    {!Mvpn_core.Network.set_fate_hook}'s callback. *)

val merge :
  t array ->
  (time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
   unit) ->
  unit
(** [merge logs f] calls [f] on every fate of every log in (time, index
    of the log in [logs], position in its log) order: a K-way merge of
    logs that are each time-ordered already. *)
