(** One domain's slice of the partitioned run.

    A shard holds a {e full replica} of the scenario — topology, FIBs,
    label bindings and flow registrations are all built identically from
    the same seed in every domain — but only {e executes} the events of
    the nodes it owns: traffic sources are armed solely for the site
    pairs whose sending CE the shard owns, and a packet reaching a cut
    link leaves through {!Exchange} instead of the port's local
    propagation event. Replication keeps every replica's control plane
    and RNG substreams byte-identical to the sequential run's, which is
    what makes the merged counters independent of the shard count.

    All functions must be called from the shard's own domain (telemetry
    cells are domain-local); {!collect}'s result is read by the runner
    after joining the domain.

    Which sources a replica arms, its fate log and its telemetry reset
    are the runner's business: a shard only moves packets across the
    cut. *)

type result = {
  r_snapshot : Mvpn_telemetry.Registry.snapshot;
      (** this domain's metric cells *)
  r_leftover : Exchange.msg list;
      (** cross-shard packets arriving after the horizon, in
          deterministic {!ingest} order *)
  r_sent : int;  (** messages pushed to other shards *)
  r_scenario : Mvpn_core.Scenario.t;
      (** the replica, for post-join traffic reports *)
}

type t

val create :
  id:int -> part:Partition.t -> exchange:Exchange.t -> Mvpn_core.Scenario.t ->
  t
(** Wraps shard [id]'s replica, already built and armed by the runner
    ({!Runner}'s one replica recipe), with what makes it a shard: its
    outbound cut ports hand finished transmissions to [exchange]
    instead of scheduling the propagation locally, and an inbox holds
    what other shards send it until {!ingest} schedules it. *)

val id : t -> int

val ingest : t -> bound:float -> inclusive:bool -> unit
(** Drain inbound exchange channels into the sorted pending inbox, then
    schedule every message with arrival below [bound] (at or below,
    when [inclusive]) as a receive event on the local engine. Equal-
    arrival messages always fall into the same window (a window bound
    beyond an arrival implies every such message is already visible),
    and are ordered by (arrival, send time, source shard, channel
    sequence) — so heap insertion order, and therefore FIFO tie-breaks,
    are independent of cross-domain timing. *)

val run_before : t -> before:float -> unit
(** Execute local events strictly below the window bound. *)

val run_to : t -> until:float -> unit
(** Execute local events up to and including [until] (the final,
    inclusive pass — mirrors the sequential [Engine.run ~until]). *)

val peek : t -> float option
(** Next local event time, for the epoch-barrier fallback. *)

val collect : t -> result
(** Snapshot this domain's cells and hand everything to the runner.
    Call once, after the last event has run. *)
