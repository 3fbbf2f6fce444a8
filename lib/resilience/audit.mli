(** Streaming runtime invariant auditor.

    A cheap {!Mvpn_sim.Engine.periodic} series (like
    {!Mvpn_core.Sampler}'s): every [interval] sim-seconds it re-proves
    the properties the paper's steady-state QoS claims rest on, while
    the run — hours of simulated chaos, sequential or sharded — is
    still going:

    - {b conservation}: [injected + imported + forked = delivered +
      table drops + port drops + exported + consumed + live], from
      {!Mvpn_core.Network.flow_totals}. The live count is maintained
      independently of the fate counters (a per-packet [fated] flag),
      so a lost or double-counted fate unbalances the books instead of
      cancelling — the deliberately injected
      {!Mvpn_core.Network.set_drop_leak} bug is caught this way.
    - {b pool}: with pooling on (main domain, no cross-shard traffic),
      [Packet.allocated - live - pool_size] — records neither
      circulating nor retired — must stay constant: a leak witness.
    - {b loops}: no packet incarnation appears as ["rx"] in the
      hop-trace ring more than [max_hops] times (default 2 x TTL).
    - {b frr}: the protection superset (protected + unprotected armed
      links) never changes, and the switchover counter only grows.
    - {b slo}: cumulative per-(vpn, band) [budget_spent] of the
      network-attached SLO engine is non-decreasing — error budget is
      spent, never refunded.
    - {b queues}: per-band cumulative counters only grow and implied
      standing depth is never negative, over every port.
    - {b heap}: the live major heap stays within [heap_slack] x an
      early-tick baseline (plus a fixed allowance) — bounded residency
      over long horizons.

    Each tick counts [audit.ticks] and one [audit.check.<name>] per
    check that ran; each violation counts [audit.violations] and
    [audit.violation.<name>], emits a typed
    {!Mvpn_telemetry.Event_log.Invariant_violated} event, and — with
    [fail_fast] — raises {!Violation}. Counter and event writes follow
    {!Mvpn_telemetry.Control} like all telemetry; the in-record
    {!ticks}/{!violations} accessors are always live.

    Scope: the conservation books cover unicast and PE-replicated
    (ingress multicast) traffic through the MPLS data plane — every
    audited scenario here. The overlay deployment's replay paths
    re-inject retained packets outside the ledger and are not audited.
    Checks read plain fields and bounded rings, so the audited rate
    stays within a few percent of baseline (E18 gates >= 0.95x). *)

type t

exception Violation of string * string
(** [(invariant, detail)] — raised on violation only under
    [fail_fast]. *)

val default_interval : float
(** 1.0 sim-second. *)

val default_max_hops : int
(** [2 x Packet.default_ttl]. *)

val start :
  ?interval:float ->
  ?until:float ->
  ?fail_fast:bool ->
  ?max_hops:int ->
  ?heap_slack:float ->
  ?frr:Frr.t ->
  Mvpn_core.Scenario.t ->
  t
(** Schedule the ticks with {!Mvpn_sim.Engine.periodic} (kind
    [audit.tick]): the first at [interval], then every [interval] until
    [until] (default unbounded) or {!stop}. Arm before the
    run starts, after any {!Harness.arm} (pass its {!Harness.frr}
    handle to audit protection coverage). The SLO check reads whatever
    engine is attached to the network at each tick.
    @raise Invalid_argument on a non-finite or non-positive interval,
    a negative/NaN [until], [max_hops < 1] or [heap_slack < 1]. *)

val stop : t -> unit

val ticks : t -> int

val violations : t -> int

val recent_violations : t -> (string * string) list
(** Most recent violations, oldest first, capped at 16. *)
