(** The audited soak recipe: one arming sequence for every replica of
    a long-horizon run. [mvpn soak] and bench E18 both build their
    runs from it, so the order below is written down once.

    A sharded run must schedule the same events in the same order on
    every replica, or events landing at equal times lose their FIFO
    rank and results stop being shard-invariant. {!arm} is that order:
    on each replica, after the runner's timeline sampler and before the
    workload, it arms

    + the storm, if any: {!Harness.arm} with FRR and IP fallback over
      the pre-drawn topology-only plan;
    + a live per-replica SLO engine (its violation events in a private
      log), which the auditor's budget-monotonicity check reads — the
      reported verdict still comes from the runner's merged fate
      replay;
    + no span sampler: the one [attach_slo] arms re-walks the trace
      ring per sampled delivery, and nothing in a soak reads the spans;
    + the invariant auditor, if any, until
      {!Mvpn_par.Runner.horizon_of}. *)

type storm = {
  seed : int;  (** the plan's draw and {!Harness.arm}'s recovery *)
  plan : Chaos.plan;
}

val storm :
  ?events:int -> seed:int -> Mvpn_par.Runner.config -> storm
(** Draw a {!Chaos.random_topology_plan} of [events] faults (default
    12) over the config's workload duration, against a throwaway
    {!Mvpn_par.Runner.build} of its scenario made with telemetry off. The plan is drawn once and
    closed over by every replica, so the same storm is valid at any
    shard count. *)

val arm :
  ?storm:storm ->
  ?audit:float ->
  ?fail_fast:bool ->
  Mvpn_par.Runner.config ->
  Mvpn_par.Runner.config
(** [arm ?storm ?audit ?fail_fast cfg] is [cfg] with [prepare_replica]
    set to the sequence above. [audit] is the auditor's interval (no
    auditor without it); [fail_fast] (default [false]) is passed to
    {!Audit.start}. *)
