(** Discrete-event simulation engine.

    Time is a [float] in seconds. Events are thunks scheduled at absolute
    or relative times; the engine pops them in time order (FIFO among
    simultaneous events) and runs them, each of which may schedule more.
    All network behaviour — transmission, propagation, queue service,
    protocol timers — is expressed as events over one engine. *)

type t

type backend =
  | Binary_heap  (** {!Heap}: the original scheduler, kept as oracle. *)
  | Calendar  (** {!Calendar}: O(1) bucketed ring, the default. *)

val create : ?backend:backend -> unit -> t
(** [create ()] uses the {!Calendar} backend. Both backends implement
    the same [(time, insertion)] total order, so a simulation's event
    sequence — and every derived fingerprint — is identical under
    either; [Binary_heap] exists as the reference oracle for tests and
    for the seq-heap vs seq-calendar bench race. *)

val now : t -> float
(** Current simulation time, in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule e ~delay f] runs [f] at [now e +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at e ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val schedule_kind :
  t -> kind:Profile.kind -> delay:float -> (unit -> unit) -> unit
(** {!schedule}, tagged for the dispatch-cost ledger: while the
    engine's profiler is enabled, the per-kind scheduled count is
    bumped. One predictable branch otherwise. *)

val schedule_kind_at :
  t -> kind:Profile.kind -> time:float -> (unit -> unit) -> unit
(** {!schedule_at}, tagged like {!schedule_kind}. *)

val periodic :
  t -> kind:Profile.kind -> interval:float -> ?until:float ->
  (unit -> unit) -> (unit -> unit)
(** [periodic e ~kind ~interval ?until f] runs [f] every [interval]
    sim-seconds: the first tick is scheduled (as [kind]) at
    [now e +. interval], and each tick that finds [now <= until]
    (default unbounded) runs [f] and then schedules the next. The
    result is a stop thunk: once called, pending ticks do nothing and
    re-arm no further. An exception from [f] propagates out of the run
    and ends the series.

    {b Warning}: without [until] the series re-arms itself forever, so
    a bare {!run} (no [~until]) will {e never drain} — drive the engine
    with [run ~until:...], call the stop thunk first, or pass [until].
    With [until] the series ends at the first tick after it (at most
    one trailing no-op event), so a bare {!run} terminates.
    @raise Invalid_argument if [interval] is not finite and positive
    (a runaway re-arm at one instant, or a series that never fires)
    or [until] is NaN or negative. *)

val profiler : t -> Profile.t
(** The engine's dispatch-cost ledger (see {!Profile}). Disabled at
    {!create}; enabling takes effect at the next run-window entry,
    which swaps the run loop for a profiled twin — the plain loop
    never tests the profiler. *)

val run : ?until:float -> t -> unit
(** Drain the event queue. With [until], stop once the next event would
    be strictly after [until] and advance the clock to [until]. Events
    scheduled exactly at [until] do run. *)

val step : t -> bool
(** Run exactly one event; [false] when the queue is empty. *)

val peek_time : t -> float option
(** Timestamp of the next pending event, without running it. *)

val run_before : t -> before:float -> unit
(** Process every pending event with time strictly below [before],
    leaving events at or after [before] queued and [now] at the last
    processed event. The conservative parallel runner uses this to
    advance a shard through a safe window without claiming the window
    bound itself. *)

val pending : t -> int
(** Number of scheduled events not yet run. *)

val processed : t -> int
(** Number of events run since creation. *)

val stop : t -> unit
(** Make the current {!run} return after the event in progress; pending
    events stay queued. *)

(** {2 Batched telemetry}

    Inside a {!run}/{!run_before} window the engine's [sim.events] and
    [sim.scheduled] counters accumulate in plain fields and flush once
    at window exit, so the per-event cost is an int bump instead of a
    domain-local counter write. Outside a window, counter writes stay
    immediate. Hot-path instrumentation elsewhere (e.g. the network's
    per-packet counters) can join the same rhythm: check {!in_batch}
    to defer, and register the flush with {!on_flush}. *)

val in_batch : t -> bool
(** [true] while the engine is inside a [run]/[run_before] window. *)

val on_flush : t -> (unit -> unit) -> unit
(** [on_flush e f] registers [f] to run at every batch-window exit
    (including on exception escape), before the engine flushes its own
    counters. Hooks run in reverse registration order. *)
