(* Streaming runtime invariant auditor: a cheap Engine.periodic series
   (like the Sampler's) that re-proves, every tick, the properties the
   architecture's steady-state claims rest on — packet
   conservation against the authoritative drop table, loop bounds from
   the hop-trace ring, FRR protection coverage, SLO error-budget
   monotonicity, queue-depth sanity and bounded live-heap growth.
   Violations count [audit.violations], emit typed [Invariant_violated]
   events, and optionally fail fast. The checks read plain fields and
   bounded rings, so an audited run stays within a few percent of the
   unaudited rate (E18 gates >= 0.95x). *)

module Engine = Mvpn_sim.Engine
module Packet = Mvpn_net.Packet
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario
module Port = Mvpn_qos.Port
module Queue_disc = Mvpn_qos.Queue_disc
module T = Mvpn_telemetry

let k_tick = Mvpn_sim.Profile.register_kind "audit.tick"

let m_ticks = T.Registry.counter "audit.ticks"
let m_violations = T.Registry.counter "audit.violations"
let m_conservation = T.Registry.counter "audit.check.conservation"
let m_loops = T.Registry.counter "audit.check.loops"
let m_frr = T.Registry.counter "audit.check.frr"
let m_slo = T.Registry.counter "audit.check.slo"
let m_queues = T.Registry.counter "audit.check.queues"
let m_heap = T.Registry.counter "audit.check.heap"
let m_pool = T.Registry.counter "audit.check.pool"

exception Violation of string * string

let default_interval = 1.0

(* One rx per TTL decrement at most; double it for slack (bypass labels
   carry their own TTL budget). *)
let default_max_hops = 2 * Packet.default_ttl

type qprev = {
  mutable q_enq : int;
  mutable q_deq : int;
  mutable q_tail : int;
  mutable q_red : int;
}

type t = {
  net : Network.t;
  fail_fast : bool;
  max_hops : int;
  heap_slack : float;
  frr : Frr.t option;
  mutable ticks : int;
  mutable violations : int;
  mutable recent : (string * string) list;  (* newest first, capped *)
  mutable stop : unit -> unit;
  (* baselines and high-water marks *)
  mutable frr_base : int option;  (* protected + unprotected links *)
  mutable frr_switched_prev : int;
  slo_prev : (int * int, float) Hashtbl.t;  (* (vpn, band) -> spent *)
  mutable slo_seen : T.Slo.t option;
  queue_prev : (int * int, qprev) Hashtbl.t;  (* (link, band) *)
  mutable heap_base : int option;
  mutable pool_base : int option;
  mutable unattributed_prev : int;
}

let max_recent = 16

let violate t invariant detail =
  t.violations <- t.violations + 1;
  T.Counter.incr m_violations;
  T.Counter.incr (T.Registry.counter ("audit.violation." ^ invariant));
  if !T.Control.enabled then
    T.Event_log.record
      (T.Registry.events ())
      (T.Event_log.Invariant_violated { invariant; detail });
  t.recent <-
    (invariant, detail)
    :: (if List.length t.recent >= max_recent then
          List.filteri (fun i _ -> i < max_recent - 1) t.recent
        else t.recent);
  if t.fail_fast then raise (Violation (invariant, detail))

(* injected + imported + forked
   = delivered + table drops + port drops + exported + consumed + live.
   Both sides are maintained by independent mechanisms (the fate
   counters vs the per-packet [fated] discipline behind [live]), so a
   lost or double-counted fate genuinely unbalances the books. Covers
   unicast and PE-replicated traffic; see Network.flow_totals. *)
let check_conservation t =
  T.Counter.incr m_conservation;
  let f = Network.flow_totals t.net in
  let port = Network.port_drop_total t.net in
  let lhs = f.Network.injected + f.Network.imported + f.Network.forked in
  let rhs =
    f.Network.delivered + f.Network.table_drops + port + f.Network.exported
    + f.Network.consumed + f.Network.live
  in
  if lhs <> rhs then
    violate t "conservation"
      (Printf.sprintf
         "injected=%d imported=%d forked=%d vs delivered=%d table_drops=%d \
          port_drops=%d exported=%d consumed=%d live=%d (lhs=%d rhs=%d)"
         f.Network.injected f.Network.imported f.Network.forked
         f.Network.delivered f.Network.table_drops port f.Network.exported
         f.Network.consumed f.Network.live lhs rhs)

(* With pooling on, [allocated - live - pool] counts packet records
   neither circulating nor retired — leaked. It need not be zero (other
   networks earlier in the process may have leftovers) but must stay
   constant between ticks. Domain-local data only: the pool belongs to
   this domain and [allocated] is process-wide, so the check is valid
   only when no other domain can be allocating — the main domain with
   no cross-shard traffic. Unattributed drops retire live packets that
   were never released; rebase over them. *)
let check_pool t =
  let f = Network.flow_totals t.net in
  if
    Packet.pooling () && Domain.is_main_domain ()
    && f.Network.imported = 0 && f.Network.exported = 0
  then begin
    T.Counter.incr m_pool;
    let offset = Packet.allocated () - f.Network.live - Packet.pool_size () in
    match t.pool_base with
    | Some base
      when f.Network.unattributed = t.unattributed_prev && offset <> base ->
      violate t "pool"
        (Printf.sprintf
           "leak witness moved: allocated=%d live=%d pool=%d offset=%d \
            (baseline %d)"
           (Packet.allocated ()) f.Network.live (Packet.pool_size ()) offset
           base)
    | Some _ when f.Network.unattributed <> t.unattributed_prev ->
      t.pool_base <- Some offset;
      t.unattributed_prev <- f.Network.unattributed
    | Some _ -> ()
    | None ->
      t.pool_base <- Some offset;
      t.unattributed_prev <- f.Network.unattributed
  end

(* No packet incarnation may be received more than [max_hops] times —
   the TTL bound, read back from the hop-trace ring. The ring only
   holds the most recent window, so this is a streaming spot check:
   any loop that outlives the ring shows up in it. Empty ring (trace
   disabled) passes trivially. *)
let check_loops t =
  T.Counter.incr m_loops;
  let ring = T.Registry.trace () in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 512 in
  T.Hop_trace.fold
    (fun () (e : T.Hop_trace.event) ->
       if String.equal e.T.Hop_trace.label "rx" then begin
         let n =
           match Hashtbl.find_opt counts e.T.Hop_trace.uid with
           | Some n -> n + 1
           | None -> 1
         in
         Hashtbl.replace counts e.T.Hop_trace.uid n;
         if n = t.max_hops + 1 then
           violate t "loops"
             (Printf.sprintf "packet uid %d seen rx %d times (bound %d)"
                e.T.Hop_trace.uid n t.max_hops)
       end)
    ring ()

(* Protection coverage: every armed directed link is either protected
   or counted unprotected — the split may shift as chaos rewires
   bypasses, but the superset (their sum) is the armed-link set and
   must not change. The switchover counter may only grow. *)
let check_frr t =
  match t.frr with
  | None -> ()
  | Some f ->
    T.Counter.incr m_frr;
    let s = Frr.stats f in
    let total = s.Frr.protected_links + s.Frr.unprotected_links in
    (match t.frr_base with
     | None -> t.frr_base <- Some total
     | Some base ->
       if total <> base then
         violate t "frr"
           (Printf.sprintf
              "protection superset changed: protected=%d unprotected=%d \
               sum=%d (baseline %d)"
              s.Frr.protected_links s.Frr.unprotected_links total base));
    let switched = T.Registry.counter_value "resilience.frr.switched" in
    if switched < t.frr_switched_prev then
      violate t "frr"
        (Printf.sprintf "resilience.frr.switched went backwards: %d < %d"
           switched t.frr_switched_prev);
    t.frr_switched_prev <- switched

(* Error budget is spent, never refunded: cumulative [budget_spent]
   per (vpn, band) must be non-decreasing tick over tick. Reads
   whichever SLO engine is attached to the network at tick time. *)
let check_slo t =
  match Network.slo t.net with
  | None -> ()
  | Some slo ->
    T.Counter.incr m_slo;
    (match t.slo_seen with
     | Some prev when prev == slo -> ()
     | _ ->
       Hashtbl.reset t.slo_prev;
       t.slo_seen <- Some slo);
    List.iter
      (fun (r : T.Slo.report) ->
         let key = (r.T.Slo.vpn, r.T.Slo.band) in
         (match Hashtbl.find_opt t.slo_prev key with
          | Some prev when r.T.Slo.budget_spent +. 1e-9 < prev ->
            violate t "slo"
              (Printf.sprintf
                 "vpn %d band %d budget_spent went backwards: %g < %g"
                 r.T.Slo.vpn r.T.Slo.band r.T.Slo.budget_spent prev)
          | _ -> ());
         Hashtbl.replace t.slo_prev key r.T.Slo.budget_spent)
      (T.Slo.reports slo)

(* Per-band queue books: cumulative counters only grow, and the implied
   standing depth (enqueued - dequeued - drops) is never negative. *)
let check_queues t =
  T.Counter.incr m_queues;
  Network.iter_ports t.net (fun ~link_id p ->
      let stats = Queue_disc.stats (Port.qdisc p) in
      Array.iteri
        (fun band (bs : Queue_disc.band_stats) ->
           (* [enqueued] counts only accepted packets — tail/RED drops
              are tallied separately, never enqueued — so standing
              depth is the plain difference. *)
           let depth = bs.Queue_disc.enqueued - bs.Queue_disc.dequeued in
           if depth < 0 then
             violate t "queues"
               (Printf.sprintf
                  "link %d band %d negative depth: enq=%d deq=%d tail=%d \
                   red=%d"
                  link_id band bs.Queue_disc.enqueued bs.Queue_disc.dequeued
                  bs.Queue_disc.tail_dropped bs.Queue_disc.red_dropped);
           let key = (link_id, band) in
           match Hashtbl.find_opt t.queue_prev key with
           | None ->
             Hashtbl.add t.queue_prev key
               { q_enq = bs.Queue_disc.enqueued;
                 q_deq = bs.Queue_disc.dequeued;
                 q_tail = bs.Queue_disc.tail_dropped;
                 q_red = bs.Queue_disc.red_dropped }
           | Some prev ->
             if
               bs.Queue_disc.enqueued < prev.q_enq
               || bs.Queue_disc.dequeued < prev.q_deq
               || bs.Queue_disc.tail_dropped < prev.q_tail
               || bs.Queue_disc.red_dropped < prev.q_red
             then
               violate t "queues"
                 (Printf.sprintf
                    "link %d band %d cumulative counter went backwards" link_id
                    band);
             prev.q_enq <- bs.Queue_disc.enqueued;
             prev.q_deq <- bs.Queue_disc.dequeued;
             prev.q_tail <- bs.Queue_disc.tail_dropped;
             prev.q_red <- bs.Queue_disc.red_dropped)
        stats)

(* Bounded residency: the live major heap must not grow without bound
   over a soak. The baseline is taken a few ticks in (after arming
   transients); the bound is generous — a slack factor plus a fixed
   allowance — because this is a leak detector, not a perf gate. *)
let heap_fixed_allowance = 16_000_000  (* words *)

let check_heap t =
  T.Counter.incr m_heap;
  let hw = (Gc.quick_stat ()).Gc.heap_words in
  match t.heap_base with
  | None -> if t.ticks >= 3 then t.heap_base <- Some hw
  | Some base ->
    let bound =
      max
        (int_of_float (t.heap_slack *. float_of_int base))
        (base + heap_fixed_allowance)
    in
    if hw > bound then
      violate t "heap"
        (Printf.sprintf "live heap %d words > bound %d (baseline %d)" hw
           bound base)

let run_checks t =
  check_conservation t;
  check_pool t;
  check_loops t;
  check_frr t;
  check_slo t;
  check_queues t;
  check_heap t

let stop t = t.stop ()

let ticks t = t.ticks
let violations t = t.violations
let recent_violations t = List.rev t.recent

let start ?(interval = default_interval) ?until ?(fail_fast = false)
    ?(max_hops = default_max_hops) ?(heap_slack = 4.0) ?frr sc =
  if max_hops < 1 then invalid_arg "Audit.start: max_hops must be >= 1";
  if not (heap_slack >= 1.0) then
    invalid_arg "Audit.start: heap_slack must be >= 1";
  let t =
    { net = Scenario.network sc; fail_fast; max_hops; heap_slack; frr;
      ticks = 0; violations = 0; recent = []; stop = ignore;
      frr_base = None; frr_switched_prev = 0;
      slo_prev = Hashtbl.create 16; slo_seen = None;
      queue_prev = Hashtbl.create 64; heap_base = None; pool_base = None;
      unattributed_prev = 0 }
  in
  t.stop <-
    Engine.periodic (Scenario.engine sc) ~kind:k_tick ~interval ?until
      (fun () ->
         t.ticks <- t.ticks + 1;
         T.Counter.incr m_ticks;
         run_checks t);
  t
