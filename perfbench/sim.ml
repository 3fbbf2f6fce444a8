(* One sequential simulation replica, driven step by step through the
   public API so set-up and the event loop are timed apart.

   The arming order is [Mvpn_par.Runner.run_sequential]'s — timeline
   sampler, then chaos/SLO/auditor, then the fate hook, then the
   workload — so events at equal times keep the FIFO ranks the sharded
   runner reproduces, and a K=2 run of the same inputs must land on the
   same traffic. *)

module Engine = Mvpn_sim.Engine
module Profile = Mvpn_sim.Profile
module Scenario = Mvpn_core.Scenario
module Network = Mvpn_core.Network
module Qos_mapping = Mvpn_core.Qos_mapping
module Sampler = Mvpn_core.Sampler
module Site = Mvpn_core.Site
module Audit = Mvpn_resilience.Audit
module Chaos = Mvpn_resilience.Chaos
module Harness = Mvpn_resilience.Harness
module T = Mvpn_telemetry

type spec = {
  pops : int;
  vpns : int;
  sites_per_vpn : int;
  load : float;
  duration : float;  (* workload seconds; the engine runs 5 s longer *)
  seed : int;
  diurnal : int option;  (* envelope segments; [None] = flat mixed load *)
}

(* The soak's extra arming: a topology storm with FRR and IP fallback,
   and any subset of the measurement plane. The storm draws from seed
   [spec.seed - 4]: E18's storm seed 7 at the default seed 11. *)
type soak = {
  storm_events : int;
  live_slo : bool;
  audit : bool;
  sampler : bool;
  tick : float;  (* audit and sampler interval, simulated seconds *)
}

let horizon spec = spec.duration +. 5.0

let deployment =
  Scenario.Mpls_deployment
    { policy = Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched;
      use_te = false }

(* Packet fates in arrival order, as plain arrays (no record per fate). *)
type fates = {
  mutable times : float array;
  mutable lats : float array;
  mutable meta : int array;  (* vpn lsl 22 lor band lsl 1 lor dropped *)
  mutable n : int;
}

let fates_create () =
  { times = Array.make 1024 0.0; lats = Array.make 1024 0.0;
    meta = Array.make 1024 0; n = 0 }

let fates_add f ~time ~vpn ~band ~dropped ~latency =
  if f.n = Array.length f.meta then begin
    let grow a z =
      let b = Array.make (2 * f.n) z in
      Array.blit a 0 b 0 f.n;
      b
    in
    f.times <- grow f.times 0.0;
    f.lats <- grow f.lats 0.0;
    f.meta <- grow f.meta 0
  end;
  f.times.(f.n) <- time;
  f.lats.(f.n) <- latency;
  f.meta.(f.n) <- (vpn lsl 22) lor (band lsl 1) lor Bool.to_int dropped;
  f.n <- f.n + 1

type rep = {
  spec : spec;
  sc : Scenario.t;
  fates : fates;
  audit : Audit.t option;
  build_s : float;  (* Scenario.build alone, normalized CPU seconds *)
  setup_s : float;  (* build + storm draw + arming, likewise *)
}

(* Set-up times are normalized by reference slices on either side. *)
let setup ?soak ?tracer ?(profile = false) spec =
  let pace = Pace.create () in
  Pace.tick pace 2000;
  let c0 = Meter.cpu () in
  let sc =
    Scenario.build ~pops:spec.pops ~vpns:spec.vpns
      ~sites_per_vpn:spec.sites_per_vpn ~seed:spec.seed deployment
  in
  let build_s = Meter.cpu () -. c0 in
  let net = Scenario.network sc in
  let horizon = horizon spec in
  let sampler =
    match soak with
    | Some s when s.sampler ->
      Some (Sampler.start ~interval:s.tick ~until:horizon sc)
    | _ -> None
  in
  let audit =
    match soak with
    | None -> None
    | Some s ->
      let plan =
        Chaos.random_topology_plan ~events:s.storm_events
          ~nodes:(Array.to_list (Mvpn_core.Backbone.pops (Scenario.backbone sc)))
          ~rng:(Mvpn_sim.Rng.create (spec.seed - 4))
          ~links:(Scenario.core_links sc) ~duration:spec.duration ()
      in
      let frr =
        Harness.frr
          (Harness.arm ~plan ~frr:true ~fallback:true ~seed:(spec.seed - 4)
             ~duration:spec.duration sc)
      in
      if s.live_slo then begin
        ignore
          (Scenario.attach_slo
             ~slo:(T.Slo.create ~events:(T.Event_log.create ()) ()) sc);
        (* attach_slo's span sampler re-walks the trace ring per sampled
           delivery; the soak recipe runs without it. *)
        Network.set_span_sampler net None
      end;
      if s.audit then Some (Audit.start ~interval:s.tick ?frr ~until:horizon sc)
      else None
  in
  if profile then Profile.enable (Engine.profiler (Scenario.engine sc));
  let fates = fates_create () in
  Network.set_fate_hook net
    (Some
       (match sampler with
        | None -> fates_add fates
        | Some sm ->
          fun ~time ~vpn ~band ~dropped ~latency ->
            Sampler.observe_fate sm ~time ~vpn ~band ~dropped ~latency;
            fates_add fates ~time ~vpn ~band ~dropped ~latency));
  Network.set_tracer net tracer;
  let pairs = Scenario.default_pairs sc and only _ _ = true in
  (match spec.diurnal with
   | None ->
     Scenario.add_mixed_workload ~load:spec.load ~only sc ~pairs
       ~duration:spec.duration
   | Some segments ->
     Scenario.add_diurnal_workload ~peak_load:spec.load ~segments ~only sc
       ~pairs ~duration:spec.duration);
  let setup_s = Meter.cpu () -. c0 in
  Pace.tick pace 2000;
  { spec; sc; fates; audit; build_s = Pace.normalize pace build_s;
    setup_s = Pace.normalize pace setup_s }

(* The event loop on CPU seconds, in windows of a quarter of a simulated
   second with a 500-event host-speed reference slice after each (see
   [Pace]; finer windows and more reference time tracked the host
   better in trials, at ~20 % extra run time). Windows change nothing
   the packets see: [Engine.run ~until] stops and resumes exactly where
   one run to the horizon would pass. Returns the raw and the normalized
   CPU seconds, and the host slowdown. *)
let run r =
  let eng = Scenario.engine r.sc in
  let h = horizon r.spec in
  let pace = Pace.create () in
  let cpu = ref 0.0 and t = ref 0.0 in
  while !t < h do
    t := Float.min h (!t +. 0.25);
    let c0 = Meter.cpu () in
    Engine.run ~until:!t eng;
    cpu := !cpu +. (Meter.cpu () -. c0);
    Pace.tick pace 500
  done;
  (!cpu, Pace.normalize pace !cpu, Pace.slowdown pace)

(* --- what the packets did --------------------------------------------- *)

(* The traffic fingerprint: delivered, dropped, per-class sent/received
   and the SLO verdict. Executed and scheduled event counts are left
   out on purpose — fusing or splitting events may change them while
   every packet fares exactly the same. *)
type traffic = {
  delivered : int;
  dropped : int;
  classes : (string * int * int) list;
  in_budget : bool;
  violations : int;
}

let fingerprint t =
  Printf.sprintf "delivered=%d dropped=%d classes=%s slo=%b/%d" t.delivered
    t.dropped
    (String.concat ","
       (List.map (fun (l, s, r) -> Printf.sprintf "%s:%d/%d" l s r) t.classes))
    t.in_budget t.violations

(* Replay the fate log into a fresh conformance engine with the stock
   per-(vpn, band) objectives — the verdict the runners report. *)
let replay_slo r =
  let slo = T.Slo.create ~events:(T.Event_log.create ()) () in
  let vpns =
    Array.fold_left (fun acc (s : Site.t) -> s.Site.vpn :: acc) [ 0 ]
      (Scenario.sites r.sc)
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun vpn ->
       for band = 0 to Qos_mapping.band_count - 1 do
         T.Slo.declare slo ~vpn ~band (Qos_mapping.default_objective band)
       done)
    vpns;
  T.Control.with_enabled (fun () ->
      let f = r.fates in
      for i = 0 to f.n - 1 do
        let m = f.meta.(i) in
        let vpn = m lsr 22 and band = (m lsr 1) land 0x1FFFFF in
        if m land 1 = 1 then
          T.Slo.observe_drop slo ~vpn ~band ~time:f.times.(i)
        else
          T.Slo.observe_delivery slo ~vpn ~band ~time:f.times.(i)
            ~latency:f.lats.(i)
      done;
      T.Slo.advance slo ~time:(horizon r.spec));
  slo

let traffic r =
  let net = Scenario.network r.sc in
  let slo = replay_slo r in
  { delivered = (Network.flow_totals net).Network.delivered;
    dropped = Network.drops net;
    classes =
      List.map
        (fun (l, (rep : Mvpn_qos.Sla.report)) ->
           (l, rep.Mvpn_qos.Sla.sent, rep.Mvpn_qos.Sla.received))
        (Scenario.class_reports r.sc);
    in_budget = T.Slo.in_budget slo;
    violations = T.Slo.violation_count slo }

let of_outcome (o : Mvpn_par.Runner.outcome) =
  { delivered = o.Mvpn_par.Runner.delivered;
    dropped = o.Mvpn_par.Runner.dropped;
    classes = o.Mvpn_par.Runner.classes;
    in_budget = T.Slo.in_budget o.Mvpn_par.Runner.slo;
    violations = T.Slo.violation_count o.Mvpn_par.Runner.slo }

(* The always-on packet ledger must balance once the run is over:
   injected + imported + forked
   = delivered + table drops + port drops + exported + consumed + live. *)
let balanced r =
  let net = Scenario.network r.sc in
  let f = Network.flow_totals net in
  f.Network.injected + f.Network.imported + f.Network.forked
  = f.Network.delivered + f.Network.table_drops + Network.port_drop_total net
    + f.Network.exported + f.Network.consumed + f.Network.live

(* Every check a finished sequential replica must pass; [expect] is the
   recorded fingerprint, when there is one for these inputs. *)
let verify ?expect r t =
  let ok_ledger = Meter.check "flow_totals conservation ledger balances" (balanced r) in
  let ok_audit =
    match r.audit with
    | None -> true
    | Some a ->
      Meter.check
        (Printf.sprintf "audit reports 0 violations (got %d)" (Audit.violations a))
        (Audit.violations a = 0)
  in
  let ok_fp =
    match expect with
    | None -> true
    | Some fp ->
      let got = fingerprint t in
      Meter.check
        (Printf.sprintf "traffic fingerprint %S matches recorded %S" got fp)
        (String.equal got fp)
  in
  ok_ledger && ok_audit && ok_fp

let delivered r = (Network.flow_totals (Scenario.network r.sc)).Network.delivered
let events r = Engine.processed (Scenario.engine r.sc)
