module Runner = Mvpn_par.Runner
module Scenario = Mvpn_core.Scenario
module Backbone = Mvpn_core.Backbone
module Telemetry = Mvpn_telemetry

type storm = { seed : int; plan : Chaos.plan }

let storm ?events ~seed (cfg : Runner.config) =
  let plan =
    Telemetry.Control.with_disabled (fun () ->
        let sc =
          Scenario.build ~pops:cfg.pops ~vpns:cfg.vpns
            ~sites_per_vpn:cfg.sites_per_vpn ~seed:cfg.seed
            (Scenario.Mpls_deployment
               { policy = cfg.policy; use_te = cfg.use_te })
        in
        Chaos.random_topology_plan ?events
          ~nodes:(Array.to_list (Backbone.pops (Scenario.backbone sc)))
          ~rng:(Mvpn_sim.Rng.create seed)
          ~links:(Scenario.core_links sc) ~duration:cfg.duration ())
  in
  { seed; plan }

let arm ?storm ?audit ?(fail_fast = false) (cfg : Runner.config) =
  let prepare sc =
    let frr =
      match storm with
      | Some s ->
        Harness.frr
          (Harness.arm ~plan:s.plan ~frr:true ~fallback:true ~seed:s.seed
             ~duration:cfg.duration sc)
      | None -> None
    in
    ignore
      (Scenario.attach_slo
         ~slo:(Telemetry.Slo.create ~events:(Telemetry.Event_log.create ()) ())
         sc);
    Mvpn_core.Network.set_span_sampler (Scenario.network sc) None;
    Option.iter
      (fun interval ->
         ignore
           (Audit.start ~interval ~until:(Runner.horizon_of cfg) ~fail_fast
              ?frr sc))
      audit
  in
  { cfg with prepare_replica = Some prepare }
