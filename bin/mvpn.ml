(* mvpn — command-line front end.

     mvpn topo     [--pops N]                  describe a backbone
     mvpn deploy   [--pops N] [--vpns V] [--sites K] [--overlay]
                                               provision and print state
     mvpn run      [--policy P] [--load L] [--duration D] ...
                                               run the mixed workload and
                                               print per-class SLA reports
     mvpn stats    [--json] ...                run the workload with
                                               telemetry on and dump the
                                               metric registry
     mvpn slo      [--json] [--fail-at T] ...  run under per-(vpn, band)
                                               SLOs; report conformance,
                                               budgets and events; exit
                                               non-zero when out of budget
     mvpn timeline [--json|--csv] [--interval S] [--shards K]
                                               run with the timeline sampler
                                               armed and export the recorded
                                               time series
     mvpn soak     [--hours H] [--chaos SEED] [--shards K] [--json]
                                               long-horizon diurnal soak with
                                               the invariant auditor armed;
                                               exit 1 on any violation
     mvpn fail     [--pops N] ...              fail a core link mid-run and
                                               report reconvergence
     mvpn provision [--customers N] [--sites-dist D] [--churn K] [--json]
                                               compile a customer portfolio
                                               to VPN state; churn it
                                               incrementally against the
                                               from-scratch oracle *)

open Cmdliner
open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Sla = Mvpn_qos.Sla
module Telemetry = Mvpn_telemetry

(* --- shared arguments -------------------------------------------------- *)

let pops_arg =
  Arg.(value & opt int 12 & info ["pops"] ~docv:"N" ~doc:"Number of POPs.")

let vpns_arg =
  Arg.(value & opt int 2 & info ["vpns"] ~docv:"V" ~doc:"Number of VPNs.")

let sites_arg =
  Arg.(value & opt int 4 & info ["sites"] ~docv:"K"
         ~doc:"Sites per VPN.")

let policy_conv =
  Arg.enum
    [ ("best-effort", Qos_mapping.Best_effort);
      ("diffserv", Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched);
      ("diffserv-strict", Qos_mapping.Diffserv Qos_mapping.strict_sched) ]

let policy_arg =
  Arg.(value
       & opt policy_conv
           (Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
       & info ["policy"] ~docv:"POLICY"
         ~doc:"Forwarding policy: best-effort, diffserv, diffserv-strict.")

let load_arg =
  Arg.(value & opt float 0.9 & info ["load"] ~docv:"L"
         ~doc:"Offered load as a fraction of the access rate.")

let duration_arg =
  Arg.(value & opt float 30.0 & info ["duration"] ~docv:"SEC"
         ~doc:"Workload duration in simulated seconds.")

let overlay_arg =
  Arg.(value & flag & info ["overlay"]
         ~doc:"Deploy the IPSec overlay baseline instead of the MPLS VPN.")

let te_arg =
  Arg.(value & flag & info ["te"] ~doc:"Signal RSVP-TE tunnels between PEs.")

let seed_arg =
  Arg.(value & opt int 11 & info ["seed"] ~docv:"SEED"
         ~doc:"Deterministic simulation seed.")

(* --- topo --------------------------------------------------------------- *)

let topo_cmd =
  let run pops =
    let bb = Backbone.build ~pops () in
    let topo = Backbone.topology bb in
    Printf.printf "backbone: %d POPs, %d unidirectional links\n" pops
      (Topology.link_count topo);
    List.iter
      (fun (l : Topology.link) ->
         if l.Topology.src < l.Topology.dst then
           Printf.printf "  %-4s <-> %-4s  %5.1f Mb/s  %4.1f ms\n"
             (Topology.node_name topo l.Topology.src)
             (Topology.node_name topo l.Topology.dst)
             (l.Topology.bandwidth /. 1e6)
             (l.Topology.delay *. 1e3))
      (Topology.links topo);
    Array.iteri
      (fun pop node ->
         Printf.printf "  pop %2d = node %2d, loopback %s\n" pop node
           (Mvpn_net.Prefix.to_string (Backbone.loopback bb ~pop)))
      (Backbone.pops bb)
  in
  Cmd.v (Cmd.info "topo" ~doc:"Describe the reference backbone topology.")
    Term.(const run $ pops_arg)

(* --- deploy ------------------------------------------------------------- *)

let deploy_cmd =
  let run pops vpns sites_per_vpn overlay seed =
    let sc =
      Scenario.build ~pops ~vpns ~sites_per_vpn ~seed
        (if overlay then
           Scenario.Overlay_deployment
             { policy = Qos_mapping.Best_effort;
               cipher = Mvpn_ipsec.Crypto.Des; copy_tos = true }
         else
           Scenario.Mpls_deployment
             { policy = Qos_mapping.Best_effort; use_te = false })
    in
    (match Scenario.mpls sc with
     | Some m ->
       let x = Mpls_vpn.metrics m in
       Printf.printf
         "MPLS VPN deployed: %d sites in %d VPNs\n\
          \  VRFs               %d\n\
          \  VPNv4 routes       %d\n\
          \  BGP sessions       %d\n\
          \  LFIB entries       %d\n\
          \  labels allocated   %d\n\
          \  control messages   %d\n\
          \  operator touches   %d\n"
         x.Mpls_vpn.sites x.Mpls_vpn.vpns x.Mpls_vpn.vrf_count
         x.Mpls_vpn.vpnv4_routes x.Mpls_vpn.bgp_sessions
         x.Mpls_vpn.lfib_entries x.Mpls_vpn.labels_allocated
         x.Mpls_vpn.control_messages x.Mpls_vpn.provisioning_touches
     | None -> ());
    match Scenario.overlay sc with
    | Some o ->
      let x = Overlay.metrics o in
      Printf.printf
        "Overlay VPN deployed: %d sites in %d VPNs\n\
         \  virtual circuits   %d\n\
         \  directional tunnels %d\n\
         \  IKE messages       %d\n\
         \  operator touches   %d\n"
        x.Overlay.sites x.Overlay.vpns x.Overlay.vcs x.Overlay.tunnels
        x.Overlay.control_messages x.Overlay.provisioning_touches
    | None -> ()
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Provision a VPN service and print its control-plane state.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ overlay_arg
          $ seed_arg)

(* --- run ---------------------------------------------------------------- *)

let print_reports sc =
  Printf.printf "%-15s %6s %6s %10s %10s %9s %8s  %s\n" "class" "sent"
    "recv" "mean ms" "p99 ms" "jit ms" "loss" "SLA";
  List.iter
    (fun (cls, (r : Sla.report)) ->
       let spec =
         match
           List.find_opt (fun (n, _, _) -> n = cls) Scenario.service_classes
         with
         | Some (_, _, s) -> s
         | None -> Sla.best_effort_spec
       in
       Printf.printf "%-15s %6d %6d %10.2f %10.2f %9.2f %7.2f%%  %s\n" cls
         r.Sla.sent r.Sla.received
         (r.Sla.mean_delay *. 1e3)
         (r.Sla.p99_delay *. 1e3)
         (r.Sla.jitter *. 1e3)
         (r.Sla.loss *. 100.0)
         (if Sla.complies spec r then "ok"
          else String.concat "; " (Sla.check spec r)))
    (Scenario.class_reports sc)

let run_cmd =
  let run pops vpns sites_per_vpn policy load duration use_te seed =
    let sc =
      Scenario.build ~pops ~vpns ~sites_per_vpn ~seed
        (Scenario.Mpls_deployment { policy; use_te })
    in
    (* Wrap every CE sink with usage accounting. *)
    let acct = Accounting.create () in
    let registry = Scenario.registry sc in
    Array.iter
      (fun (s : Site.t) ->
         Network.set_sink (Scenario.network sc) s.Site.ce_node
           (Accounting.sink acct (Traffic.sink registry)))
      (Scenario.sites sc);
    Scenario.add_mixed_workload ~load sc ~pairs:(Scenario.default_pairs sc)
      ~duration;
    Scenario.run sc ~duration:(duration +. 5.0);
    print_reports sc;
    Printf.printf "\nmax core utilization: %.1f%%   core loss: %.2f%%\n"
      (Scenario.max_core_utilization sc *. 100.0)
      (Scenario.core_loss_fraction sc *. 100.0);
    Printf.printf "\nUsage-based billing (default tariff):\n";
    List.iter
      (fun vpn -> Accounting.pp_invoice Format.std_formatter acct ~vpn)
      (List.init vpns (fun v -> v + 1));
    Format.pp_print_flush Format.std_formatter ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the mixed voice/transactional/bulk workload and report \
             per-class SLAs.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ policy_arg
          $ load_arg $ duration_arg $ te_arg $ seed_arg)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run pops vpns sites_per_vpn policy load duration use_te seed json
      trace_events event_entries =
    Telemetry.Registry.reset ();
    Telemetry.Control.enable ();
    let sc =
      Scenario.build ~pops ~vpns ~sites_per_vpn ~seed
        (Scenario.Mpls_deployment { policy; use_te })
    in
    Scenario.add_mixed_workload ~load sc ~pairs:(Scenario.default_pairs sc)
      ~duration;
    Scenario.run sc ~duration:(duration +. 5.0);
    Telemetry.Control.disable ();
    if json then
      print_string
        (Telemetry.Registry.to_json ~trace_events ~event_entries ())
    else begin
      print_reports sc;
      Printf.printf "\n";
      Telemetry.Registry.pp ~trace_events Format.std_formatter ();
      Format.pp_print_flush Format.std_formatter ()
    end
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the telemetry registry as one JSON object instead \
                 of text.")
  in
  let trace_arg =
    Arg.(value & opt int 16 & info ["trace"; "trace-events"] ~docv:"N"
           ~doc:"Hop-trace tail length to include in the dump.")
  in
  let events_arg =
    Arg.(value & opt int 256 & info ["events"] ~docv:"N"
           ~doc:"Event-log tail length to include in the JSON dump.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the mixed workload with telemetry enabled and dump every \
             counter, gauge, histogram and the hop-trace tail.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ policy_arg
          $ load_arg $ duration_arg $ te_arg $ seed_arg $ json_arg
          $ trace_arg $ events_arg)

(* --- slo ---------------------------------------------------------------- *)

let slo_cmd =
  let run pops vpns sites_per_vpn policy load duration use_te seed json
      fail_at repair_at chaos_seed =
    Telemetry.Registry.reset ();
    Telemetry.Control.enable ();
    let sc =
      Scenario.build ~pops ~vpns ~sites_per_vpn ~seed
        (Scenario.Mpls_deployment { policy; use_te })
    in
    (* --chaos SEED: arm the full resilience stack (IP fallback, FRR
       bypasses, backoff recovery) plus the seeded fault plan, and
       judge conformance under that storm. *)
    (match chaos_seed with
     | Some cseed ->
       ignore
         (Mvpn_resilience.Harness.arm ~frr:true ~fallback:true ~seed:cseed
            ~duration sc)
     | None -> ());
    let slo = Scenario.attach_slo sc in
    let net = Scenario.network sc in
    let engine = Scenario.engine sc in
    Scenario.add_mixed_workload ~load sc ~pairs:(Scenario.default_pairs sc)
      ~duration;
    (* Optional mid-run core failure (and repair + reconvergence), to
       watch the conformance engine catch the churn. *)
    let pops_arr = Backbone.pops (Scenario.backbone sc) in
    let set_core up =
      Topology.set_duplex_state (Network.topology net) pops_arr.(0)
        pops_arr.(1) up
    in
    (match fail_at with
     | Some t when t > 0.0 ->
       Engine.schedule engine ~delay:t (fun () -> set_core false)
     | _ -> ());
    (match fail_at, repair_at with
     | Some _, Some t when t > 0.0 ->
       Engine.schedule engine ~delay:t (fun () ->
           set_core true;
           match Scenario.mpls sc with
           | Some m -> ignore (Mpls_vpn.reconverge m)
           | None -> ())
     | _ -> ());
    Scenario.run sc ~duration:(duration +. 5.0);
    Telemetry.Control.disable ();
    let ok = Telemetry.Slo.in_budget slo in
    let events = Telemetry.Registry.events () in
    if json then begin
      let spans =
        match Network.span_sampler net with
        | Some s -> Telemetry.Span.sampler_to_json s
        | None -> "[]"
      in
      Printf.printf
        "{\"schema\":%d,\"now\":%.9g,\"in_budget\":%b,\"objectives\":%s,\
         \"events\":%s,\"spans\":%s}"
        Telemetry.Registry.schema_version
        (Engine.now engine) ok (Telemetry.Slo.to_json slo)
        (Telemetry.Event_log.json_entries events)
        spans
    end
    else begin
      Printf.printf "SLA conformance after %.1fs (per vpn/band):\n"
        (Engine.now engine);
      Telemetry.Slo.pp Format.std_formatter slo;
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "\nevents (%d recorded):\n"
        (Telemetry.Event_log.recorded events);
      List.iter
        (fun e ->
           Format.printf "  %a@." Telemetry.Event_log.pp_entry e)
        (Telemetry.Event_log.entries events);
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "\noverall: %s\n"
        (if ok then "all objectives in budget"
         else "OUT OF BUDGET")
    end;
    if not ok then exit 1
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit conformance, events and sampled spans as one JSON \
                 object.")
  in
  let fail_arg =
    Arg.(value & opt (some float) None & info ["fail-at"] ~docv:"SEC"
           ~doc:"Fail the pop0<->pop1 core link at this time.")
  in
  let repair_arg =
    Arg.(value & opt (some float) None & info ["repair-at"] ~docv:"SEC"
           ~doc:"Repair the failed link (and reconverge) at this time.")
  in
  let chaos_arg =
    Arg.(value & opt (some int) None & info ["chaos"] ~docv:"SEED"
           ~doc:"Run under a seeded chaos fault plan with fast reroute, IP \
                 fallback and backoff recovery armed; judge the SLOs under \
                 that storm.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"Run the mixed workload under per-(vpn, band) SLOs and report \
             conformance, error budgets, burn rates and the event log. \
             Exit status is the contract: 0 when every objective is in \
             budget, 1 when any objective is out of budget (124 on \
             command-line errors, per cmdliner).")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ policy_arg
          $ load_arg $ duration_arg $ te_arg $ seed_arg $ json_arg
          $ fail_arg $ repair_arg $ chaos_arg)

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let run pops vpns sites_per_vpn load duration seed events json no_frr
      no_fallback =
    Telemetry.Registry.reset ();
    Telemetry.Control.enable ();
    let h =
      Mvpn_resilience.Harness.build ~pops ~vpns ~sites_per_vpn ~events ~load
        ~frr:(not no_frr) ~fallback:(not no_fallback) ~seed ~duration ()
    in
    Mvpn_resilience.Harness.run h;
    Telemetry.Control.disable ();
    if json then print_string (Mvpn_resilience.Harness.summary_json h)
    else begin
      Mvpn_resilience.Harness.pp_summary Format.std_formatter h;
      Format.pp_print_flush Format.std_formatter ()
    end
  in
  let events_arg =
    Arg.(value & opt int 12 & info ["events"] ~docv:"N"
           ~doc:"Number of faults in the seeded plan.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the replayable plan and every terminal fate as one \
                 JSON object. Byte-identical for equal seeds.")
  in
  let no_frr_arg =
    Arg.(value & flag & info ["no-frr"]
           ~doc:"Disarm MPLS fast reroute (baseline regime).")
  in
  let no_fallback_arg =
    Arg.(value & flag & info ["no-fallback"]
           ~doc:"Disarm best-effort IP fallback at the ingress PE.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the mixed workload under a seeded fault storm — link \
             flaps, node outages, loss and corruption bursts, \
             control-plane session drops — with fast reroute, IP fallback \
             and backoff recovery armed, and account every packet's fate.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ load_arg
          $ duration_arg $ seed_arg $ events_arg $ json_arg $ no_frr_arg
          $ no_fallback_arg)

(* --- par ---------------------------------------------------------------- *)

let par_cmd =
  let run pops vpns sites_per_vpn policy load duration use_te seed shards
      core_delay seq json =
    Telemetry.Registry.reset ();
    Telemetry.Control.enable ();
    let cfg =
      { Mvpn_par.Runner.shards; pops; vpns; sites_per_vpn; policy; use_te;
        load; duration; seed; core_delay;
        backend = Mvpn_sim.Engine.Calendar;
        sample_interval = None; profile = false; prepare_replica = None;
        diurnal = None }
    in
    let o =
      if seq then Mvpn_par.Runner.run_sequential cfg
      else Mvpn_par.Runner.run_parallel cfg
    in
    Telemetry.Control.disable ();
    let open Mvpn_par.Runner in
    if json then begin
      let b = Buffer.create 8192 in
      Printf.bprintf b
        "{\"schema\":%d,\"shards\":%d,\"sizes\":[%s],\"cut_links\":%d,\
         \"lookahead\":%b,"
        Telemetry.Registry.schema_version o.shards
        (String.concat ","
           (Array.to_list (Array.map string_of_int o.sizes)))
        o.cut_links o.lookahead;
      Printf.bprintf b
        "\"delivered\":%d,\"dropped\":%d,\"events\":%d,\"scheduled\":%d,\
         \"exchanged\":%d,\"leftover\":%d,\"overflow\":%d,"
        o.delivered o.dropped o.events o.scheduled o.exchanged o.leftover
        o.overflow;
      Printf.bprintf b "\"classes\":{%s},"
        (String.concat ","
           (List.map
              (fun (l, s, r) ->
                 Printf.sprintf "\"%s\":{\"sent\":%d,\"received\":%d}" l s r)
              o.classes));
      Printf.bprintf b
        "\"slo\":{\"in_budget\":%b,\"violations\":%d,\"objectives\":%s},"
        (Telemetry.Slo.in_budget o.slo)
        (Telemetry.Slo.violation_count o.slo)
        (Telemetry.Slo.to_json o.slo);
      Printf.bprintf b "\"registry\":%s}" o.registry_json;
      print_string (Buffer.contents b)
    end
    else begin
      Printf.printf
        "partitioned run: %d shard(s), %d cut link(s), %s sync\n"
        o.shards o.cut_links
        (if o.lookahead then "lookahead-window" else "epoch-barrier");
      Printf.printf "  nodes per shard   %s\n"
        (String.concat "/"
           (Array.to_list (Array.map string_of_int o.sizes)));
      Printf.printf "  delivered         %d\n  dropped           %d\n"
        o.delivered o.dropped;
      Printf.printf "  events run        %d (scheduled %d)\n" o.events
        o.scheduled;
      Printf.printf
        "  cross-shard       %d packet(s), %d past horizon, %d overflow\n"
        o.exchanged o.leftover o.overflow;
      Printf.printf "  %-15s %8s %8s\n" "class" "sent" "recv";
      List.iter
        (fun (l, s, r) -> Printf.printf "  %-15s %8d %8d\n" l s r)
        o.classes;
      Printf.printf "\nSLA conformance (merged fate replay):\n";
      Telemetry.Slo.pp Format.std_formatter o.slo;
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "overall: %s\n"
        (if Telemetry.Slo.in_budget o.slo then "all objectives in budget"
         else "OUT OF BUDGET")
    end
  in
  let shards_arg =
    Arg.(value & opt int 4 & info ["shards"] ~docv:"K"
           ~doc:"Number of parallel shards (domains). Clamped to the \
                 number of POP regions; 1 degenerates to a sequential \
                 run through the same machinery.")
  in
  let core_delay_arg =
    Arg.(value & opt (some float) None & info ["core-delay"] ~docv:"SEC"
           ~doc:"Override the POP-POP propagation delay (the \
                 synchronization lookahead). 0 forces the epoch-barrier \
                 fallback.")
  in
  let seq_arg =
    Arg.(value & flag & info ["seq"]
           ~doc:"Run the identical build/workload sequentially in one \
                 domain (baseline for totals comparison).")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the outcome, per-class sums, SLO conformance and \
                 the merged telemetry registry as one JSON object. \
                 Byte-identical for equal seeds at every shard count.")
  in
  Cmd.v
    (Cmd.info "par"
       ~doc:"Run the mixed workload on the multicore partitioned runner: \
             the backbone is cut into shards (one OCaml domain each, \
             conservatively synchronized over the cut links) and the \
             per-shard telemetry merges into one snapshot whose totals \
             are identical to the sequential run's, for every shard \
             count.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ policy_arg
          $ load_arg $ duration_arg $ te_arg $ seed_arg $ shards_arg
          $ core_delay_arg $ seq_arg $ json_arg)

(* --- timeline ----------------------------------------------------------- *)

let timeline_cmd =
  let jf v =
    if Float.is_finite v then Printf.sprintf "%.9g" v else "0"
  in
  let run pops vpns sites_per_vpn policy load duration use_te seed shards
      interval json csv =
    Telemetry.Registry.reset ();
    Telemetry.Control.enable ();
    let cfg =
      { Mvpn_par.Runner.default_config with
        shards = (if shards < 1 then 1 else shards);
        pops; vpns; sites_per_vpn; policy; use_te; load; duration; seed;
        sample_interval = Some interval }
    in
    let o =
      if shards <= 1 then Mvpn_par.Runner.run_sequential cfg
      else Mvpn_par.Runner.run_parallel cfg
    in
    Telemetry.Control.disable ();
    (* Sim-scope series only. Host-scope rings (GC churn) are real but
       machine-dependent, so they stay out of the export — which is what
       keeps the bytes identical for every shard count. *)
    let sim_series =
      List.filter_map
        (fun name ->
           match Telemetry.Registry.find_series name with
           | Some s when Telemetry.Timeseries.scope s = Telemetry.Timeseries.Sim
             ->
             Some (name, Telemetry.Timeseries.level s,
                   Telemetry.Timeseries.samples s)
           | _ -> None)
        (Telemetry.Registry.names ())
    in
    (* Burn-rate series derived from the merged good/bad tallies: the
       ratio itself is not summable across shards, so it is computed
       here, after the merge, from sums that are. *)
    let burn_of vpn band good bad =
      let target = Sampler.slo_target ~band in
      let budget = 1.0 -. target in
      let n = min (Array.length good) (Array.length bad) in
      let out = Array.make n (0.0, 0.0) in
      for i = 0 to n - 1 do
        let tg, g = good.(i) and _, b = bad.(i) in
        let total = g +. b in
        let burn =
          if total > 0.0 && budget > 0.0 then b /. total /. budget else 0.0
        in
        out.(i) <- (tg, burn)
      done;
      (Printf.sprintf "ts.slo.v%d.b%d.burn" vpn band, 0, out)
    in
    let derived =
      List.filter_map
        (fun (name, _, good) ->
           match Scanf.sscanf_opt name "ts.slo.v%d.b%d.good"
                   (fun v b -> (v, b)) with
           | Some (vpn, band) ->
             (match Telemetry.Registry.find_series
                      (Printf.sprintf "ts.slo.v%d.b%d.bad" vpn band) with
              | Some s ->
                Some (burn_of vpn band good (Telemetry.Timeseries.samples s))
              | None -> None)
           | None -> None)
        sim_series
    in
    let all =
      List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
        (sim_series @ derived)
    in
    if json then begin
      let b = Buffer.create 65536 in
      Printf.bprintf b "{\"schema\":%d,\"interval\":%s,\"horizon\":%s,\
                        \"seed\":%d,\"series\":{"
        Telemetry.Registry.schema_version (jf interval) (jf o.Mvpn_par.Runner.horizon)
        seed;
      List.iteri
        (fun i (name, level, samples) ->
           if i > 0 then Buffer.add_char b ',';
           Printf.bprintf b "\"%s\":{\"level\":%d,\"samples\":[" name level;
           Array.iteri
             (fun j (t, v) ->
                if j > 0 then Buffer.add_char b ',';
                Printf.bprintf b "[%s,%s]" (jf t) (jf v))
             samples;
           Buffer.add_string b "]}")
        all;
      Buffer.add_string b "}}";
      print_string (Buffer.contents b)
    end
    else if csv then begin
      print_string "time,series,value\n";
      List.iter
        (fun (name, _, samples) ->
           Array.iter
             (fun (t, v) -> Printf.printf "%s,%s,%s\n" (jf t) name (jf v))
             samples)
        all
    end
    else begin
      Printf.printf
        "timeline: %d series, interval %.3gs, horizon %.3gs \
         (delivered %d, dropped %d)\n\n"
        (List.length all) interval o.Mvpn_par.Runner.horizon
        o.Mvpn_par.Runner.delivered o.Mvpn_par.Runner.dropped;
      Printf.printf "  %-26s %6s %5s %12s %12s %12s\n"
        "series" "n" "lvl" "min" "mean" "max";
      List.iter
        (fun (name, level, samples) ->
           let n = Array.length samples in
           if n = 0 then
             Printf.printf "  %-26s %6d %5d %12s %12s %12s\n"
               name 0 level "-" "-" "-"
           else begin
             let mn = ref infinity and mx = ref neg_infinity
             and sum = ref 0.0 in
             Array.iter
               (fun (_, v) ->
                  if v < !mn then mn := v;
                  if v > !mx then mx := v;
                  sum := !sum +. v)
               samples;
             Printf.printf "  %-26s %6d %5d %12.4g %12.4g %12.4g\n"
               name n level !mn (!sum /. float_of_int n) !mx
           end)
        all
    end
  in
  let shards_arg =
    Arg.(value & opt int 1 & info ["shards"] ~docv:"K"
           ~doc:"Shard (domain) count; 1 runs the sequential replica. The \
                 exported series are byte-identical at every K.")
  in
  let interval_arg =
    Arg.(value & opt float Sampler.default_interval
         & info ["interval"] ~docv:"SEC"
           ~doc:"Sampling interval in simulated seconds.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit every sim-scope time series as one JSON object. \
                 Byte-identical for equal seeds at every shard count.")
  in
  let csv_arg =
    Arg.(value & flag & info ["csv"]
           ~doc:"Emit the series in long form: time,series,value.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run the mixed workload with the timeline sampler armed and \
             export the recorded time series — per-link utilization, \
             per-band queue depth and drops, per-(vpn, band) SLO burn \
             material — as a table, JSON or CSV. Series ride fixed-size \
             decimating rings, so memory stays bounded at any horizon.")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ policy_arg
          $ load_arg $ duration_arg $ te_arg $ seed_arg $ shards_arg
          $ interval_arg $ json_arg $ csv_arg)

(* --- soak --------------------------------------------------------------- *)

(* Strictly positive finite float, rejected at parse time so misuse
   surfaces as cmdliner's usage-error exit (124), never as a crash or a
   silently degenerate run. *)
let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "must be a finite positive number")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv ~docv:"NUM" (parse, Format.pp_print_float)

let soak_cmd =
  let jf v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0" in
  let run pops vpns sites_per_vpn load seed shards hours chaos
      audit_interval snapshot_interval segments fail_fast json =
    Telemetry.Registry.reset ();
    let duration = hours *. 3600.0 in
    let cfg =
      { Mvpn_par.Runner.default_config with
        shards = (if shards < 1 then 1 else shards);
        pops; vpns; sites_per_vpn; load; duration; seed;
        sample_interval = Some snapshot_interval;
        diurnal = Some segments }
    in
    let storm =
      Option.map
        (fun cseed -> Mvpn_resilience.Soak.storm ~seed:cseed cfg)
        chaos
    in
    let cfg =
      Mvpn_resilience.Soak.arm ?storm ~audit:audit_interval ~fail_fast cfg
    in
    Telemetry.Control.enable ();
    let o =
      if shards <= 1 then Mvpn_par.Runner.run_sequential cfg
      else Mvpn_par.Runner.run_parallel cfg
    in
    Telemetry.Control.disable ();
    let replicas = max 1 o.Mvpn_par.Runner.shards in
    let audit_ticks =
      Telemetry.Registry.counter_value "audit.ticks" / replicas
    in
    let audit_violations =
      Telemetry.Registry.counter_value "audit.violations"
    in
    (* Streamed snapshot count: the longest sim-scope series the
       timeline sampler recorded (decimating rings bound it). *)
    let snapshots =
      List.fold_left
        (fun acc name ->
           match Telemetry.Registry.find_series name with
           | Some s
             when Telemetry.Timeseries.scope s = Telemetry.Timeseries.Sim ->
             max acc (Array.length (Telemetry.Timeseries.samples s))
           | _ -> acc)
        0
        (Telemetry.Registry.names ())
    in
    let open Mvpn_par.Runner in
    if json then begin
      (* Only shard-invariant material: equal seeds must give these
         exact bytes at every --shards K. *)
      let b = Buffer.create 8192 in
      Printf.bprintf b
        "{\"schema\":%d,\"hours\":%s,\"duration\":%s,\"seed\":%d,\
         \"load\":%s,\"segments\":%d,"
        Telemetry.Registry.schema_version (jf hours) (jf duration) seed
        (jf load) segments;
      (match storm with
       | Some { seed = cseed; plan } ->
         Printf.bprintf b "\"chaos\":{\"seed\":%d,\"plan\":%s}," cseed
           (Mvpn_resilience.Chaos.plan_json plan)
       | None -> Buffer.add_string b "\"chaos\":null,");
      Printf.bprintf b "\"delivered\":%d,\"dropped\":%d," o.delivered
        o.dropped;
      Printf.bprintf b "\"classes\":{%s},"
        (String.concat ","
           (List.map
              (fun (l, s, r) ->
                 Printf.sprintf "\"%s\":{\"sent\":%d,\"received\":%d}" l s
                   r)
              o.classes));
      Printf.bprintf b
        "\"slo\":{\"in_budget\":%b,\"violations\":%d},"
        (Telemetry.Slo.in_budget o.slo)
        (Telemetry.Slo.violation_count o.slo);
      Printf.bprintf b
        "\"audit\":{\"interval\":%s,\"ticks\":%d,\"violations\":%d},"
        (jf audit_interval) audit_ticks audit_violations;
      Printf.bprintf b "\"snapshots\":%d}" snapshots;
      print_string (Buffer.contents b)
    end
    else begin
      Printf.printf
        "soak: %.3g h simulated (%.6gs), seed %d, %d replica(s)\n" hours
        duration seed replicas;
      (match storm with
       | Some { seed = cseed; plan } ->
         Printf.printf "  chaos seed %d: %d topology faults\n" cseed
           (List.length plan)
       | None -> Printf.printf "  chaos: off\n");
      Printf.printf "  delivered         %d\n  dropped           %d\n"
        o.delivered o.dropped;
      Printf.printf "  audit ticks       %d (interval %.3gs)\n" audit_ticks
        audit_interval;
      Printf.printf "  audit violations  %d\n" audit_violations;
      List.iter
        (fun name ->
           let prefix = "audit.violation." in
           if String.length name > String.length prefix
           && String.sub name 0 (String.length prefix) = prefix then
             Printf.printf "    %-24s %d\n" name
               (Telemetry.Registry.counter_value name))
        (Telemetry.Registry.names ());
      Printf.printf "  snapshots         %d (interval %.3gs)\n" snapshots
        snapshot_interval;
      Printf.printf "\nSLA conformance (merged fate replay):\n";
      Telemetry.Slo.pp Format.std_formatter o.slo;
      Format.pp_print_flush Format.std_formatter ();
      Printf.printf "overall: %s\n"
        (if audit_violations = 0 then "all invariants held"
         else "INVARIANT VIOLATIONS")
    end;
    if audit_violations <> 0 then exit 1
  in
  let hours_arg =
    Arg.(value & opt pos_float_conv 0.1 & info ["hours"] ~docv:"H"
           ~doc:"Simulated soak length in hours (finite, positive).")
  in
  let chaos_arg =
    Arg.(value & opt (some int) None & info ["chaos"] ~docv:"SEED"
           ~doc:"Arm fast reroute, IP fallback, backoff recovery and a \
                 seeded topology-only fault storm (link flaps, node \
                 outages, session drops) for the whole soak.")
  in
  let shards_arg =
    Arg.(value & opt int 1 & info ["shards"] ~docv:"K"
           ~doc:"Shard (domain) count; 1 runs the sequential replica. \
                 The JSON envelope is byte-identical at every K.")
  in
  let audit_interval_arg =
    Arg.(value
         & opt pos_float_conv Mvpn_resilience.Audit.default_interval
         & info ["audit-interval"] ~docv:"SEC"
           ~doc:"Invariant audit interval in simulated seconds (finite, \
                 positive).")
  in
  let snapshot_interval_arg =
    Arg.(value & opt pos_float_conv Sampler.default_interval
         & info ["snapshot-interval"] ~docv:"SEC"
           ~doc:"Streaming telemetry snapshot interval in simulated \
                 seconds (finite, positive).")
  in
  let segments_arg =
    Arg.(value & opt int 8 & info ["segments"] ~docv:"N"
           ~doc:"Diurnal load-envelope segments over the soak.")
  in
  let fail_fast_arg =
    Arg.(value & flag & info ["fail-fast"]
           ~doc:"Abort on the first invariant violation instead of \
                 counting them to the end.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the soak envelope — inputs, chaos plan, traffic \
                 totals, SLO verdict, audit tallies — as one JSON \
                 object. Byte-identical for equal seeds at every shard \
                 count.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Long-horizon soak: hours of simulated mixed traffic under a \
             diurnal load envelope, optionally under a seeded chaos \
             storm, with the streaming invariant auditor and timeline \
             sampler armed on every replica. Exit status is the \
             contract: 0 when every audited invariant held, 1 on any \
             violation (124 on command-line errors, per cmdliner).")
    Term.(const run $ pops_arg $ vpns_arg $ sites_arg $ load_arg
          $ seed_arg $ shards_arg $ hours_arg $ chaos_arg
          $ audit_interval_arg $ snapshot_interval_arg $ segments_arg
          $ fail_fast_arg $ json_arg)

(* --- fail --------------------------------------------------------------- *)

let fail_cmd =
  let run pops seed =
    let sc =
      Scenario.build ~pops ~vpns:1 ~sites_per_vpn:2 ~seed
        (Scenario.Mpls_deployment
           { policy = Qos_mapping.Best_effort; use_te = false })
    in
    let a = Scenario.site sc ~vpn:1 ~idx:0 in
    let b = Scenario.site sc ~vpn:1 ~idx:1 in
    let net = Scenario.network sc in
    let engine = Scenario.engine sc in
    let delivered = ref 0 in
    Network.set_sink net b.Site.ce_node (fun _ -> incr delivered);
    let send () =
      let p =
        Mvpn_net.Packet.make ~vpn:1 ~now:(Engine.now engine)
          (Mvpn_net.Flow.make (Site.host a 1) (Site.host b 1))
      in
      Network.inject net a.Site.ce_node p;
      Engine.run engine
    in
    send ();
    Printf.printf "before failure: delivered %d/1\n" !delivered;
    let pops_arr = Backbone.pops (Scenario.backbone sc) in
    Topology.set_duplex_state (Network.topology net) pops_arr.(0)
      pops_arr.(1) false;
    Printf.printf "failing core link pop0 <-> pop1...\n";
    send ();
    Printf.printf "before reconvergence: delivered %d/2 (traffic lost)\n"
      !delivered;
    (match Scenario.mpls sc with
     | Some m ->
       let rounds = Mpls_vpn.reconverge m in
       Printf.printf "reconverged in %d flooding rounds\n" rounds
     | None -> ());
    send ();
    Printf.printf "after reconvergence: delivered %d/3\n" !delivered
  in
  Cmd.v
    (Cmd.info "fail"
       ~doc:"Fail a core link and show loss, reconvergence and recovery.")
    Term.(const run $ pops_arg $ seed_arg)

(* --- provision ----------------------------------------------------------- *)

let provision_cmd =
  let module P = Mvpn_provision in
  (* All numeric inputs are validated at parse time so misuse is always
     cmdliner's usage-error exit (124), never an exception trace. *)
  let int_conv ~what ~lo ?hi () =
    let parse s =
      match int_of_string_opt s with
      | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
      | Some v when v < lo || (match hi with Some h -> v > h | None -> false)
        ->
        Error
          (`Msg
             (match hi with
              | Some h -> Printf.sprintf "%s must be in [%d, %d]" what lo h
              | None -> Printf.sprintf "%s must be >= %d" what lo))
      | Some v -> Ok v
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  let customers_arg =
    Arg.(value
         & opt (int_conv ~what:"--customers" ~lo:1 ~hi:0x3fff ()) 1000
         & info ["customers"] ~docv:"N" ~doc:"Number of customer VPNs.")
  in
  let dist_arg =
    Arg.(value
         & opt (enum [("pareto", P.Portfolio.Pareto);
                      ("uniform", P.Portfolio.Uniform)])
             P.Portfolio.Pareto
         & info ["sites-dist"] ~docv:"DIST"
           ~doc:"Site-count distribution: pareto (heavy tail) or uniform.")
  in
  let churn_arg =
    Arg.(value & opt (int_conv ~what:"--churn" ~lo:0 ()) 0
         & info ["churn"] ~docv:"K"
           ~doc:"Apply K random site add/remove/SLA-change deltas \
                 incrementally and validate against a from-scratch \
                 compile of the final portfolio.")
  in
  let pops_arg =
    Arg.(value & opt (int_conv ~what:"--pops" ~lo:1 ~hi:64 ()) 12
         & info ["pops"] ~docv:"N" ~doc:"Number of PE POPs (1-64).")
  in
  let rr_arg =
    Arg.(value & flag & info ["rr"]
           ~doc:"Distribute VPNv4 routes through a route reflector at \
                 PE 0 instead of a full iBGP mesh.")
  in
  let json_arg =
    Arg.(value & flag & info ["json"]
           ~doc:"Emit the provisioning report as one JSON object — \
                 portfolio shape, compiled-state metrics, per-PE \
                 linearity table, churn verdict, canonical fingerprint. \
                 Deterministic: equal flags give identical bytes.")
  in
  let run customers dist churn pops seed rr json =
    Telemetry.Registry.reset ();
    let mode =
      if rr then Mvpn_routing.Mpbgp.Route_reflector 0
      else Mvpn_routing.Mpbgp.Full_mesh
    in
    let p = P.Portfolio.generate ~dist ~pe_count:pops ~seed ~customers () in
    let t = P.Compile.compile ~mode p in
    let churn_result =
      if churn = 0 then None
      else begin
        let ops = P.Portfolio.churn p ~seed:(seed + 1) ~ops:churn in
        let st = P.Delta.apply_all t ops in
        let oracle = P.Delta.oracle ~mode p ops in
        Some (st, P.Delta.validate t oracle)
      end
    in
    let m = P.Compile.metrics t in
    let per_pe = P.Compile.per_pe t in
    let fp = P.Compile.fingerprint t in
    if json then begin
      let b = Buffer.create 4096 in
      Printf.bprintf b
        "{\"schema\":%d,\"seed\":%d,\"pe_count\":%d,\"mode\":\"%s\",\
         \"dist\":\"%s\","
        Telemetry.Registry.schema_version seed pops
        (if rr then "route-reflector" else "full-mesh")
        (P.Portfolio.dist_name dist);
      Printf.bprintf b
        "\"portfolio\":{\"customers\":%d,\"sites\":%d,\
         \"overlay_circuits\":%d},"
        customers (P.Portfolio.site_count p) (P.Portfolio.overlay_circuits p);
      Printf.bprintf b
        "\"state\":{\"customers\":%d,\"sites\":%d,\"vrfs\":%d,\
         \"groups\":%d,\"routes\":%d,\"table_entries\":%d,\
         \"shared_entries\":%d,\"lsps\":%d,\"control_messages\":%d,\
         \"rds\":%d,\"rts\":%d,\"bands\":[%s]},"
        m.P.Compile.customers m.P.Compile.sites m.P.Compile.vrfs
        m.P.Compile.groups m.P.Compile.routes m.P.Compile.table_entries
        m.P.Compile.shared_entries m.P.Compile.lsps
        m.P.Compile.control_messages m.P.Compile.rds m.P.Compile.rts
        (String.concat ","
           (Array.to_list (Array.map string_of_int m.P.Compile.bands)));
      Printf.bprintf b "\"per_pe\":[%s],"
        (String.concat ","
           (Array.to_list
              (Array.mapi
                 (fun pe (sites, entries) ->
                    Printf.sprintf
                      "{\"pe\":%d,\"sites\":%d,\"entries\":%d}" pe sites
                      entries)
                 per_pe)));
      (match churn_result with
       | None -> Buffer.add_string b "\"churn\":null,"
       | Some (st, ok) ->
         Printf.bprintf b
           "\"churn\":{\"ops\":%d,\"touched_vrfs\":%d,\"messages\":%d,\
            \"oracle_match\":%b},"
           st.P.Delta.ops st.P.Delta.touched_vrfs st.P.Delta.messages ok);
      Printf.bprintf b "\"fingerprint\":\"%s\"}" fp;
      print_string (Buffer.contents b)
    end
    else begin
      Printf.printf
        "provisioned %d customers (%d sites, %s site distribution) on %d \
         PEs [%s]\n"
        customers m.P.Compile.sites (P.Portfolio.dist_name dist) pops
        (if rr then "route reflector" else "full mesh");
      Printf.printf
        "  peer-model state : %d VRFs, %d routes, %d shared tables, %d \
         LSPs\n"
        m.P.Compile.vrfs m.P.Compile.routes m.P.Compile.groups
        m.P.Compile.lsps;
      Printf.printf
        "  table entries    : %d logical, %d stored (%.1fx dedup)\n"
        m.P.Compile.table_entries m.P.Compile.shared_entries
        (float_of_int m.P.Compile.table_entries
         /. float_of_int (max 1 m.P.Compile.shared_entries));
      Printf.printf "  identifiers      : %d RDs, %d RTs, bands [%s]\n"
        m.P.Compile.rds m.P.Compile.rts
        (String.concat "; "
           (Array.to_list (Array.map string_of_int m.P.Compile.bands)));
      Printf.printf
        "  overlay contrast : %d point-to-point circuits avoided (C1)\n"
        (P.Portfolio.overlay_circuits p);
      Printf.printf "  control messages : %d\n" m.P.Compile.control_messages;
      (match churn_result with
       | None -> ()
       | Some (st, ok) ->
         Printf.printf
           "  churn            : %d deltas touched %d VRFs (%d \
            messages), oracle %s\n"
           st.P.Delta.ops st.P.Delta.touched_vrfs st.P.Delta.messages
           (if ok then "MATCH" else "MISMATCH"));
      Printf.printf "  fingerprint      : %s\n" fp
    end;
    match churn_result with
    | Some (_, false) -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "provision"
       ~doc:"Generate a customer portfolio, compile it to VPN state \
             (VRFs, RTs, QoS bands, LSPs), optionally churn it \
             incrementally, and report the compiled state. Exit 1 if \
             the incremental state diverges from the from-scratch \
             oracle; 124 on command-line errors, per cmdliner.")
    Term.(const run $ customers_arg $ dist_arg $ churn_arg $ pops_arg
          $ seed_arg $ rr_arg $ json_arg)

(* --- plan --------------------------------------------------------------- *)

let plan_cmd =
  let run pops demand_count bandwidth seed =
    let bb = Backbone.build ~pops () in
    let topo = Backbone.topology bb in
    let rng = Mvpn_sim.Rng.create seed in
    let pops_arr = Backbone.pops bb in
    let demands =
      List.init demand_count (fun _ ->
          let src = Mvpn_sim.Rng.int rng pops in
          let dst = (src + 1 + Mvpn_sim.Rng.int rng (pops - 1)) mod pops in
          { Planning.src = pops_arr.(src); dst = pops_arr.(dst);
            bandwidth })
    in
    let report name p =
      Printf.printf
        "%-16s routed %d/%d   max util %.1f%%   hot links %d\n" name
        (Planning.routed p) demand_count
        (Planning.max_utilization p *. 100.0)
        (List.length (Planning.hot_links p));
      match Planning.upgrades_needed p with
      | [] -> ()
      | ups ->
        Printf.printf "  upgrades needed:\n";
        List.iter
          (fun ((l : Topology.link), excess) ->
             Printf.printf "    %s -> %s: +%.1f Mb/s\n"
               (Topology.node_name topo l.Topology.src)
               (Topology.node_name topo l.Topology.dst)
               (excess /. 1e6))
          ups
    in
    Printf.printf "%d demands of %.1f Mb/s over a %d-POP backbone:\n\n"
      demand_count (bandwidth /. 1e6) pops;
    report "shortest-path" (Planning.route_spf topo demands);
    report "capacity-aware" (Planning.route_capacity_aware topo demands)
  in
  let demands_arg =
    Arg.(value & opt int 20 & info ["demands"] ~docv:"N"
           ~doc:"Number of random demands.")
  in
  let bw_arg =
    Arg.(value & opt float 8e6 & info ["bandwidth"] ~docv:"BPS"
           ~doc:"Bandwidth per demand in bits per second.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Offline capacity planning: place a demand matrix by SPF and \
             by capacity-aware routing, and show the upgrade bill.")
    Term.(const run $ pops_arg $ demands_arg $ bw_arg $ seed_arg)

let () =
  let info =
    Cmd.info "mvpn" ~version:"1.0.0"
      ~doc:"End-to-end QoS MPLS VPN simulator (ICPP 2000 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [topo_cmd; deploy_cmd; run_cmd; stats_cmd; slo_cmd; chaos_cmd;
           par_cmd; timeline_cmd; soak_cmd; fail_cmd; provision_cmd;
           plan_cmd]))
