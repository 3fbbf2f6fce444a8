(* Capacity planning and monitoring: the provider-side tooling of §5 —
   "measure, monitor, and meet different service level requirements
   across their backbones".

   First plan a demand matrix offline three ways (SPF, ECMP, capacity-
   aware), then run the worst case live with link monitoring attached.

   Run with:  dune exec examples/capacity_planning.exe *)

open Mvpn_core
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Port = Mvpn_qos.Port
module Queue_disc = Mvpn_qos.Queue_disc

let () =
  Printf.printf "== Offline planning, then live monitoring ==\n\n";
  let bb = Backbone.build ~pops:10 () in
  let topo = Backbone.topology bb in
  let pops = Backbone.pops bb in
  let rng = Rng.create 2026 in
  let demands =
    List.init 14 (fun _ ->
        let src = Rng.int rng 10 in
        let dst = (src + 1 + Rng.int rng 9) mod 10 in
        { Planning.src = pops.(src); dst = pops.(dst);
          bandwidth = 15e6 })
  in
  Printf.printf "14 demands of 15 Mb/s over a 10-POP, 45 Mb/s backbone:\n\n";
  Printf.printf "%-18s %8s %10s %10s %10s\n" "placement" "routed"
    "max util" "hot links" "upgrades";
  let report name p =
    Printf.printf "%-18s %8d %9.1f%% %10d %10d\n" name (Planning.routed p)
      (Planning.max_utilization p *. 100.0)
      (List.length (Planning.hot_links p))
      (List.length (Planning.upgrades_needed p))
  in
  report "shortest-path" (Planning.route_spf topo demands);
  report "ecmp" (Planning.route_ecmp topo demands);
  report "capacity-aware" (Planning.route_capacity_aware topo demands);

  Printf.printf
    "\nNow watch the shortest-path plan's worst link under live load:\n";
  let engine = Engine.create () in
  let net = Network.create engine topo in
  (* Static routes per demand path (the planning view made live). *)
  let spf = Planning.route_spf topo demands in
  ignore spf;
  (* Monitor every core link: each 0.5 s sample keeps the per-link
     peak utilization and peak queue backlog. *)
  let links = Array.of_list (Topology.links topo) in
  let peak_util = Array.make (Array.length links) 0.0 in
  let peak_backlog = Array.make (Array.length links) 0 in
  let stop_monitor =
    Engine.periodic engine
      ~kind:(Mvpn_sim.Profile.register_kind "example.monitor")
      ~interval:0.5 (fun () ->
          let now = Engine.now engine in
          Array.iteri
            (fun i (l : Topology.link) ->
               let port = Network.port net ~link_id:l.Topology.id in
               peak_util.(i) <-
                 Float.max peak_util.(i) (Port.utilization port ~now);
               peak_backlog.(i) <-
                 max peak_backlog.(i)
                   (Queue_disc.backlog_bytes (Port.qdisc port)))
            links)
  in
  (* Drive traffic along each demand's shortest path using per-hop
     static routes toward a unique destination prefix per demand. *)
  let registry = Traffic.registry engine in
  List.iteri
    (fun i (d : Planning.demand) ->
       let prefix =
         Mvpn_net.Prefix.make
           (Mvpn_net.Ipv4.of_octets 10 100 i 0) 24
       in
       (match
          Mvpn_routing.Spf.shortest_path topo ~src:d.Planning.src
            ~dst:d.Planning.dst
        with
        | Some path ->
          let rec install = function
            | a :: (b :: _ as rest) ->
              Mvpn_net.Fib.add (Network.fib net a) prefix
                { Mvpn_net.Fib.next_hop = b; cost = 1;
                  source = Mvpn_net.Fib.Static };
              install rest
            | [last] ->
              Mvpn_net.Fib.add (Network.fib net last) prefix
                { Mvpn_net.Fib.next_hop = Mvpn_net.Fib.local_delivery;
                  cost = 0; source = Mvpn_net.Fib.Connected };
              Network.set_sink net last (Traffic.sink registry)
            | [] -> ()
          in
          install path
        | None -> ());
       let emit =
         Traffic.sender registry ~net ~src_node:d.Planning.src
           ~flow:(Mvpn_net.Flow.make
                    (Mvpn_net.Ipv4.of_octets 10 99 i 1)
                    (Mvpn_net.Prefix.nth_host prefix 1))
           ~dscp:Mvpn_net.Dscp.best_effort
           ~collector:(Traffic.collector registry (Printf.sprintf "d%d" i))
           ()
       in
       Traffic.cbr engine ~start:0.0 ~stop:10.0
         ~rate_bps:d.Planning.bandwidth ~packet_bytes:1500 emit)
    demands;
  Engine.run ~until:10.0 engine;
  stop_monitor ();
  Printf.printf "\n  worst observed links (live, 0.5 s samples):\n";
  List.init (Array.length links) Fun.id
  |> List.stable_sort (fun a b -> Float.compare peak_util.(b) peak_util.(a))
  |> List.iteri (fun rank i ->
      if rank < 4 then
        Printf.printf "    %s -> %s  peak %.1f%%  max backlog %d B\n"
          (Topology.node_name topo links.(i).Topology.src)
          (Topology.node_name topo links.(i).Topology.dst)
          (peak_util.(i) *. 100.0) peak_backlog.(i));
  Printf.printf
    "\nThe offline plan's hot spots are exactly where the live run\n\
     queues — the planning arithmetic is the monitoring arithmetic run\n\
     forward.\n"
