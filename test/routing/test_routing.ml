open Mvpn_routing
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib
module Ipv4 = Mvpn_net.Ipv4

let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* A diamond: 0 -1- 1 -1- 3, 0 -1- 2 -2- 3 (costs on edges). *)
let diamond () =
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  let bw = 1e9 and delay = 0.001 in
  ignore (Topology.connect ~cost:1 t n.(0) n.(1) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(1) n.(3) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(0) n.(2) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:2 t n.(2) n.(3) ~bandwidth:bw ~delay);
  (t, n)

(* --- Spf -------------------------------------------------------------- *)

let test_spf_shortest () =
  let t, n = diamond () in
  (match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
   | Some path -> Alcotest.(check (list int)) "via 1" [0; 1; 3] path
   | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list int))) "self" (Some [0])
    (Spf.shortest_path t ~src:0 ~dst:0)

let test_spf_respects_down_links () =
  let t, n = diamond () in
  Topology.set_duplex_state t n.(0) n.(1) false;
  match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "detour via 2" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_unreachable () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  Alcotest.(check (option (list int))) "disconnected" None
    (Spf.shortest_path t ~src:a ~dst:b)

let test_spf_custom_metric () =
  let t, n = diamond () in
  (* Make the 0-1 hop expensive via a custom metric: path flips. *)
  let metric (l : Topology.link) =
    if (l.Topology.src = 0 && l.Topology.dst = 1)
    || (l.Topology.src = 1 && l.Topology.dst = 0)
    then 10.0
    else float_of_int l.Topology.cost
  in
  match Spf.shortest_path ~metric t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "via 2 now" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_tree_first_hops () =
  let t, n = diamond () in
  let tree = Spf.dijkstra t ~src:n.(0) in
  Alcotest.(check int) "first hop to 3" 1 tree.Spf.first_hop.(3);
  Alcotest.(check int) "first hop to 2" 2 tree.Spf.first_hop.(2);
  Alcotest.(check (float 1e-9)) "distance" 2.0 tree.Spf.dist.(3)

let test_spf_path_cost () =
  let t, _ = diamond () in
  Alcotest.(check (option (float 1e-9))) "cost" (Some 3.0)
    (Spf.path_cost t [0; 2; 3]);
  Alcotest.(check (option (float 1e-9))) "no link" None
    (Spf.path_cost t [0; 3])

let test_widest_path () =
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  (* 0->1->3 narrow (10), 0->2->3 wide (100). *)
  ignore (Topology.connect t n.(0) n.(1) ~bandwidth:10.0 ~delay:0.001);
  ignore (Topology.connect t n.(1) n.(3) ~bandwidth:10.0 ~delay:0.001);
  ignore (Topology.connect t n.(0) n.(2) ~bandwidth:100.0 ~delay:0.001);
  ignore (Topology.connect t n.(2) n.(3) ~bandwidth:100.0 ~delay:0.001);
  match Spf.widest_path t ~src:n.(0) ~dst:n.(3) with
  | Some (path, width) ->
    Alcotest.(check (list int)) "wide route" [0; 2; 3] path;
    Alcotest.(check (float 1e-9)) "bottleneck" 100.0 width
  | None -> Alcotest.fail "no path"

let test_widest_path_sees_reservations () =
  let t = Topology.create () in
  let n = Array.init 3 (fun _ -> Topology.add_node t) in
  let ab, _ = Topology.connect t n.(0) n.(1) ~bandwidth:100.0 ~delay:0.001 in
  ignore (Topology.connect t n.(1) n.(2) ~bandwidth:100.0 ~delay:0.001);
  ignore (Topology.reserve ab 80.0);
  match Spf.widest_path t ~src:n.(0) ~dst:n.(2) with
  | Some (_, width) -> Alcotest.(check (float 1e-9)) "bottleneck" 20.0 width
  | None -> Alcotest.fail "no path"

let test_k_shortest () =
  let t, n = diamond () in
  let paths = Spf.k_shortest ~k:3 t ~src:n.(0) ~dst:n.(3) in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  Alcotest.(check (list int)) "best first" [0; 1; 3] (List.hd paths);
  Alcotest.(check (list int)) "second" [0; 2; 3] (List.nth paths 1)

let k_shortest_sorted =
  QCheck.Test.make ~name:"k-shortest paths are cost-sorted and loop-free"
    ~count:50
    QCheck.(pair (int_range 4 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed + 1) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:n ~bandwidth:1e9
           ~delay:0.001
       in
       let paths = Spf.k_shortest ~k:4 t ~src:ids.(0) ~dst:ids.(n - 1) in
       let costs =
         List.map
           (fun p ->
              match Spf.path_cost t p with Some c -> c | None -> nan)
           paths
       in
       let sorted = List.sort Float.compare costs in
       costs = sorted
       && List.for_all
            (fun p ->
               List.length (List.sort_uniq Int.compare p) = List.length p)
            paths)

let spf_triangle_inequality =
  QCheck.Test.make ~name:"spf distances satisfy the triangle inequality"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 17 + 11) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:4 ~bandwidth:1e9
           ~delay:0.001
       in
       let trees = Array.map (fun src -> Spf.dijkstra t ~src) ids in
       (* d(a,c) <= d(a,b) + d(b,c) for all triples (indices into ids). *)
       let d i j = trees.(i).Spf.dist.(ids.(j)) in
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           for k = 0 to n - 1 do
             if Float.is_finite (d i j) && Float.is_finite (d j k)
             && d i k > d i j +. d j k +. 1e-9
             then ok := false
           done
         done
       done;
       !ok)

let spf_symmetric_on_duplex =
  QCheck.Test.make ~name:"spf distance is symmetric on duplex links"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 23 + 7) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:3 ~bandwidth:1e9
           ~delay:0.001
       in
       Array.for_all
         (fun a ->
            let ta = Spf.dijkstra t ~src:a in
            Array.for_all
              (fun b ->
                 let tb = Spf.dijkstra t ~src:b in
                 Float.abs (ta.Spf.dist.(b) -. tb.Spf.dist.(a)) < 1e-9)
              ids)
         ids)

(* --- Ospf ------------------------------------------------------------- *)

let test_ospf_domain_restriction () =
  (* Two islands joined by a link; routers restricted to their island
     must not learn the other island's prefixes even though the link is
     up. *)
  let t = Topology.create () in
  let left = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  let right = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  ignore (Topology.connect t left.(2) right.(0) ~bandwidth:1e9 ~delay:0.001);
  let members v = Array.exists (fun x -> x = v) left in
  let o = Ospf.create ~members t in
  Ospf.attach_prefix o left.(0) (pfx "10.1.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "intra-domain route" (Some left.(1))
    (Fib.next_hop (Ospf.fib o left.(2)) (ip "10.1.0.1"));
  (* The right island is outside the domain: its routers got nothing,
     and left-side LSAs never flooded there. *)
  Alcotest.(check int) "outside empty" 0 (Fib.size (Ospf.fib o right.(0)))

let test_ospf_convergence () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "some rounds" true (rounds > 0);
  Alcotest.(check bool) "converged" true (Ospf.converged o);
  Alcotest.(check (option int)) "fib route at 0" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  (* Idempotent: nothing changed, zero extra rounds. *)
  Alcotest.(check int) "steady state" 0 (Ospf.converge o)

let test_ospf_local_delivery () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(2) (pfx "10.2.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "local" (Some Fib.local_delivery)
    (Fib.next_hop (Ospf.fib o n.(2)) (ip "10.2.0.1"))

let test_ospf_reconvergence_after_failure () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "before failure via 1" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  Topology.set_duplex_state t n.(1) n.(3) false;
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "reflooding happened" true (rounds > 0);
  Alcotest.(check (option int)) "rerouted via 2" (Some 2)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"))

let test_ospf_partition () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  let c = Topology.add_node t and d = Topology.add_node t in
  ignore (Topology.connect t c d ~bandwidth:1e9 ~delay:0.001);
  let o = Ospf.create t in
  Ospf.attach_prefix o d (pfx "10.4.0.0/16");
  ignore (Ospf.converge o);
  (* a cannot know d's prefix: different partition. *)
  Alcotest.(check (option int)) "no route across partition" None
    (Fib.next_hop (Ospf.fib o a) (ip "10.4.0.1"));
  Alcotest.(check (option int)) "partition-local route" (Some d)
    (Fib.next_hop (Ospf.fib o c) (ip "10.4.0.1"))

let test_ospf_distance () =
  let t, n = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check (float 1e-9)) "distance 0->3" 2.0
    (Ospf.distance o ~src:n.(0) ~dst:n.(3));
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Ospf.next_hop_to_router o ~src:n.(0) ~dst:n.(3))

let test_ospf_messages_counted () =
  let t, _ = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check bool) "lsa copies flowed" true (Ospf.messages_sent o > 0)

let ospf_agrees_with_spf =
  QCheck.Test.make ~name:"ospf fib next hops agree with global spf"
    ~count:30
    QCheck.(pair (int_range 3 10) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 7 + 3) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:2 ~bandwidth:1e9
           ~delay:0.001
       in
       let o = Ospf.create t in
       let prefix_of i =
         Prefix.make (Ipv4.of_octets 10 i 0 0) 16
       in
       Array.iteri (fun i id -> Ospf.attach_prefix o id (prefix_of i)) ids;
       ignore (Ospf.converge o);
       (* For every src/dst pair, the OSPF next hop must lie on some
          shortest path: dist(src,dst) = cost(src,nh) + dist(nh,dst). *)
       Array.for_all
         (fun src ->
            Array.for_all
              (fun dst ->
                 src = dst
                 ||
                 let addr = Prefix.nth_host (prefix_of dst) 1 in
                 let _ = addr in
                 let tree = Spf.dijkstra t ~src in
                 match
                   Fib.next_hop (Ospf.fib o src)
                     (Prefix.nth_host
                        (prefix_of
                           (let rec idx i =
                              if ids.(i) = dst then i else idx (i + 1)
                            in
                            idx 0))
                        1)
                 with
                 | None -> not (Float.is_finite tree.Spf.dist.(dst))
                 | Some nh when nh = Fib.local_delivery -> src = dst
                 | Some nh ->
                   let nh_tree = Spf.dijkstra t ~src:nh in
                   (match Topology.find_link t src nh with
                    | None -> false
                    | Some l ->
                      Float.abs
                        (tree.Spf.dist.(dst)
                         -. (float_of_int l.Topology.cost
                             +. nh_tree.Spf.dist.(dst)))
                      < 1e-9))
              ids)
         ids)

(* --- Bgp -------------------------------------------------------------- *)

let test_bgp_ebgp_propagation () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  (match Bgp.lookup b s2 (ip "203.0.113.7") with
   | Some r ->
     Alcotest.(check (list int)) "as path" [200; 100] r.Bgp.as_path
   | None -> Alcotest.fail "route did not propagate");
  Alcotest.(check bool) "messages counted" true (Bgp.messages_sent b > 0)

let test_bgp_loop_prevention () =
  let b = Bgp.create () in
  (* Triangle of three ASes; the route must not loop forever. *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s0;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  let rounds = Bgp.run b in
  Alcotest.(check bool) "terminates quickly" true (rounds <= 4);
  match Bgp.lookup b s1 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "direct path wins" [100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_ibgp_no_transit () =
  let b = Bgp.create () in
  (* AS 100: s0; AS 200: s1 - s2 - s3 in a line of iBGP sessions.
     s1 learns from eBGP and must pass to its iBGP peers... but s2 must
     NOT re-advertise to s3 (full-mesh rule). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:200 in
  let s3 = Bgp.add_speaker b ~asn:200 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s3;
  Bgp.originate b s0 (pfx "198.51.100.0/24");
  ignore (Bgp.run b);
  Alcotest.(check bool) "s2 has the route" true
    (Bgp.lookup b s2 (ip "198.51.100.1") <> None);
  Alcotest.(check bool) "s3 must not (needs full mesh)" true
    (Bgp.lookup b s3 (ip "198.51.100.1") = None)

let test_bgp_decision_shortest_as_path () =
  let b = Bgp.create () in
  (* Two paths from s3 to s0's prefix: via s1 (1 AS) and via s2 (2 ASes
     chained). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "short path chosen" [200; 100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_local_pref_overrides () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  (* Prefer the long way via policy. *)
  Bgp.set_local_pref b s3 ~neighbor:s2b 200;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "policy wins over length" [400; 300; 100]
      r.Bgp.as_path
  | None -> Alcotest.fail "no route"

(* --- Mpbgp ------------------------------------------------------------ *)

let rd n : Mpbgp.rd = { Mpbgp.rd_asn = 65000; rd_assigned = n }
let rt n : Mpbgp.rt = { Mpbgp.rt_asn = 65000; rt_value = n }

let vpn_route ?(site = 0) ~rd:r ~pe ~label ~rts prefix =
  { Mpbgp.rd = r; prefix = pfx prefix; next_hop_pe = pe; vpn_label = label;
    export_rts = rts; site }

let test_mpbgp_distribution () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let at2 = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "pe2 imports" 1 (List.length at2);
  let r = List.hd at2 in
  Alcotest.(check int) "label carried" 100 r.Mpbgp.vpn_label;
  Alcotest.(check int) "next hop pe" 1 r.Mpbgp.next_hop_pe

let test_mpbgp_rt_filtering () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let green = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "only vpn 1 routes" 1 (List.length green);
  Alcotest.(check int) "right label" 100 (List.hd green).Mpbgp.vpn_label

let test_mpbgp_overlapping_prefixes () =
  (* The same 10.0.0.0/16 in two VPNs is kept distinct by the RD. *)
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "both survive" 2 (Mpbgp.total_routes m);
  Alcotest.(check int) "pe2 sees both" 2
    (List.length
       (List.filter
          (fun r -> r.Mpbgp.next_hop_pe = 1)
          (Mpbgp.routes_at m 2)))

let test_mpbgp_withdraw () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~site:7 ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1]
       "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "withdrawn" 1 (Mpbgp.withdraw_site m ~pe:1 ~site:7);
  ignore (Mpbgp.run m);
  Alcotest.(check int) "gone at pe2" 0
    (List.length (Mpbgp.import m ~pe:2 ~import_rts:[rt 1]))

let test_mpbgp_withdraw_by_id () =
  let route = vpn_route ~site:7 ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] in
  (* Announced and withdrawn between runs: nobody ever saw it. *)
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  let id = Mpbgp.export m (route "10.0.0.0/16") in
  Alcotest.(check bool) "withdrawn" true (Mpbgp.withdraw m id);
  Alcotest.(check int) "no messages" 0 (Mpbgp.run m);
  Alcotest.(check bool) "slot freed" true (Mpbgp.find_route m id = None);
  Alcotest.(check int) "no routes" 0 (Mpbgp.total_routes m);
  (* After a run: one retraction per PE that received it. *)
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  let id = Mpbgp.export m (route "10.0.0.0/16") in
  let keep = Mpbgp.export m (route "10.1.0.0/16") in
  ignore (Mpbgp.run m);
  Alcotest.(check bool) "withdrawn" true (Mpbgp.withdraw m id);
  Alcotest.(check bool) "second withdraw" false (Mpbgp.withdraw m id);
  Alcotest.(check bool) "unknown id" false (Mpbgp.withdraw m 999);
  Alcotest.(check int) "one retraction per receiving PE" 2 (Mpbgp.run m);
  List.iter
    (fun pe ->
       Alcotest.(check (list int)) "only the survivor imported" [keep]
         (Mpbgp.import_ids m ~pe ~import_rts:[rt 1]))
    [2; 3];
  Alcotest.(check bool) "gone after run" false (Mpbgp.withdraw m id);
  (* withdraw_site folds over withdraw and counts. *)
  ignore (Mpbgp.export m (route "10.2.0.0/16"));
  ignore (Mpbgp.run m);
  Alcotest.(check int) "withdraw_site count" 2
    (Mpbgp.withdraw_site m ~pe:1 ~site:7);
  ignore (Mpbgp.run m);
  Alcotest.(check int) "imports empty" 0
    (List.length (Mpbgp.import m ~pe:2 ~import_rts:[rt 1]))

let test_mpbgp_session_counts () =
  let mesh = Mpbgp.create () in
  List.iter (Mpbgp.add_pe mesh) [1; 2; 3; 4; 5];
  Alcotest.(check int) "full mesh" 10 (Mpbgp.session_count mesh);
  let rr = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe rr) [1; 2; 3; 4; 5];
  Alcotest.(check int) "route reflector" 4 (Mpbgp.session_count rr)

let test_mpbgp_rr_delivers_everywhere () =
  let m = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:2 ~label:300 ~rts:[rt 1] "10.7.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "pe3 got it via rr" 1
    (List.length (Mpbgp.import m ~pe:3 ~import_rts:[rt 1]));
  Alcotest.(check int) "rr itself has it" 1
    (List.length (Mpbgp.import m ~pe:1 ~import_rts:[rt 1]))

let test_mpbgp_run_idempotent () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:1 ~rts:[rt 1] "10.0.0.0/16");
  let first = Mpbgp.run m in
  Alcotest.(check bool) "work on first run" true (first > 0);
  Alcotest.(check int) "second run is a no-op" 0 (Mpbgp.run m)

(* Reference model for the MP-BGP tables: a hashtable Adj-RIB-In per
   PE and a New/Update/Retract journal, delivering through the session
   mode's own fan-out (full mesh, or client -> RR -> other clients). *)
module Mpbgp_model = struct
  type j = New | Update | Retract

  type t = {
    rr : int option;
    mutable pes : int list;
    rib : (int, (int, unit) Hashtbl.t) Hashtbl.t;
    store : (int, Mpbgp.vpnv4_route) Hashtbl.t;
    keys : (Mpbgp.rd * Prefix.t * int, int) Hashtbl.t;
    pending : (int, j) Hashtbl.t;
    mutable next : int;
    mutable fresh : int list;
    mutable sent : int;
  }

  let create rr =
    { rr; pes = []; rib = Hashtbl.create 8; store = Hashtbl.create 64;
      keys = Hashtbl.create 64; pending = Hashtbl.create 64; next = 0;
      fresh = []; sent = 0 }

  let key (r : Mpbgp.vpnv4_route) =
    (r.Mpbgp.rd, r.Mpbgp.prefix, r.Mpbgp.next_hop_pe)

  let add_pe t pe =
    t.pes <- t.pes @ [pe];
    Hashtbl.replace t.rib pe (Hashtbl.create 8);
    t.fresh <- pe :: t.fresh

  let export t (r : Mpbgp.vpnv4_route) =
    match Hashtbl.find_opt t.keys (key r) with
    | Some id ->
      let o = Hashtbl.find t.store id in
      if (o.Mpbgp.vpn_label <> r.Mpbgp.vpn_label
          || o.Mpbgp.export_rts <> r.Mpbgp.export_rts)
      && not (Hashtbl.mem t.pending id)
      then Hashtbl.replace t.pending id Update;
      Hashtbl.replace t.store id r;
      id
    | None ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.replace t.store id r;
      Hashtbl.replace t.keys (key r) id;
      Hashtbl.replace t.pending id New;
      id

  let withdraw t id =
    match Hashtbl.find_opt t.store id with
    | Some r when Hashtbl.find_opt t.keys (key r) = Some id ->
      Hashtbl.remove t.keys (key r);
      if Hashtbl.find_opt t.pending id = Some New then begin
        Hashtbl.remove t.pending id;
        Hashtbl.remove t.store id
      end
      else Hashtbl.replace t.pending id Retract;
      true
    | _ -> false

  let withdraw_site t ~pe ~site =
    Hashtbl.fold
      (fun (_, _, p) id acc ->
         if p = pe && (Hashtbl.find t.store id).Mpbgp.site = site then id :: acc
         else acc)
      t.keys []
    |> List.filter (withdraw t)
    |> List.length

  let targets t src f =
    match t.rr with
    | None -> List.iter (fun d -> if d <> src then f d) t.pes
    | Some rr when src = rr -> List.iter (fun d -> if d <> rr then f d) t.pes
    | Some rr ->
      f rr;
      List.iter (fun d -> if d <> src && d <> rr then f d) t.pes

  let run t =
    let n0 = t.sent in
    let send () = t.sent <- t.sent + 1 in
    let deliver ~changed d id =
      let rib = Hashtbl.find t.rib d in
      if not (Hashtbl.mem rib id) then begin
        Hashtbl.replace rib id ();
        send ()
      end
      else if changed then send ()
    in
    List.iter
      (fun pe ->
         Hashtbl.iter
           (fun (_, _, src) id ->
              if src <> pe && not (Hashtbl.mem t.pending id) then
                targets t src (fun d ->
                    if d = pe then deliver ~changed:false d id))
           t.keys)
      t.fresh;
    t.fresh <- [];
    Hashtbl.iter
      (fun id j ->
         match j with
         | Retract ->
           Hashtbl.iter
             (fun _ rib ->
                if Hashtbl.mem rib id then begin
                  Hashtbl.remove rib id;
                  send ()
                end)
             t.rib;
           Hashtbl.remove t.store id
         | New | Update ->
           targets t (Hashtbl.find t.store id).Mpbgp.next_hop_pe (fun d ->
               deliver ~changed:(j = Update) d id))
      t.pending;
    Hashtbl.reset t.pending;
    t.sent - n0

  let rib_ids t pe =
    List.sort Int.compare
      (Hashtbl.fold (fun id () acc -> id :: acc) (Hashtbl.find t.rib pe) [])

  let import_ids t pe rts =
    List.filter
      (fun id ->
         List.exists
           (fun x -> List.exists (Mpbgp.rt_equal x) rts)
           (Hashtbl.find t.store id).Mpbgp.export_rts)
      (rib_ids t pe)

  let routes_at t pe =
    Hashtbl.fold (fun (_, _, p) id acc -> if p = pe then id :: acc else acc)
      t.keys (rib_ids t pe)
    |> List.sort Int.compare
    |> List.map (Hashtbl.find t.store)
end

type bgp_op =
  | Add_pe
  | Export of { pe : int; rd : int; prefix : int; label : int; rts : int;
                site : int }
  | Withdraw of int  (* index into the ids exported so far *)
  | Withdraw_site of { pe : int; site : int }
  | Run

let show_bgp_op = function
  | Add_pe -> "add_pe"
  | Export e ->
    Printf.sprintf "export(pe%d rd%d p%d l%d rt%d s%d)" e.pe e.rd e.prefix
      e.label e.rts e.site
  | Withdraw k -> Printf.sprintf "withdraw#%d" k
  | Withdraw_site { pe; site } ->
    Printf.sprintf "withdraw_site(pe%d s%d)" pe site
  | Run -> "run"

let bgp_ops =
  let open QCheck.Gen in
  (* Tiny key, label and RT domains, so re-exports with identical and
     with changed content are common. *)
  let export =
    map2
      (fun (pe, rd, prefix) (label, rts, site) ->
         Export { pe; rd; prefix; label; rts; site })
      (triple (int_bound 7) (int_bound 1) (int_bound 15))
      (triple (int_bound 1) (int_bound 2) (int_bound 1))
  in
  let op =
    frequency
      [ (1, return Add_pe); (6, export);
        (3, map (fun k -> Withdraw k) (int_bound 200));
        (1, map2 (fun pe site -> Withdraw_site { pe; site }) (int_bound 7)
             (int_bound 1));
        (2, return Run) ]
  in
  (* 70 distinct keys, then a run and a PE added late: the bitset and
     tag arrays grow past 64 ids, and after routes already exist. *)
  let warm =
    map
      (List.mapi (fun i (pe, label) ->
           Export { pe; rd = 0; prefix = 16 + i; label; rts = 0; site = 0 }))
      (list_repeat 70 (pair (int_bound 7) (int_bound 1)))
  in
  map3
    (fun pre warm post -> pre @ warm @ (Run :: Add_pe :: post) @ [ Run ])
    (list_size (int_bound 30) op) warm
    (list_size (int_range 40 150) op)

let rt_sets = [ [ rt 1 ]; [ rt 2 ]; [ rt 3 ]; [ rt 1; rt 2 ] ]

let rts_of = function 0 -> [ rt 1 ] | 1 -> [ rt 2 ] | _ -> [ rt 1; rt 3 ]

(* Replays [ops] on Mpbgp and the model side by side: every return value
   must agree, and after every run so must the message count, each PE's
   Adj-RIB-In views, the route total and find_route liveness. *)
let mpbgp_agrees mode ops =
  let m = Mpbgp.create ~mode () in
  let model =
    Mpbgp_model.create
      (match mode with
       | Mpbgp.Route_reflector rr -> Some rr
       | Mpbgp.Full_mesh -> None)
  in
  let pes = ref 0 and issued = ref [] in
  let add_pe () =
    if !pes < 8 then begin
      Mpbgp.add_pe m !pes;
      Mpbgp_model.add_pe model !pes;
      incr pes
    end
  in
  for _ = 1 to 3 do add_pe () done;
  let views () =
    Mpbgp.total_routes m = Hashtbl.length model.Mpbgp_model.keys
    && Mpbgp.messages_sent m = model.Mpbgp_model.sent
    && List.for_all
         (fun pe ->
            Mpbgp.routes_at m pe = Mpbgp_model.routes_at model pe
            && List.for_all
                 (fun rts ->
                    let ids = Mpbgp_model.import_ids model pe rts in
                    Mpbgp.import_ids m ~pe ~import_rts:rts = ids
                    && Mpbgp.import m ~pe ~import_rts:rts
                       = List.map (Hashtbl.find model.Mpbgp_model.store) ids)
                 rt_sets)
         (List.init !pes Fun.id)
    && List.for_all
         (fun id ->
            Option.is_some (Mpbgp.find_route m id)
            = Hashtbl.mem model.Mpbgp_model.store id)
         (List.init (Mpbgp.store_size m + 2) Fun.id)
  in
  let step = function
    | Add_pe ->
      add_pe ();
      true
    | Export e ->
      let r =
        vpn_route ~site:e.site ~rd:(rd e.rd) ~pe:(e.pe mod !pes)
          ~label:(100 + e.label) ~rts:(rts_of e.rts)
          (Printf.sprintf "10.0.%d.0/24" e.prefix)
      in
      let id = Mpbgp.export m r in
      issued := id :: !issued;
      id = Mpbgp_model.export model r
    | Withdraw k ->
      let id =
        match !issued with
        | [] -> k
        | l -> List.nth l (k mod List.length l)
      in
      Mpbgp.withdraw m id = Mpbgp_model.withdraw model id
    | Withdraw_site { pe; site } ->
      let pe = pe mod !pes in
      Mpbgp.withdraw_site m ~pe ~site
      = Mpbgp_model.withdraw_site model ~pe ~site
    | Run -> Mpbgp.run m = Mpbgp_model.run model && views ()
  in
  List.for_all step ops && Mpbgp.store_size m > 64

let mpbgp_matches_model =
  QCheck.Test.make ~name:"dense-id tables match the hashtable model"
    ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_bgp_op ops))
       bgp_ops)
    (fun ops ->
       mpbgp_agrees Mpbgp.Full_mesh ops
       && mpbgp_agrees (Mpbgp.Route_reflector 0) ops)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [ ("spf",
       [ Alcotest.test_case "shortest" `Quick test_spf_shortest;
         Alcotest.test_case "down links" `Quick
           test_spf_respects_down_links;
         Alcotest.test_case "unreachable" `Quick test_spf_unreachable;
         Alcotest.test_case "custom metric" `Quick test_spf_custom_metric;
         Alcotest.test_case "tree first hops" `Quick
           test_spf_tree_first_hops;
         Alcotest.test_case "path cost" `Quick test_spf_path_cost;
         Alcotest.test_case "widest path" `Quick test_widest_path;
         Alcotest.test_case "widest sees reservations" `Quick
           test_widest_path_sees_reservations;
         Alcotest.test_case "k shortest" `Quick test_k_shortest;
         qt k_shortest_sorted;
         qt spf_triangle_inequality;
         qt spf_symmetric_on_duplex ]);
      ("ospf",
       [ Alcotest.test_case "convergence" `Quick test_ospf_convergence;
         Alcotest.test_case "domain restriction" `Quick
           test_ospf_domain_restriction;
         Alcotest.test_case "local delivery" `Quick
           test_ospf_local_delivery;
         Alcotest.test_case "reconvergence" `Quick
           test_ospf_reconvergence_after_failure;
         Alcotest.test_case "partition" `Quick test_ospf_partition;
         Alcotest.test_case "distance" `Quick test_ospf_distance;
         Alcotest.test_case "messages counted" `Quick
           test_ospf_messages_counted;
         qt ospf_agrees_with_spf ]);
      ("bgp",
       [ Alcotest.test_case "ebgp propagation" `Quick
           test_bgp_ebgp_propagation;
         Alcotest.test_case "loop prevention" `Quick
           test_bgp_loop_prevention;
         Alcotest.test_case "ibgp no transit" `Quick
           test_bgp_ibgp_no_transit;
         Alcotest.test_case "shortest as path" `Quick
           test_bgp_decision_shortest_as_path;
         Alcotest.test_case "local pref" `Quick
           test_bgp_local_pref_overrides ]);
      ("mpbgp",
       [ Alcotest.test_case "distribution" `Quick test_mpbgp_distribution;
         Alcotest.test_case "rt filtering" `Quick test_mpbgp_rt_filtering;
         Alcotest.test_case "overlapping prefixes" `Quick
           test_mpbgp_overlapping_prefixes;
         Alcotest.test_case "withdraw" `Quick test_mpbgp_withdraw;
         Alcotest.test_case "withdraw by id" `Quick test_mpbgp_withdraw_by_id;
         Alcotest.test_case "session counts" `Quick
           test_mpbgp_session_counts;
         Alcotest.test_case "route reflector" `Quick
           test_mpbgp_rr_delivers_everywhere;
         Alcotest.test_case "run idempotent" `Quick
           test_mpbgp_run_idempotent;
         qt mpbgp_matches_model ]) ]
