open Mvpn_par
module Topology = Mvpn_sim.Topology
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow
module Ipv4 = Mvpn_net.Ipv4
module T = Mvpn_telemetry

(* --- Partition --------------------------------------------------------- *)

let ring_topo n =
  let topo = Topology.create () in
  ignore (Topology.ring topo n ~bandwidth:1e9 ~delay:1e-3);
  topo

let test_partition_k1_identity () =
  let topo = ring_topo 9 in
  let p = Partition.compute topo ~shards:1 in
  Alcotest.(check int) "one shard" 1 p.Partition.shards;
  Array.iter (fun o -> Alcotest.(check int) "owner 0" 0 o) p.Partition.owner;
  Alcotest.(check int) "no cut links" 0 (List.length p.Partition.cut)

let test_partition_clamp () =
  let topo = ring_topo 4 in
  let p = Partition.compute topo ~shards:100 in
  Alcotest.(check bool) "clamped to node count" true
    (p.Partition.shards <= 4);
  Array.iter
    (fun s -> Alcotest.(check bool) "no empty shard" true (s > 0))
    (Partition.sizes p);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Partition.compute: shards < 1") (fun () ->
      ignore (Partition.compute topo ~shards:0))

let test_partition_isolated_nodes () =
  let topo = Topology.create () in
  for _ = 0 to 5 do
    ignore (Topology.add_node topo)
  done;
  ignore (Topology.connect topo 0 1 ~bandwidth:1e9 ~delay:1e-3);
  ignore (Topology.connect topo 1 2 ~bandwidth:1e9 ~delay:1e-3);
  (* nodes 3, 4, 5 have no links at all *)
  let p = Partition.compute topo ~shards:3 in
  Array.iteri
    (fun node o ->
       if o < 0 || o >= p.Partition.shards then
         Alcotest.failf "node %d unowned (owner %d)" node o)
    p.Partition.owner;
  Alcotest.(check int) "sizes cover every node" 6
    (Array.fold_left ( + ) 0 (Partition.sizes p))

let test_partition_cut_is_exact () =
  let topo = Topology.create () in
  ignore
    (Topology.ring_with_chords topo 16
       ~chords:[ (0, 8); (2, 10); (4, 12); (6, 14); (1, 9) ]
       ~bandwidth:1e9 ~delay:1e-3);
  let p = Partition.compute topo ~shards:4 in
  let owner = p.Partition.owner in
  let cut_ids =
    List.map (fun (l : Topology.link) -> l.Topology.id) p.Partition.cut
  in
  Alcotest.(check int) "each cut link listed once"
    (List.length cut_ids)
    (List.length (List.sort_uniq Int.compare cut_ids));
  List.iter
    (fun (l : Topology.link) ->
       Alcotest.(check bool) "cut endpoints in different shards" true
         (owner.(l.Topology.src) <> owner.(l.Topology.dst)))
    p.Partition.cut;
  (* ... and every cross-shard link of the topology is in the cut. *)
  List.iter
    (fun (l : Topology.link) ->
       if owner.(l.Topology.src) <> owner.(l.Topology.dst) then
         Alcotest.(check bool)
           (Printf.sprintf "link %d in cut" l.Topology.id)
           true
           (List.mem l.Topology.id cut_ids))
    (Topology.links topo)

let partition_covers =
  QCheck.Test.make ~name:"partition always covers every node" ~count:60
    QCheck.(triple (int_range 2 24) (int_bound 12) (int_range 1 9))
    (fun (n, extra, shards) ->
      let topo = Topology.create () in
      ignore
        (Topology.random_connected topo
           (Mvpn_sim.Rng.create (n + extra))
           ~n ~extra_links:extra ~bandwidth:1e9 ~delay:1e-3);
      let p = Partition.compute topo ~shards in
      Array.for_all (fun o -> o >= 0 && o < p.Partition.shards)
        p.Partition.owner
      && Array.fold_left ( + ) 0 (Partition.sizes p) = n
      && Array.for_all (fun s -> s > 0) (Partition.sizes p)
      && List.for_all
           (fun (l : Topology.link) ->
             p.Partition.owner.(l.Topology.src)
             <> p.Partition.owner.(l.Topology.dst))
           p.Partition.cut)

(* --- Exchange ----------------------------------------------------------- *)

let dummy_packet =
  let flow =
    Flow.make (Ipv4.of_octets 10 0 0 1) (Ipv4.of_octets 10 0 0 2)
  in
  fun () -> Packet.make ~now:0.0 flow

let test_exchange_channels () =
  let ex = Exchange.create ~shards:3 () in
  Alcotest.(check (list (pair int int))) "starts empty" []
    (Exchange.channels ex);
  Exchange.open_channel ex ~src:2 ~dst:0;
  Exchange.open_channel ex ~src:0 ~dst:1;
  Exchange.open_channel ex ~src:0 ~dst:1;
  Alcotest.(check (list (pair int int))) "sorted, idempotent"
    [ (0, 1); (2, 0) ]
    (Exchange.channels ex);
  Alcotest.check_raises "send needs an open channel"
    (Invalid_argument "Exchange.send: no channel 1 -> 2") (fun () ->
      Exchange.send ex ~src:1 ~dst:2 ~arrival:1.0 ~sent:0.5 ~src_node:0
        ~dst_node:1 (dummy_packet ()))

let test_exchange_drain_order () =
  let ex = Exchange.create ~shards:3 () in
  Exchange.open_channel ex ~src:0 ~dst:2;
  Exchange.open_channel ex ~src:1 ~dst:2;
  let send src arrival =
    Exchange.send ex ~src ~dst:2 ~arrival ~sent:(arrival -. 0.1)
      ~src_node:src ~dst_node:9 (dummy_packet ())
  in
  send 1 5.0;
  send 0 3.0;
  send 0 1.0;
  send 1 2.0;
  let got = Exchange.drain ex ~dst:2 in
  Alcotest.(check (list (pair int int)))
    "groups by ascending source, send order within each"
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.map
       (fun (m : Exchange.msg) -> (m.Exchange.src_shard, m.Exchange.seq))
       got);
  Alcotest.(check int) "drain empties" 0
    (List.length (Exchange.drain ex ~dst:2))

let test_exchange_overflow_soft () =
  let ex = Exchange.create ~capacity:2 ~shards:2 () in
  Exchange.open_channel ex ~src:0 ~dst:1;
  for i = 1 to 5 do
    Exchange.send ex ~src:0 ~dst:1 ~arrival:(float_of_int i) ~sent:0.0
      ~src_node:0 ~dst_node:1 (dummy_packet ())
  done;
  Alcotest.(check int) "overflows counted" 3 (Exchange.overflows ex);
  (* soft bound: nothing is dropped or blocked *)
  Alcotest.(check int) "all messages kept" 5
    (List.length (Exchange.drain ex ~dst:1))

(* --- Clock -------------------------------------------------------------- *)

let test_clock_single_shard () =
  let c = Clock.create ~shards:1 ~horizon:10.0 ~inbound:[| [] |] in
  Alcotest.(check bool) "lookahead" true (Clock.lookahead c);
  Alcotest.(check (float 0.0)) "no inbound -> horizon" 10.0
    (Clock.next_bound c ~shard:0 ~completed:0.0)

let test_clock_zero_delay_disables_lookahead () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0 ~inbound:[| [ (1, 0.0) ]; [] |]
  in
  Alcotest.(check bool) "barrier mode" false (Clock.lookahead c)

let test_clock_lookahead_windows () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0
      ~inbound:[| []; [ (0, 0.5) ] |]
  in
  (* shard 1's first window: neighbor published nothing (0.0), so the
     bound is 0 + 0.5. *)
  Alcotest.(check (float 1e-9)) "first window" 0.5
    (Clock.next_bound c ~shard:1 ~completed:0.0);
  (* next_bound blocks until the neighbor publishes past the completed
     point; publish from another domain and watch it wake. *)
  let waiter =
    Domain.spawn (fun () -> Clock.next_bound c ~shard:1 ~completed:0.5)
  in
  Clock.publish c ~shard:0 2.0;
  Alcotest.(check (float 1e-9)) "window follows publication" 2.5
    (Domain.join waiter);
  (* publications are monotone: an older value cannot move the bound
     backwards. *)
  Clock.publish c ~shard:0 1.0;
  Alcotest.(check (float 1e-9)) "monotone" 2.5
    (Clock.next_bound c ~shard:1 ~completed:0.5);
  Clock.publish c ~shard:0 100.0;
  Alcotest.(check (float 1e-9)) "clamped to horizon" 10.0
    (Clock.next_bound c ~shard:1 ~completed:2.5)

let test_clock_barrier_and_min_next () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0
      ~inbound:[| [ (1, 0.0) ]; [ (0, 0.0) ] |]
  in
  let flag = Atomic.make 0 in
  let worker () =
    Atomic.incr flag;
    Clock.barrier c;
    let seen = Atomic.get flag in
    (* both increments happened before anyone left the barrier *)
    let m1 = Clock.min_next c ~shard:1 3.0 in
    let m2 = Clock.min_next c ~shard:1 7.0 in
    (seen, m1, m2)
  in
  let d = Domain.spawn worker in
  Atomic.incr flag;
  Clock.barrier c;
  let m1 = Clock.min_next c ~shard:0 5.0 in
  let m2 = Clock.min_next c ~shard:0 4.0 in
  let seen, w1, w2 = Domain.join d in
  Alcotest.(check int) "barrier separates" 2 seen;
  Alcotest.(check (float 0.0)) "min of both (round 1)" 3.0 m1;
  Alcotest.(check (float 0.0)) "agreed" 3.0 w1;
  Alcotest.(check (float 0.0)) "min of both (round 2)" 4.0 m2;
  Alcotest.(check (float 0.0)) "agreed (round 2)" 4.0 w2

(* --- Runner: the headline invariant ------------------------------------- *)

let totals (o : Runner.outcome) =
  ( o.Runner.delivered, o.Runner.dropped, o.Runner.events,
    o.Runner.scheduled, o.Runner.classes, T.Slo.in_budget o.Runner.slo,
    T.Slo.violation_count o.Runner.slo, T.Json.to_string (T.Slo.to_json o.Runner.slo) )

let with_telemetry f =
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

let small_cfg ~pops ~vpns ~sites ~seed =
  { Runner.default_config with
    Runner.pops; vpns; sites_per_vpn = sites; load = 0.7; duration = 2.0;
    seed }

let runner_matches_sequential =
  QCheck.Test.make ~name:"parallel totals equal sequential for K=1,2,4"
    ~count:5
    QCheck.(
      quad (int_range 4 8) (int_range 1 2) (int_range 2 3) (int_range 1 1000))
    (fun (pops, vpns, sites, seed) ->
      let cfg = small_cfg ~pops ~vpns ~sites ~seed in
      with_telemetry (fun () ->
          let base = totals (Runner.run_sequential cfg) in
          List.for_all
            (fun k ->
              totals (Runner.run_parallel { cfg with Runner.shards = k })
              = base)
            [ 1; 2; 4 ]))

let test_runner_k8_deterministic () =
  let cfg =
    { (small_cfg ~pops:10 ~vpns:2 ~sites:3 ~seed:77) with Runner.shards = 8 }
  in
  with_telemetry (fun () ->
      let a = Runner.run_parallel cfg in
      let b = Runner.run_parallel cfg in
      Alcotest.(check bool) "same totals" true (totals a = totals b);
      Alcotest.(check int) "same exchanges" a.Runner.exchanged
        b.Runner.exchanged;
      Alcotest.(check int) "same leftovers" a.Runner.leftover
        b.Runner.leftover;
      Alcotest.(check bool) "same partition" true
        (a.Runner.sizes = b.Runner.sizes
        && a.Runner.cut_links = b.Runner.cut_links);
      Alcotest.(check bool) "matches sequential" true
        (totals (Runner.run_sequential cfg) = totals a))

let test_runner_barrier_mode_parity () =
  (* Zero core propagation delay kills every cut link's lookahead; the
     runner must fall back to epoch barriers and still land on the
     sequential totals. *)
  let cfg =
    { (small_cfg ~pops:8 ~vpns:2 ~sites:2 ~seed:5) with
      Runner.shards = 4; core_delay = Some 0.0 }
  in
  with_telemetry (fun () ->
      let par = Runner.run_parallel cfg in
      Alcotest.(check bool) "barrier fallback engaged" false
        par.Runner.lookahead;
      Alcotest.(check bool) "totals still match" true
        (totals (Runner.run_sequential cfg) = totals par))

(* A shard that raises must not leave its peers blocked on the clock:
   the second replica armed (an atomic count of [prepare_replica] calls,
   so exactly one shard) fails mid-run, and [run_parallel] must stop
   every shard and re-raise it — in lookahead and in barrier mode. *)
let test_runner_shard_failure_raises () =
  List.iter
    (fun core_delay ->
       let calls = Atomic.make 0 in
       let prepare sc =
         if Atomic.fetch_and_add calls 1 = 1 then
           Mvpn_sim.Engine.schedule (Mvpn_core.Scenario.engine sc)
             ~delay:0.5 (fun () -> failwith "shard boom")
       in
       let cfg =
         { (small_cfg ~pops:8 ~vpns:2 ~sites:2 ~seed:5) with
           Runner.shards = 2; core_delay; prepare_replica = Some prepare }
       in
       with_telemetry (fun () ->
           Alcotest.check_raises "first failure re-raised"
             (Failure "shard boom") (fun () ->
               ignore (Runner.run_parallel cfg))))
    [ None; Some 0.0 ];
  (* A negative core delay trips every shard's first propagation. *)
  let cfg =
    { (small_cfg ~pops:8 ~vpns:2 ~sites:2 ~seed:5) with
      Runner.shards = 2; core_delay = Some (-1.0) }
  in
  with_telemetry (fun () ->
      Alcotest.check_raises "negative delay re-raised"
        (Invalid_argument "Engine.schedule: negative delay") (fun () ->
          ignore (Runner.run_parallel cfg)))

(* --- Fate_log ----------------------------------------------------------- *)

(* The K-way merge orders by time, then by log (shard) index, then by
   position within a log; equal times are where the three differ. *)
let test_fate_log_merge_order () =
  let log entries =
    let l = Fate_log.create () in
    List.iter
      (fun (time, vpn) ->
         Fate_log.add l ~time ~vpn ~band:0 ~dropped:false ~latency:0.0)
      entries;
    l
  in
  let logs =
    [| log [ (1.0, 1); (1.0, 2); (3.0, 3) ];
       log [ (0.5, 4); (1.0, 5) ];
       log [ (1.0, 6); (2.0, 7) ] |]
  in
  let seen = ref [] in
  Fate_log.merge logs (fun ~time:_ ~vpn ~band:_ ~dropped:_ ~latency:_ ->
      seen := vpn :: !seen);
  Alcotest.(check (list int)) "(time, shard, position) order"
    [ 4; 1; 2; 5; 6; 7; 3 ] (List.rev !seen)

let test_fate_log_roundtrip () =
  let l = Fate_log.create () in
  (* past the initial capacity, so the arrays grow *)
  for i = 0 to 2999 do
    Fate_log.add l ~time:(float_of_int i) ~vpn:(i mod 7) ~band:(i mod 4)
      ~dropped:(i mod 3 = 0)
      ~latency:(if i mod 3 = 0 then 0.0 else 1e-3 *. float_of_int i)
  done;
  let i = ref 0 in
  Fate_log.merge [| l |] (fun ~time ~vpn ~band ~dropped ~latency ->
      let k = !i in
      if time <> float_of_int k || vpn <> k mod 7 || band <> k mod 4
         || dropped <> (k mod 3 = 0)
         || latency <> (if k mod 3 = 0 then 0.0 else 1e-3 *. float_of_int k)
      then Alcotest.failf "entry %d did not round-trip" k;
      incr i);
  Alcotest.(check int) "every entry replayed" 3000 !i

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [ ("partition",
       [ Alcotest.test_case "K=1 identity" `Quick test_partition_k1_identity;
         Alcotest.test_case "clamps shard count" `Quick test_partition_clamp;
         Alcotest.test_case "isolated nodes owned" `Quick
           test_partition_isolated_nodes;
         Alcotest.test_case "cut is exactly the cross links" `Quick
           test_partition_cut_is_exact;
         qt partition_covers ]);
      ("exchange",
       [ Alcotest.test_case "channels" `Quick test_exchange_channels;
         Alcotest.test_case "drain order" `Quick test_exchange_drain_order;
         Alcotest.test_case "soft overflow" `Quick
           test_exchange_overflow_soft ]);
      ("clock",
       [ Alcotest.test_case "single shard" `Quick test_clock_single_shard;
         Alcotest.test_case "zero delay -> barrier mode" `Quick
           test_clock_zero_delay_disables_lookahead;
         Alcotest.test_case "lookahead windows" `Quick
           test_clock_lookahead_windows;
         Alcotest.test_case "barrier and min_next" `Quick
           test_clock_barrier_and_min_next ]);
      ("runner",
       [ qt runner_matches_sequential;
         Alcotest.test_case "K=8 deterministic" `Quick
           test_runner_k8_deterministic;
         Alcotest.test_case "barrier-mode parity" `Quick
           test_runner_barrier_mode_parity;
         Alcotest.test_case "a failing shard aborts the run" `Quick
           test_runner_shard_failure_raises ]);
      ("fate-log",
       [ Alcotest.test_case "merge order" `Quick test_fate_log_merge_order;
         Alcotest.test_case "round-trip" `Quick test_fate_log_roundtrip ]) ]
