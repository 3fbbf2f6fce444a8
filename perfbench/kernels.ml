(* Replay kernels: bulk calls into single hot-path layers, on inputs
   captured from a traced backbone run and on that run's own tables.

   The tracer keeps every 8th receive, up to [cap] each of labelled
   receives (node + label stack: an LFIB step), unlabelled receives
   (node: an IP lookup) and event times (calendar keys). After the run,
   each kernel times whole passes over its inputs on the monotonic
   clock and reports the median ns per call over [passes] passes. *)

module Packet = Mvpn_net.Packet
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario
module Lfib = Mvpn_mpls.Lfib
module Fib = Mvpn_net.Fib
module Queue_disc = Mvpn_qos.Queue_disc
module Calendar = Mvpn_sim.Calendar

let cap = 1 lsl 16
let passes = 5

type capture = {
  mutable seen : int;
  mutable n_lab : int;
  lab_node : int array;
  lab_stack : int list array;
  mutable n_ip : int;
  ip_node : int array;
  mutable n_time : int;
  times : float array;
}

let capture () =
  { seen = 0; n_lab = 0; lab_node = Array.make cap 0;
    lab_stack = Array.make cap []; n_ip = 0; ip_node = Array.make cap 0;
    n_time = 0; times = Array.make cap 0.0 }

let tracer c (ev : Network.trace_event) =
  c.seen <- c.seen + 1;
  if c.seen land 7 = 0 then
    match ev.Network.trace_action with
    | Network.Trace_receive _ when ev.Network.trace_node >= 0 ->
      let node = ev.Network.trace_node in
      (match ev.Network.trace_labels with
       | [] ->
         if c.n_ip < cap then begin
           c.ip_node.(c.n_ip) <- node;
           c.n_ip <- c.n_ip + 1
         end
       | stack ->
         if c.n_lab < cap then begin
           c.lab_node.(c.n_lab) <- node;
           c.lab_stack.(c.n_lab) <- stack;
           c.n_lab <- c.n_lab + 1
         end);
      if c.n_time < cap then begin
        c.times.(c.n_time) <- ev.Network.trace_time;
        c.n_time <- c.n_time + 1
      end
    | _ -> ()

(* Median ns per call of [pass], which performs [n] calls. [prepare]
   runs untimed before each pass. *)
let time_passes ?(prepare = ignore) n pass =
  if n = 0 then Float.nan
  else
    Meter.median
      (List.init passes (fun _ ->
           prepare ();
           let t0 = Meter.now_ns () in
           pass ();
           float_of_int (Meter.now_ns () - t0) /. float_of_int n))

let sink = ref 0

let flow_packet () =
  Packet.make ~now:0.0
    (Mvpn_net.Flow.make (Mvpn_net.Ipv4.of_octets 10 0 0 1)
       (Mvpn_net.Ipv4.of_octets 10 1 0 1))

let lfib_step_ns sc c =
  let plane = Network.plane (Scenario.network sc) in
  let n = c.n_lab in
  let lfibs = Array.init n (fun i -> Mvpn_mpls.Plane.lfib plane c.lab_node.(i)) in
  let pkts = Array.make n Packet.null in
  let prepare () =
    for i = 0 to n - 1 do
      let p = flow_packet () in
      List.iter
        (fun label -> Packet.push_label p ~label ~exp:0 ~ttl:64)
        (List.rev c.lab_stack.(i));
      pkts.(i) <- p
    done
  in
  time_passes ~prepare n (fun () ->
      for i = 0 to n - 1 do
        sink := !sink + Lfib.step_packed lfibs.(i) pkts.(i)
      done)

let fib_lookup_ns sc c =
  let net = Scenario.network sc in
  let hosts =
    Array.map (fun s -> Mvpn_core.Site.host s 1) (Scenario.sites sc)
  in
  let n = if Array.length hosts = 0 then 0 else c.n_ip in
  let fibs = Array.init n (fun i -> Network.fib net c.ip_node.(i)) in
  let dsts = Array.init n (fun i -> hosts.(i mod Array.length hosts)) in
  time_passes n (fun () ->
      for i = 0 to n - 1 do
        match Fib.lookup fibs.(i) dsts.(i) with
        | Some (_, r) -> sink := !sink + r.Fib.next_hop
        | None -> ()
      done)

(* Enqueue then drain batches of 64 packets on the busiest port's own
   discipline, spread over its bands. *)
let qdisc_ns sc =
  let net = Scenario.network sc in
  let best = ref None and most = ref (-1) in
  Network.iter_ports net (fun ~link_id:_ port ->
      let o = (Mvpn_qos.Port.counters port).Mvpn_qos.Port.offered in
      if o > !most then begin
        most := o;
        best := Some port
      end);
  match !best with
  | None -> (Float.nan, Float.nan)
  | Some port ->
    let q = Mvpn_qos.Port.qdisc port in
    let bands = Queue_disc.band_count q in
    let batch = 64 and rounds = cap / 64 in
    let pkts = Array.init batch (fun _ -> flow_packet ()) in
    let enq = ref 0 and deq = ref 0 and ok = ref 0 in
    let pass () =
      for _ = 1 to rounds do
        let t0 = Meter.now_ns () in
        let accepted = ref 0 in
        for i = 0 to batch - 1 do
          match Queue_disc.enqueue q ~cls:(i mod bands) pkts.(i) with
          | Ok () -> incr accepted
          | Error _ -> ()
        done;
        let t1 = Meter.now_ns () in
        for _ = 1 to !accepted do
          ignore (Queue_disc.dequeue_null q)
        done;
        let t2 = Meter.now_ns () in
        enq := !enq + (t1 - t0);
        deq := !deq + (t2 - t1);
        ok := !ok + !accepted
      done
    in
    let samples =
      List.init passes (fun _ ->
          enq := 0;
          deq := 0;
          ok := 0;
          pass ();
          ( float_of_int !enq /. float_of_int (rounds * batch),
            float_of_int !deq /. float_of_int (max 1 !ok) ))
    in
    (Meter.median (List.map fst samples), Meter.median (List.map snd samples))

(* Hold model: keep [depth] events queued; every step pops the earliest
   and pushes the next captured event time. *)
let calendar_ns c =
  let depth = min 1024 (c.n_time / 2) in
  let q = ref (Calendar.create ()) in
  let prepare () =
    q := Calendar.create ();
    for i = 0 to depth - 1 do
      Calendar.push !q c.times.(i) i
    done
  in
  time_passes ~prepare (c.n_time - depth) (fun () ->
      let q = !q in
      for i = depth to c.n_time - 1 do
        (match Calendar.pop q with
         | Some (_, v) -> sink := !sink + v
         | None -> ());
        Calendar.push q c.times.(i) i
      done)

let report sc c =
  let prev = Packet.pooling () in
  Packet.set_pooling false;
  Meter.metric "mpls.lfib.step_ns" "ns" (lfib_step_ns sc c);
  Meter.metric "net.fib.lookup_ns" "ns" (fib_lookup_ns sc c);
  let enq, deq = qdisc_ns sc in
  Meter.metric "qos.qdisc.enqueue_ns" "ns" enq;
  Meter.metric "qos.qdisc.dequeue_ns" "ns" deq;
  Meter.metric "sim.calendar.push_pop_ns" "ns" (calendar_ns c);
  Packet.set_pooling prev

let names =
  [ ("mpls.lfib.step_ns", "ns"); ("net.fib.lookup_ns", "ns");
    ("qos.qdisc.enqueue_ns", "ns"); ("qos.qdisc.dequeue_ns", "ns");
    ("sim.calendar.push_pop_ns", "ns") ]
