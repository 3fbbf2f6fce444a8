(* perfbench — the repository benchmark.

     bench --workload W --seed N --seconds S --trace 0|1
           [--size full|tiny] [--expect-fingerprint FP]

   Workloads: backbone-seq, soak, provision (see NOTES.md).
   --trace 0 measures the end-to-end metrics with no instrument armed;
   --trace 1 is the separate traced run that reports the per-layer
   metrics. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   The seed drives every generated input: scenario seed N, chaos storm
   seed N - 4, portfolio seed N, churn seed N + 1. At the default seed
   (11, giving the E16/E18/E19 recipes' seeds 11, 7, 11 and 12) the
   traffic fingerprints must match the recorded values below;
   --expect-fingerprint overrides the recorded value (the smoke test's
   negative control). *)

let default_seed = 11

(* Every metric the benchmark reports, by mode. A traced run reports 0
   for a layer its workload never exercises (see NOTES.md). *)
let end_to_end =
  [ ("throughput_per_s", "1/s"); ("setup_s", "s"); ("compile_s", "s");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("sim.events_per_packet", "events/pkt");
    ("sim.kind.port_tx_per_packet", "events/pkt");
    ("sim.kind.port_propagate_per_packet", "events/pkt");
    ("sim.pop_ns_per_event", "ns"); ("sim.handler_ns_per_event", "ns");
    ("sim.flush_ns_per_event", "ns"); ("sim.minor_words_per_event", "words");
    ("sim.minor_gcs_per_1k_events", "count") ]
  @ Kernels.names
  @ [ ("core.dataplane.fib_cache_hit_ratio", "ratio");
      ("core.dataplane.ftn_cache_hit_ratio", "ratio");
      ("core.dataplane.recompiles", "count");
      ("mpls.lfib.ops_per_packet", "ops/pkt");
      ("core.dataplane.slow_path_share", "ratio");
      ("qos.port.drops_per_1k_packets", "count");
      ("telemetry.measure_overhead_cpu_s", "s");
      ("resilience.audit.ticks", "count");
      ("resilience.audit.us_per_tick", "us");
      ("core.sampler.us_per_tick", "us");
      ("par.cpu_per_wall", "ratio"); ("par.exchanged_per_1k_events", "count");
      ("par.overflow", "count"); ("par.leftover", "count");
      ("par.wall_over_seq_cpu", "ratio");
      ("provision.delta.add_site.p50_ms", "ms");
      ("provision.delta.add_site.p95_ms", "ms");
      ("provision.delta.remove_site.p50_ms", "ms");
      ("provision.delta.remove_site.p95_ms", "ms");
      ("provision.delta.change_tier.p50_ms", "ms");
      ("provision.delta.change_tier.p95_ms", "ms");
      ("provision.delta.p50_ms", "ms"); ("provision.delta.p99_ms", "ms");
      ("provision.delta.touched_vrfs_mean", "count");
      ("provision.delta.us_per_touched_vrf_p50", "us");
      ("routing.mpbgp.messages_per_op", "count");
      ("core.membership.messages_per_op", "count");
      ("provision.fingerprint_s", "s"); ("provision.oracle_compile_s", "s");
      ("provision.bytes_per_route", "B"); ("bench.trace_overhead_pct", "%");
      ("bench.host_slowdown", "ratio") ]

(* Traffic fingerprints recorded at the default seed, per (workload,
   size). K=2 calls are checked against their sequential replica. *)
let recorded =
  [ ( ("backbone-seq", "full"),
      "delivered=99379 dropped=0 classes=voice:11369/11369,\
       transactional:31252/31252,bulk:80655/56758 slo=true/3" );
    ( ("backbone-seq", "tiny"),
      "delivered=790 dropped=0 classes=voice:132/132,transactional:181/181,\
       bulk:596/477 slo=true/0" );
    ( ("soak", "full"),
      "delivered=141286 dropped=19 classes=voice:20796/20734,\
       transactional:56598/56492,bulk:89141/64060 slo=true/15" );
    ( ("soak", "tiny"),
      "delivered=1214 dropped=0 classes=voice:230/228,transactional:384/382,\
       bulk:945/604 slo=true/2" ) ]

type size = { sim : Sim.spec; soak : Sim.spec; storm : int; prov : Wl_provision.spec }

let size name seed =
  let backbone pops vpns sites duration =
    { Sim.pops; vpns; sites_per_vpn = sites; load = 0.9; duration; seed;
      diurnal = None }
  in
  match name with
  | "full" ->
    { sim = backbone 16 4 8 40.0;
      soak = { (backbone 16 4 8 72.0) with Sim.diurnal = Some 8 };
      storm = 24;
      prov = { Wl_provision.customers = 10_000; pes = 12; ops = 3000; seed } }
  | "tiny" ->
    { sim = backbone 4 1 4 2.0;
      soak = { (backbone 4 1 4 4.0) with Sim.diurnal = Some 2 };
      storm = 4;
      prov = { Wl_provision.customers = 50; pes = 4; ops = 20; seed } }
  | s -> invalid_arg ("unknown --size " ^ s)

let usage () =
  prerr_endline
    "usage: bench --workload backbone-seq|soak|provision \
     --seed N --seconds S --trace 0|1 [--size full|tiny] \
     [--expect-fingerprint FP]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k d = Option.value ~default:d (List.assoc_opt k opts) in
  let int_of k d =
    match int_of_string_opt (get k (string_of_int d)) with
    | Some n -> n
    | None -> usage ()
  in
  let workload = get "workload" "" in
  let seed = int_of "seed" default_seed in
  let seconds = float_of_int (int_of "seconds" 10) in
  (* Replicas per run: [rate] per second of --seconds, the rate sized so
     a run takes about --seconds on the 2-core host this was written on.
     The work is fixed by --seconds, never by the clock. *)
  let reps rate = max 3 (int_of_float (rate *. seconds)) in
  let trace =
    match get "trace" "0" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let size_name = get "size" "full" in
  let sz = try size size_name seed with Invalid_argument _ -> usage () in
  let expect =
    match List.assoc_opt "expect-fingerprint" opts with
    | Some fp -> Some fp
    | None when seed = default_seed -> List.assoc_opt (workload, size_name) recorded
    | None -> None
  in
  Mvpn_telemetry.Control.enable ();
  Mvpn_net.Packet.set_pooling true;
  (match workload with
   | "backbone-seq" -> Wl_sim.backbone_seq ~trace ~reps:(reps 1.2) ?expect sz.sim
   | "soak" ->
     Wl_sim.soak ~trace ~reps:(reps 0.6) ?expect ~storm_events:sz.storm sz.soak
   | "provision" -> Wl_provision.run ~trace sz.prov
   | _ -> usage ());
  Printf.printf "perfbench %s seed %d size %s trace %b:\n" workload seed
    size_name trace;
  Meter.emit ~idle_ok:trace (if trace then per_layer else end_to_end)
