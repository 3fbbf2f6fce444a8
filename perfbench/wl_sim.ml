(* The simulation workloads, backbone-seq and soak, and the K=2 runner
   measured inside backbone-seq's traced run. *)

module Runner = Mvpn_par.Runner
module Profile = Mvpn_sim.Profile
module Registry = Mvpn_telemetry.Registry
module Network = Mvpn_core.Network
module Scenario = Mvpn_core.Scenario

(* Replica [i] of a run simulates seed [seed + 1000 i]: one seed's
   traffic alone moves delivered packets per CPU second by several per
   cent, so a run reports the median over a family of inputs, all drawn
   from its seed. Only replica 0 runs the seed itself, so only it can
   match a recorded fingerprint. *)
let member (spec : Sim.spec) i = { spec with Sim.seed = spec.Sim.seed + (1000 * i) }

let expect_for i expect = if i = 0 then expect else None

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Registry counters the layer metrics are diffs of. *)
let counters =
  [ "fib.cache.hit"; "fib.cache.miss"; "ftn.cache.hit"; "ftn.cache.miss";
    "lfib.swap"; "lfib.pop"; "lfib.pop_and_ip";
    "resilience.fallback.packets"; "resilience.frr.switched" ]

let read_counters () = List.map Registry.counter_value counters

let diff_counters before =
  List.map2 (fun name (a, b) -> (name, b - a)) counters
    (List.combine before (read_counters ()))

(* --- one sequential replica, measured --------------------------------- *)

type sample = {
  r : Sim.rep;
  run_s : float;  (* event-loop CPU seconds, normalized *)
  raw_run_s : float;  (* the same, as measured *)
  pps : float;  (* delivered simulated packets per normalized CPU second *)
  slowdown : float;  (* host slowdown while the loop ran *)
  minor_words : float;
  minor_gcs : int;
  counts : (string * int) list;
}

let seq_rep ?soak ?tracer ?profile ?expect spec =
  let before = read_counters () in
  let r = Sim.setup ?soak ?tracer ?profile spec in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.minor_collections in
  let raw_run_s, run_s, slowdown = Sim.run r in
  let minor_words = Gc.minor_words () -. w0 in
  let minor_gcs = (Gc.quick_stat ()).Gc.minor_collections - g0 in
  let counts = diff_counters before in
  Meter.op (Sim.verify ?expect r (Sim.traffic r));
  { r; run_s; raw_run_s; pps = float_of_int (Sim.delivered r) /. run_s; slowdown;
    minor_words; minor_gcs; counts }

(* Drop the replica before the next one is built, so every repetition
   starts from a comparable heap. *)
let settle () = Gc.full_major ()

(* Only scalars survive a replica, so none outlives its turn. The peak
   heap is read after the first replica, which runs the seed itself:
   later replicas only add how the collector happened to pace itself
   across a family of inputs. *)
let timed_seq ?soak ?expect ~reps spec =
  let reps =
    List.init reps (fun i ->
        let s = seq_rep ?soak ?expect:(expect_for i expect) (member spec i) in
        if i = 0 then Meter.metric "peak_heap_mb" "MB" (peak_heap_mb ());
        let x = (s.pps, s.r.Sim.setup_s, s.r.Sim.build_s) in
        settle ();
        x)
  in
  let med f = Meter.median (List.map f reps) in
  Meter.metric "throughput_per_s" "1/s" (med (fun (p, _, _) -> p));
  Meter.metric "setup_s" "s" (med (fun (_, s, _) -> s));
  Meter.metric "compile_s" "s" (med (fun (_, _, b) -> b))

(* --- layer metrics common to the sequential workloads ------------------ *)

let count s name = float_of_int (List.assoc name s.counts)

let hit_ratio s what =
  let hit = count s (what ^ ".cache.hit") and miss = count s (what ^ ".cache.miss") in
  Meter.ratio hit (hit +. miss)

let lfib_ops s =
  count s "lfib.swap" +. count s "lfib.pop" +. count s "lfib.pop_and_ip"

(* Dataplane, LFIB, port and GC figures from an untraced replica. *)
let core_layers s =
  let r = s.r in
  let net = Scenario.network r.Sim.sc in
  let delivered = float_of_int (Sim.delivered r) in
  let events = float_of_int (Sim.events r) in
  Meter.metric "sim.events_per_packet" "events/pkt" (Meter.ratio events delivered);
  Meter.metric "sim.minor_words_per_event" "words" (Meter.ratio s.minor_words events);
  Meter.metric "sim.minor_gcs_per_1k_events" "count"
    (Meter.ratio (1000.0 *. float_of_int s.minor_gcs) events);
  Meter.metric "core.dataplane.fib_cache_hit_ratio" "ratio" (hit_ratio s "fib");
  Meter.metric "core.dataplane.ftn_cache_hit_ratio" "ratio" (hit_ratio s "ftn");
  Meter.metric "core.dataplane.recompiles" "count"
    (float_of_int (Mvpn_core.Dataplane.recompiles (Network.dataplane net)));
  Meter.metric "mpls.lfib.ops_per_packet" "ops/pkt" (Meter.ratio (lfib_ops s) delivered);
  Meter.metric "core.dataplane.slow_path_share" "ratio"
    (Meter.ratio
       (count s "resilience.fallback.packets" +. count s "resilience.frr.switched")
       delivered);
  Meter.metric "qos.port.drops_per_1k_packets" "count"
    (Meter.ratio (1000.0 *. float_of_int (Network.port_drop_total net))
       (float_of_int (Network.flow_totals net).Network.injected));
  Meter.metric "bench.host_slowdown" "ratio" s.slowdown

let kind_count prof name =
  match List.assoc_opt name (Profile.kind_names ()) with
  | Some k -> float_of_int (Profile.kind_count prof k)
  | None -> 0.0

(* The dispatch-cost ledger of a profiled replica. *)
let profile_layers s =
  let prof = Mvpn_sim.Engine.profiler (Scenario.engine s.r.Sim.sc) in
  let delivered = float_of_int (Sim.delivered s.r) in
  let ns x = 1e9 *. x /. float_of_int (max 1 (Profile.events prof)) in
  Meter.metric "sim.kind.port_tx_per_packet" "events/pkt"
    (Meter.ratio (kind_count prof "port.tx") delivered);
  Meter.metric "sim.kind.port_propagate_per_packet" "events/pkt"
    (Meter.ratio (kind_count prof "port.propagate") delivered);
  Meter.metric "sim.pop_ns_per_event" "ns" (ns (Profile.pop_seconds prof));
  Meter.metric "sim.handler_ns_per_event" "ns" (ns (Profile.handler_seconds prof));
  Meter.metric "sim.flush_ns_per_event" "ns" (ns (Profile.flush_seconds prof))

(* Traced against untraced rate over (untraced, traced) pairs, as a
   percentage slowdown. *)
let overhead_pct pairs =
  let med f = Meter.median (List.map f pairs) in
  100.0 *. (1.0 -. Meter.ratio (med snd) (med fst))

(* --- the par layer: K=2 over the same inputs ---------------------------- *)

(* One K=2 call, on wall time and on the CPU time of both domains. *)
type par = {
  o : Runner.outcome;
  wall_s : float;
  cpu_s : float;
}

let k2_call cfg ~reference =
  let c0 = Meter.cpu () and w0 = Meter.wall () in
  let o = Runner.run_parallel cfg in
  let p = { o; wall_s = Meter.wall () -. w0; cpu_s = Meter.cpu () -. c0 } in
  let got = Sim.of_outcome o in
  Meter.op
    (Meter.check
       (Printf.sprintf "K=2 traffic %S equals sequential %S"
          (Sim.fingerprint got) (Sim.fingerprint reference))
       (got = reference));
  p

(* [calls] K=2 calls through [Runner.run_parallel], each followed by a
   sequential replica of the same seed, in one process. Every call's
   traffic must equal the sequential replica's. *)
let par_layers ~calls ?expect (spec : Sim.spec) =
  let cfg =
    { Runner.default_config with
      Runner.shards = 2; pops = spec.Sim.pops; vpns = spec.Sim.vpns;
      sites_per_vpn = spec.Sim.sites_per_vpn; load = spec.Sim.load;
      duration = spec.Sim.duration; seed = spec.Sim.seed }
  in
  let s0 = seq_rep ?expect spec in
  let reference = Sim.traffic s0.r in
  let seq_cpu = ref [ s0.raw_run_s ] in
  settle ();
  let calls =
    List.init calls (fun _ ->
        let p = k2_call cfg ~reference in
        settle ();
        seq_cpu := (seq_rep ?expect spec).raw_run_s :: !seq_cpu;
        settle ();
        p)
  in
  let o = (List.hd calls).o in
  let med f = Meter.median (List.map f calls) in
  Meter.metric "par.cpu_per_wall" "ratio" (med (fun p -> p.cpu_s /. p.wall_s));
  Meter.metric "par.exchanged_per_1k_events" "count"
    (Meter.ratio (1000.0 *. float_of_int o.Runner.exchanged) (float_of_int o.Runner.events));
  Meter.metric "par.overflow" "count" (float_of_int o.Runner.overflow);
  Meter.metric "par.leftover" "count" (float_of_int o.Runner.leftover);
  Meter.metric "par.wall_over_seq_cpu" "ratio"
    (med (fun p -> p.wall_s) /. Meter.median !seq_cpu)

(* --- backbone-seq ------------------------------------------------------ *)

let backbone_seq ~trace ~reps ?expect spec =
  if not trace then timed_seq ?expect ~reps spec
  else begin
    (* Untraced (A) and traced (B: dispatch ledger + tracer) replicas,
       interleaved A B A B. The first B's tracer captures the replay
       kernels' inputs, and the kernels run on its tables. *)
    let cap = Kernels.capture () in
    let tracer = Kernels.tracer cap in
    let a = seq_rep ?expect spec in
    core_layers a;
    let a_pps = a.pps in
    settle ();
    let b = seq_rep ~tracer ~profile:true ?expect spec in
    profile_layers b;
    Kernels.report b.r.Sim.sc cap;
    let first = (a_pps, b.pps) in
    settle ();
    let more =
      List.init (max 1 (reps / 3)) (fun i ->
          let spec = member spec (i + 1) in
          let a = (seq_rep spec).pps in
          settle ();
          let b = (seq_rep ~tracer ~profile:true spec).pps in
          settle ();
          (a, b))
    in
    Meter.metric "bench.trace_overhead_pct" "%" (overhead_pct (first :: more));
    par_layers ~calls:(max 2 (reps / 6)) ?expect spec
  end

(* --- soak -------------------------------------------------------------- *)

let soak ~trace ~reps ?expect ~storm_events spec =
  let armed ?(tick = 1.0) ~slo ~audit ~sampler () =
    { Sim.storm_events; live_slo = slo; audit; sampler; tick }
  in
  let full = armed ~slo:true ~audit:true ~sampler:true () in
  if not trace then timed_seq ~soak:full ?expect ~reps spec
  else begin
    (* The measurement plane by difference: the same storm bare, fully
       armed, and with the auditor or the sampler alone, interleaved.
       Ticks are engine events that leave the traffic alone, so each
       instrument's tick count is its extra executed events. The
       sampler-only run ticks at 100 Hz: at the recipe's 1 Hz its ~77
       ticks cost less than the run-to-run noise of the difference. The
       auditor stays at 1 Hz: at 100 Hz it reported invariant violations
       (884 at the default seed), which a 1 Hz audit never does. A round
       runs the four on one member of the seed family. *)
    let variants =
      [ ("bare", armed ~slo:false ~audit:false ~sampler:false ());
        ("armed", full);
        ("audit", armed ~slo:false ~audit:true ~sampler:false ());
        ("sampler", armed ~tick:0.01 ~slo:false ~audit:false ~sampler:true ()) ]
    in
    let rounds =
      List.init (max 1 (reps / 3)) (fun i ->
          List.map
            (fun (name, soak) ->
               let s = seq_rep ~soak ?expect:(expect_for i expect) (member spec i) in
               if i = 0 && name = "armed" then begin
                 core_layers s;
                 Meter.metric "resilience.audit.ticks" "count"
                   (float_of_int
                      (Mvpn_resilience.Audit.ticks (Option.get s.r.Sim.audit)))
               end;
               let x = (name, (s.run_s, Sim.events s.r, s.pps)) in
               settle ();
               x)
            variants)
    in
    (* Per round, a variant's extra CPU over the bare run of the same
       seed, and per extra executed event; medians over rounds. *)
    let extra name f =
      Meter.median
        (List.map
           (fun round ->
              let c, e, _ = List.assoc name round and c0, e0, _ = List.assoc "bare" round in
              f (c -. c0) (float_of_int (e - e0)))
           rounds)
    in
    Meter.metric "telemetry.measure_overhead_cpu_s" "s" (extra "armed" (fun c _ -> c));
    Meter.metric "resilience.audit.us_per_tick" "us"
      (extra "audit" (fun c ticks -> Meter.ratio (1e6 *. c) ticks));
    Meter.metric "core.sampler.us_per_tick" "us"
      (extra "sampler" (fun c ticks -> Meter.ratio (1e6 *. c) ticks));
    (* A profiled replica of the full recipe for the dispatch ledger; its
       rate against the untraced armed replica of the same seed is the
       overhead. *)
    let p = seq_rep ~soak:full ~profile:true ?expect spec in
    profile_layers p;
    let _, _, armed_pps = List.assoc "armed" (List.hd rounds) in
    Meter.metric "bench.trace_overhead_pct" "%" (overhead_pct [ (armed_pps, p.pps) ])
  end
