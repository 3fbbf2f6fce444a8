(* provision: compile a Pareto portfolio once, apply a churn sequence one
   op at a time (a closed loop: each op starts when the previous one
   returns), then validate the incremental state against a from-scratch
   compile of the final portfolio. The event engine is never touched. *)

module P = Mvpn_provision

type spec = {
  customers : int;
  pes : int;
  ops : int;
  seed : int;  (* portfolio; the churn draws from [seed + 1] *)
}

let setups = 3
let compiles = 3

(* Reference events run after every op (see [Pace]). *)
let slice = 400

let inputs spec =
  let (portfolio, ops), s =
    Pace.measure ~events:20_000 (fun () ->
        let portfolio =
          P.Portfolio.generate ~dist:P.Portfolio.Pareto ~pe_count:spec.pes
            ~seed:spec.seed ~customers:spec.customers ()
        in
        (portfolio, P.Portfolio.churn portfolio ~seed:(spec.seed + 1) ~ops:spec.ops))
  in
  (portfolio, ops, s)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

type sample = {
  kind : string;
  ms : float;
  touched : int;
  bgp : int;  (* MP-BGP messages the op sent *)
  members : int;  (* membership messages the op sent *)
}

let run ~trace spec =
  (* Inputs are drawn [setups] times — identical each time — and the
     median is the set-up cost; the last draw is used. *)
  let earlier = List.init (setups - 1) (fun _ -> let _, _, s = inputs spec in s) in
  let portfolio, ops, s = inputs spec in
  Meter.metric "setup_s" "s" (Meter.median (s :: earlier));
  (* Likewise [compiles] compiles from scratch, after one untimed
     warm-up: one multi-second compile is a single sample on a noisy
     host, and the first also grows the heap from a fraction of its final
     size, which made it the slowest and most variable. The last one
     takes the churn. *)
  let compile () =
    Gc.full_major ();
    Pace.measure ~events:50_000 (fun () -> P.Compile.compile portfolio)
  in
  ignore (compile ());
  let earlier = List.init (compiles - 1) (fun _ -> snd (compile ())) in
  let w0 = if trace then live_words () else 0 in
  let state, last = compile () in
  let compile_s = Meter.median (last :: earlier) in
  let bytes_per_route =
    if trace then
      float_of_int ((live_words () - w0) * (Sys.word_size / 8))
      /. float_of_int (max 1 (P.Compile.metrics state).P.Compile.routes)
    else 0.0
  in
  let bgp = P.Compile.mpbgp state and members = P.Compile.membership state in
  (* Per-op wall time on the monotonic clock — most ops take tens of
     microseconds, below the CPU clock's useful resolution — normalized
     by the reference slices run just before and just after the op. *)
  let prev = ref (Pace.reading slice) in
  let readings = ref [ !prev ] in
  let samples =
    List.map
      (fun op ->
         let m0 = Mvpn_routing.Mpbgp.messages_sent bgp in
         let n0 = Mvpn_core.Membership.messages members in
         let t0 = Meter.now_ns () in
         let touched = try P.Delta.apply state op with _ -> -1 in
         let raw_ms = float_of_int (Meter.now_ns () - t0) *. 1e-6 in
         Meter.op (touched >= 0);
         let bgp = Mvpn_routing.Mpbgp.messages_sent bgp - m0 in
         let members = Mvpn_core.Membership.messages members - n0 in
         let next = Pace.reading slice in
         let ms = raw_ms /. ((!prev +. next) /. 2.0) in
         prev := next;
         readings := next :: !readings;
         { kind = P.Portfolio.op_name op; ms; touched; bgp; members })
      ops
  in
  let peak_mb = Wl_sim.peak_heap_mb () in
  let c1 = Meter.cpu () in
  let oracle = P.Delta.oracle portfolio ops in
  let oracle_s = Meter.cpu () -. c1 in
  let c2 = Meter.cpu () in
  ignore (P.Compile.fingerprint state);
  let fingerprint_s = Meter.cpu () -. c2 in
  let valid =
    Meter.check "incremental state validates against the from-scratch oracle"
      (P.Delta.validate state oracle)
  in
  (* The oracle is one verdict on the whole sequence: if it fails, no op
     can be trusted. *)
  if not valid then Meter.failed := !Meter.attempted;
  let all_ms = List.map (fun s -> s.ms) samples in
  let total_ms = List.fold_left ( +. ) 0.0 all_ms in
  let n = float_of_int (List.length samples) in
  if not trace then begin
    Meter.metric "throughput_per_s" "1/s" (Meter.ratio n (total_ms *. 1e-3));
    Meter.metric "compile_s" "s" compile_s;
    Meter.metric "peak_heap_mb" "MB" peak_mb
  end
  else begin
    let of_kind k = List.filter (fun s -> s.kind = k) samples in
    List.iter
      (fun (k, name) ->
         let ms = List.map (fun s -> s.ms) (of_kind k) in
         Meter.metric (Printf.sprintf "provision.delta.%s.p50_ms" name) "ms"
           (Meter.quantile ms 0.50);
         Meter.metric (Printf.sprintf "provision.delta.%s.p95_ms" name) "ms"
           (Meter.quantile ms 0.95))
      [ ("add-site", "add_site"); ("remove-site", "remove_site");
        ("change-tier", "change_tier") ];
    Meter.metric "provision.delta.p50_ms" "ms" (Meter.quantile all_ms 0.50);
    Meter.metric "provision.delta.p99_ms" "ms" (Meter.quantile all_ms 0.99);
    let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 samples) in
    Meter.metric "provision.delta.touched_vrfs_mean" "count"
      (Meter.ratio (sum (fun s -> s.touched)) n);
    Meter.metric "provision.delta.us_per_touched_vrf_p50" "us"
      (Meter.median
         (List.filter_map
            (fun s ->
               if s.touched > 0 then Some (1e3 *. s.ms /. float_of_int s.touched)
               else None)
            samples));
    Meter.metric "routing.mpbgp.messages_per_op" "count"
      (Meter.ratio (sum (fun s -> s.bgp)) n);
    Meter.metric "core.membership.messages_per_op" "count"
      (Meter.ratio (sum (fun s -> s.members)) n);
    Meter.metric "provision.fingerprint_s" "s" fingerprint_s;
    Meter.metric "provision.oracle_compile_s" "s" oracle_s;
    Meter.metric "provision.bytes_per_route" "B" bytes_per_route;
    Meter.metric "bench.host_slowdown" "ratio" (Meter.median !readings)
  end
