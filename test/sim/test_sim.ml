open Mvpn_sim

(* --- Rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.fork parent in
  let c1 = Rng.bits64 child in
  (* Re-deriving from the same parent state gives a different child. *)
  let child2 = Rng.fork parent in
  Alcotest.(check bool) "children differ" true (Rng.bits64 child2 <> c1)

let test_rng_split_indexed () =
  (* split derives from the parent's current position and the index
     only: it never advances the parent, so substream i is the same
     stream regardless of how many siblings are taken or in what
     order. *)
  let parent = Rng.create 7 in
  let before = Rng.split parent 0 in
  let again = Rng.split parent 0 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same substream" (Rng.bits64 before)
      (Rng.bits64 again)
  done;
  let backwards = List.rev_map (Rng.split parent) [ 2; 1; 0 ] in
  let forwards = List.map (Rng.split parent) [ 0; 1; 2 ] in
  List.iter2
    (fun a b ->
       Alcotest.(check int64) "order independent" (Rng.bits64 a)
         (Rng.bits64 b))
    backwards forwards;
  let untouched = Rng.create 7 in
  Alcotest.(check int64) "parent unmoved" (Rng.bits64 untouched)
    (Rng.bits64 parent)

let test_rng_split_distinct () =
  let parent = Rng.create 23 in
  let seen = Hashtbl.create 64 in
  for i = 0 to 63 do
    let v = Rng.bits64 (Rng.split parent i) in
    if Hashtbl.mem seen v then
      Alcotest.failf "substreams %d and %d collide" (Hashtbl.find seen v) i;
    Hashtbl.add seen v i
  done;
  (* splitting after the parent advances gives fresh substreams *)
  let first = Rng.bits64 (Rng.split parent 0) in
  ignore (Rng.bits64 parent);
  Alcotest.(check bool) "substreams track parent position" true
    (Rng.bits64 (Rng.split parent 0) <> first)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_uniform_mean () =
  let r = Rng.create 11 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.uniform r)
  done;
  let m = Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.exponential r ~rate:4.0)
  done;
  let m = Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 1/4" true (abs_float (m -. 0.25) < 0.01)

let test_rng_pareto_min () =
  let r = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.pareto r ~shape:1.5 ~scale:100.0 in
    if v < 100.0 then Alcotest.failf "below scale: %f" v
  done

let test_rng_normal_moments () =
  let r = Rng.create 19 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.normal r ~mean:10.0 ~stddev:2.0)
  done;
  Alcotest.(check bool) "mean" true
    (abs_float (Stats.Summary.mean s -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev" true
    (abs_float (Stats.Summary.stddev s -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* --- Heap ------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v)
    [(3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z")];
  let drain () =
    let rec go acc =
      match Heap.pop h with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" ["z"; "a"; "b"; "c"] (drain ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) ["first"; "second"; "third"];
  let pops =
    List.filter_map (fun _ -> Option.map snd (Heap.pop h)) [(); (); ()]
  in
  Alcotest.(check (list string)) "insertion order"
    ["first"; "second"; "third"] pops

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty pop" true (Heap.pop h = None);
  Alcotest.(check bool) "empty peek" true (Heap.peek h = None);
  Alcotest.(check int) "size" 0 (Heap.size h)

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
       let h = Heap.create () in
       List.iteri (fun i k -> Heap.push h k i) keys;
       let rec drain acc =
         match Heap.pop h with
         | None -> List.rev acc
         | Some (k, _) -> drain (k :: acc)
       in
       let popped = drain [] in
       popped = List.sort Float.compare keys)

(* --- Scheduler contract (Heap and Calendar through one harness) ------- *)

(* Both event queues must implement the same total order: ascending key,
   FIFO among equal keys. The property drives random interleaved
   push/pop sequences (keys drawn from a small set so ties are common)
   against a brute-force reference model; Heap is the original oracle,
   Calendar must be indistinguishable from it. *)
module Scheduler_contract (Q : sig
    type 'a t

    val create : unit -> 'a t
    val push : 'a t -> float -> 'a -> unit
    val pop : 'a t -> (float * 'a) option
    val size : 'a t -> int
  end) =
struct
  (* Reference pop: minimum (key, insertion id) over a plain list. *)
  let ref_pop model =
    match !model with
    | [] -> None
    | first :: rest ->
      let ((_, bi) as best) =
        List.fold_left
          (fun ((bk, bi) as b) ((k, i) as c) ->
             if k < bk || (k = bk && i < bi) then c else b)
          first rest
      in
      model := List.filter (fun (_, i) -> i <> bi) !model;
      Some best

  (* An op is [None] (pop) or [Some key_choice] (push). *)
  let agrees ops =
    let q = Q.create () in
    let model = ref [] in
    let next_id = ref 0 in
    let ok = ref true in
    let check_pop () =
      match (Q.pop q, ref_pop model) with
      | Some (k, v), Some (rk, ri) -> if k <> rk || v <> ri then ok := false
      | None, None -> ()
      | _ -> ok := false
    in
    List.iter
      (fun op ->
         match op with
         | None -> check_pop ()
         | Some kc ->
           let k = float_of_int (kc : int) *. 0.5 in
           let id = !next_id in
           incr next_id;
           Q.push q k id;
           model := (k, id) :: !model)
      ops;
    while Q.size q > 0 || !model <> [] do
      check_pop ()
    done;
    !ok

  let fifo_contract name =
    QCheck.Test.make ~name ~count:150
      QCheck.(list_of_size (QCheck.Gen.int_range 0 120)
                (option (int_bound 7)))
      agrees
end

module Heap_contract = Scheduler_contract (Heap)
module Calendar_contract = Scheduler_contract (Calendar)

let heap_fifo_contract =
  Heap_contract.fifo_contract "heap matches the (key, seq) reference"

let calendar_fifo_contract =
  Calendar_contract.fifo_contract "calendar matches the (key, seq) reference"

(* --- Calendar --------------------------------------------------------- *)

let test_calendar_order () =
  let c = Calendar.create () in
  List.iter (fun (k, v) -> Calendar.push c k v)
    [(3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z")];
  let rec drain acc =
    match Calendar.pop c with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "sorted" ["z"; "a"; "b"; "c"] (drain [])

let test_calendar_fifo_ties () =
  let c = Calendar.create () in
  List.iter (fun v -> Calendar.push c 1.0 v) ["first"; "second"; "third"];
  let pops =
    List.filter_map (fun _ -> Option.map snd (Calendar.pop c)) [(); (); ()]
  in
  Alcotest.(check (list string)) "insertion order"
    ["first"; "second"; "third"] pops

let test_calendar_empty () =
  let c : int Calendar.t = Calendar.create () in
  Alcotest.(check bool) "empty pop" true (Calendar.pop c = None);
  Alcotest.(check bool) "empty peek" true (Calendar.peek c = None);
  Alcotest.(check int) "size" 0 (Calendar.size c)

let test_calendar_clear () =
  let c = Calendar.create () in
  Calendar.push c 1.0 "x";
  Calendar.push c 2.0 "y";
  Calendar.clear c;
  Alcotest.(check int) "cleared" 0 (Calendar.size c);
  Alcotest.(check bool) "pop after clear" true (Calendar.pop c = None);
  Calendar.push c 5.0 "z";
  Alcotest.(check bool) "usable after clear" true
    (Calendar.pop c = Some (5.0, "z"))

(* Population growth must widen the ring and re-derive the width, and
   neither resize may perturb the pop order. *)
let test_calendar_resize () =
  let c = Calendar.create () in
  let b0 = Calendar.bucket_count c in
  for i = 0 to 999 do
    Calendar.push c (float_of_int ((i * 7919) mod 1000) /. 100.0) i
  done;
  Alcotest.(check bool) "buckets grew" true (Calendar.bucket_count c > b0);
  Alcotest.(check bool) "width positive" true (Calendar.width c > 0.0);
  let rec drain last n =
    match Calendar.pop c with
    | None -> n
    | Some (k, _) ->
      Alcotest.(check bool) "non-decreasing" true (k >= last);
      drain k (n + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain neg_infinity 0);
  Alcotest.(check bool) "buckets shrank back" true
    (Calendar.bucket_count c <= b0 * 2)

(* A far-future outlier must not stall dequeue of the near cluster (the
   direct-search fallback covers sparse years). *)
let test_calendar_sparse_outlier () =
  let c = Calendar.create () in
  Calendar.push c 1e6 "far";
  for i = 0 to 9 do
    Calendar.push c (float_of_int i *. 1e-6) (Printf.sprintf "near%d" i)
  done;
  for i = 0 to 9 do
    Alcotest.(check bool) "near first" true
      (Calendar.pop c = Some (float_of_int i *. 1e-6, Printf.sprintf "near%d" i))
  done;
  Alcotest.(check bool) "outlier last" true (Calendar.pop c = Some (1e6, "far"));
  Alcotest.(check bool) "drained" true (Calendar.pop c = None)

let test_calendar_rejects_nonfinite () =
  let c = Calendar.create () in
  Alcotest.check_raises "nan key"
    (Invalid_argument "Calendar.push: key not finite") (fun () ->
        Calendar.push c Float.nan "x");
  Alcotest.check_raises "inf key"
    (Invalid_argument "Calendar.push: key not finite") (fun () ->
        Calendar.push c infinity "x")

(* --- Engine ----------------------------------------------------------- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" ["a"; "b"; "c"] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now e)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run e;
  Alcotest.(check int) "five ticks" 5 !count;
  Alcotest.(check (float 1e-9)) "final time" 5.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~delay:t (fun () -> ran := t :: !ran))
    [1.0; 2.0; 3.0; 4.0];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "only early events" [1.0; 2.0]
    (List.rev !ran);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Engine.now e);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_until_inclusive () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:2.0 (fun () -> ran := true);
  Engine.run ~until:2.0 e;
  Alcotest.(check bool) "event at horizon runs" true !ran

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "rest pending" 7 (Engine.pending e)

let test_engine_invalid () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore);
  Engine.schedule e ~delay:5.0 ignore;
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 ignore)

let test_periodic_multiples () =
  let e = Engine.create () in
  let k = Profile.register_kind "test.periodic" in
  let times = ref [] in
  let _stop =
    Engine.periodic e ~kind:k ~interval:0.25 (fun () ->
        times := Engine.now e :: !times)
  in
  Alcotest.(check int) "first tick armed" 1 (Engine.pending e);
  Engine.run ~until:1.0 e;
  Alcotest.(check (list (float 0.0))) "every interval, until inclusive"
    [0.25; 0.5; 0.75; 1.0] (List.rev !times)

(* Without [until] the series re-arms forever; with it, a bare [run]
   must drain, after at most one trailing no-op tick. *)
let test_periodic_until_drains () =
  let e = Engine.create () in
  let k = Profile.register_kind "test.periodic" in
  let n = ref 0 in
  let _stop =
    Engine.periodic e ~kind:k ~interval:1.0 ~until:3.5 (fun () -> incr n)
  in
  Engine.run e;
  Alcotest.(check int) "ticks at 1, 2, 3" 3 !n;
  Alcotest.(check int) "queue drained" 0 (Engine.pending e);
  Alcotest.(check (float 0.0)) "trailing no-op at 4" 4.0 (Engine.now e)

let test_periodic_stop () =
  let e = Engine.create () in
  let k = Profile.register_kind "test.periodic" in
  let n = ref 0 in
  let stop = Engine.periodic e ~kind:k ~interval:1.0 (fun () -> incr n) in
  Engine.run ~until:2.0 e;
  stop ();
  Engine.run e;
  Alcotest.(check int) "no tick after stop" 2 !n;
  Alcotest.(check int) "pending tick drained as a no-op" 0 (Engine.pending e);
  (* Stopping from inside the tick ends the series there too. *)
  let m = ref 0 in
  let stop2 = ref ignore in
  stop2 :=
    Engine.periodic e ~kind:k ~interval:1.0 (fun () ->
        incr m;
        if !m = 3 then !stop2 ());
  Engine.run e;
  Alcotest.(check int) "stopped from its own tick" 3 !m

let test_periodic_rejects () =
  let e = Engine.create () in
  let k = Profile.register_kind "test.periodic" in
  let expect name ?until interval =
    match Engine.periodic e ~kind:k ~interval ?until ignore with
    | (_ : unit -> unit) ->
      Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect "nan interval" Float.nan;
  expect "zero interval" 0.0;
  expect "negative interval" (-1.0);
  expect "infinite interval" infinity;
  expect "nan until" ~until:Float.nan 1.0;
  expect "negative until" ~until:(-1.0) 1.0;
  Alcotest.(check int) "nothing scheduled" 0 (Engine.pending e);
  let _stop = Engine.periodic e ~kind:k ~interval:1.0 ~until:0.0 ignore in
  Engine.run e;
  Alcotest.(check int) "until 0: one no-op tick, drained" 1
    (Engine.processed e)

let test_periodic_profiled () =
  let e = Engine.create () in
  let p = Engine.profiler e in
  let k = Profile.register_kind "test.periodic.ledger" in
  Profile.enable p;
  let n = ref 0 in
  let _stop =
    Engine.periodic e ~kind:k ~interval:0.5 ~until:5.0 (fun () -> incr n)
  in
  Engine.run e;
  Alcotest.(check int) "ten ticks ran" 10 !n;
  Alcotest.(check int) "every tick counted under its kind, the no-op too"
    11 (Profile.kind_count p k)

let test_engine_simultaneous_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo among ties" [1; 2; 3; 4; 5]
    (List.rev !log)

(* Both backends must execute an identical, tie-heavy, self-scheduling
   workload in exactly the same order — the property every cross-K
   fingerprint rests on. *)
let test_engine_backend_parity () =
  let trace backend =
    let e = Engine.create ~backend () in
    let log = ref [] in
    let rec spawn depth tag =
      log := tag :: !log;
      if depth < 3 then begin
        (* Equal delays on purpose: ties across sibling events. *)
        Engine.schedule e ~delay:0.25 (fun () -> spawn (depth + 1) (tag * 2));
        Engine.schedule e ~delay:0.25 (fun () -> spawn (depth + 1) ((tag * 2) + 1))
      end
    in
    for i = 1 to 4 do
      Engine.schedule e ~delay:(float_of_int (i mod 2)) (fun () -> spawn 0 i)
    done;
    Engine.run e;
    (List.rev !log, Engine.processed e, Engine.now e)
  in
  let lh, ph, nh = trace Engine.Binary_heap in
  let lc, pc, nc = trace Engine.Calendar in
  Alcotest.(check (list int)) "same execution order" lh lc;
  Alcotest.(check int) "same processed count" ph pc;
  Alcotest.(check (float 1e-12)) "same final clock" nh nc

(* --- Stats ------------------------------------------------------------ *)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0];
  (* m2 = 32 over 8 samples: sample variance 32/7, not 32/8. *)
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0)
    (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "stddev"
    (sqrt (32.0 /. 7.0))
    (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 1e-9)) "mean" 0.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 0.0 (Stats.Summary.variance s);
  (* The internal +/-infinity sentinels must not leak out of an empty
     summary — they end up as invalid literals in bench JSON. *)
  Alcotest.(check (float 1e-9)) "min" 0.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 0.0 (Stats.Summary.max s)

(* Pin the n-1 estimator on a known dataset, and pin that a merged
   summary agrees exactly with the single-stream one: merge's parallel
   m2 combination is exact, so both report sum((x - 5.5)^2) / 9. *)
let test_summary_sample_variance_merged () =
  let xs = [1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0] in
  let single = Stats.Summary.create () in
  List.iter (Stats.Summary.add single) xs;
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iteri
    (fun i x -> Stats.Summary.add (if i < 5 then a else b) x)
    xs;
  let merged = Stats.Summary.merge a b in
  Alcotest.(check (float 1e-9)) "single variance" (82.5 /. 9.0)
    (Stats.Summary.variance single);
  Alcotest.(check (float 1e-9)) "merged variance" (82.5 /. 9.0)
    (Stats.Summary.variance merged);
  Alcotest.(check (float 1e-9)) "merged mean" 5.5 (Stats.Summary.mean merged)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let all = Stats.Summary.create () in
  List.iter
    (fun x -> Stats.Summary.add a x; Stats.Summary.add all x)
    [1.0; 2.0; 3.0];
  List.iter
    (fun x -> Stats.Summary.add b x; Stats.Summary.add all x)
    [10.0; 20.0];
  let m = Stats.Summary.merge a b in
  Alcotest.(check (float 1e-9)) "mean" (Stats.Summary.mean all)
    (Stats.Summary.mean m);
  Alcotest.(check (float 1e-6)) "variance" (Stats.Summary.variance all)
    (Stats.Summary.variance m);
  Alcotest.(check int) "count" 5 (Stats.Summary.count m)

let summary_matches_naive =
  QCheck.Test.make ~name:"welford matches naive moments" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50)
              (float_bound_exclusive 1000.0))
    (fun xs ->
       let s = Stats.Summary.create () in
       List.iter (Stats.Summary.add s) xs;
       let n = float_of_int (List.length xs) in
       let mean = List.fold_left ( +. ) 0.0 xs /. n in
       let var =
         List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
         /. (n -. 1.0)
       in
       abs_float (Stats.Summary.mean s -. mean) < 1e-6
       && abs_float (Stats.Summary.variance s -. var) < 1e-4)

let test_samples_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Stats.Samples.median s);
  Alcotest.(check (float 1e-6)) "p99" 99.01 (Stats.Samples.percentile s 0.99);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Samples.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Samples.percentile s 1.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Samples.mean s)

let test_samples_interleaved_sorting () =
  let s = Stats.Samples.create () in
  Stats.Samples.add s 5.0;
  Stats.Samples.add s 1.0;
  ignore (Stats.Samples.median s);
  Stats.Samples.add s 3.0;
  Alcotest.(check (float 1e-9)) "median after resort" 3.0
    (Stats.Samples.median s);
  Alcotest.(check (array (float 1e-9))) "sorted" [|1.0; 3.0; 5.0|]
    (Stats.Samples.to_array s)

let test_hist_buckets () =
  let h = Stats.Hist.create [|1.0; 2.0; 4.0|] in
  List.iter (Stats.Hist.add h) [0.5; 1.0; 1.5; 3.0; 10.0];
  Alcotest.(check (array int)) "counts" [|2; 1; 1; 1|] (Stats.Hist.counts h);
  Alcotest.(check int) "total" 5 (Stats.Hist.total h)

let test_hist_bad_edges () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Hist.create: edges must be strictly increasing")
    (fun () -> ignore (Stats.Hist.create [|1.0; 1.0|]))

(* Push payloads while registering them in a weak array, without
   leaving strong references on this frame's stack.  [@inline never]
   keeps the payload roots confined to the callee. *)
let[@inline never] heap_fill_weak h (w : int ref Weak.t) n =
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    Heap.push h (float_of_int i) payload
  done

let test_heap_pop_releases_payload () =
  let h : int ref Heap.t = Heap.create () in
  let w = Weak.create 4 in
  heap_fill_weak h w 4;
  (* Pop the two smallest; their payloads must become collectable even
     though the heap itself stays live with the other two. *)
  ignore (Sys.opaque_identity (Heap.pop h));
  ignore (Sys.opaque_identity (Heap.pop h));
  Gc.full_major ();
  Alcotest.(check bool) "popped payloads reclaimed" true
    (Weak.get w 0 = None && Weak.get w 1 = None);
  Alcotest.(check bool) "live payloads retained" true
    (Weak.get w 2 <> None && Weak.get w 3 <> None);
  Alcotest.(check int) "heap still holds the rest" 2 (Heap.size h)

let test_heap_drain_releases_all () =
  (* Enough pushes to force at least one grow; after draining, nothing
     may be pinned by vacated or freshly grown slots. *)
  let n = 40 in
  let h : int ref Heap.t = Heap.create () in
  let w = Weak.create n in
  heap_fill_weak h w n;
  while Heap.pop h <> None do () done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.get w i <> None then
      Alcotest.failf "payload %d still reachable after drain" i
  done;
  (* Keep the drained heap (and its backing array) live across the GC
     above, so reclamation is due to cleared slots, not a dead heap. *)
  Alcotest.(check int) "drained" 0 (Heap.size h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 "x";
  Heap.push h 2.0 "y";
  Heap.clear h;
  Alcotest.(check int) "emptied" 0 (Heap.size h);
  Heap.push h 3.0 "z";
  Alcotest.(check bool) "usable after clear" true
    (match Heap.pop h with Some (_, "z") -> true | _ -> false)

let test_engine_processed_counter () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.schedule e ~delay:1.0 ignore
  done;
  Engine.run e;
  Alcotest.(check int) "five processed" 5 (Engine.processed e);
  Alcotest.(check bool) "step on empty" false (Engine.step e)

let test_engine_schedule_at_now () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:1.0 (fun () ->
      (* Scheduling at exactly the current time is allowed. *)
      Engine.schedule_at e ~time:(Engine.now e) (fun () -> ran := true));
  Engine.run e;
  Alcotest.(check bool) "ran" true !ran

let test_engine_run_before () =
  (* run_before is strict: events at exactly the bound stay queued, so
     a conservative window [completed, bound) never executes an event a
     later cross-shard arrival at [bound] could precede. *)
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule_at e ~time:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0 ];
  Engine.run_before e ~before:2.0;
  Alcotest.(check (list (float 0.0))) "strictly before" [ 1.0 ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.0))) "bound event still queued"
    (Some 2.0) (Engine.peek_time e);
  Engine.run_before e ~before:10.0;
  Alcotest.(check (list (float 0.0))) "rest drained" [ 1.0; 2.0; 3.0 ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.0))) "empty" None (Engine.peek_time e)

let test_engine_profiler () =
  (* The dispatch-cost ledger: off by default (the plain drain loop
     never touches the clock), and when enabled it buckets every
     executed event's wall time into pop + handler and counts
     dispatches per registered kind. *)
  let e = Engine.create () in
  let p = Engine.profiler e in
  Alcotest.(check bool) "off by default" false (Profile.enabled p);
  let k = Profile.register_kind "test.tick" in
  Profile.enable p;
  let fired = ref 0 in
  let rec tick n =
    if n > 0 then
      Engine.schedule_kind e ~kind:k ~delay:1.0 (fun () ->
          incr fired;
          tick (n - 1))
  in
  tick 50;
  Engine.run e;
  Alcotest.(check int) "all fired" 50 !fired;
  Alcotest.(check int) "every event bucketed" 50 (Profile.events p);
  Alcotest.(check int) "kind dispatches counted" 50 (Profile.kind_count p k);
  Alcotest.(check bool) "pop bucket non-negative" true
    (Profile.pop_seconds p >= 0.0);
  Alcotest.(check bool) "handler bucket non-negative" true
    (Profile.handler_seconds p >= 0.0);
  Profile.disable p;
  Profile.reset p;
  Alcotest.(check int) "reset clears the ledger" 0 (Profile.events p);
  (* Off again: further events leave the ledger untouched. *)
  Engine.schedule e ~delay:1.0 ignore;
  Engine.run e;
  Alcotest.(check int) "plain drain does not record" 0 (Profile.events p)

let test_summary_single_sample () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 5.0;
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance zero" 0.0
    (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min=max" (Stats.Summary.min s)
    (Stats.Summary.max s)

(* --- Topology --------------------------------------------------------- *)

let test_topology_accessor_errors () =
  let t = Topology.create () in
  let a = Topology.add_node ~name:"alpha" t in
  Alcotest.(check string) "name" "alpha" (Topology.node_name t a);
  Alcotest.check_raises "bad node" (Invalid_argument "Topology: unknown node 9")
    (fun () -> ignore (Topology.node_name t 9));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Topology.link: unknown link 3") (fun () ->
      ignore (Topology.link t 3));
  Alcotest.(check (option int)) "find_node miss" None
    (Topology.find_node t "beta")

let test_topology_connect () =
  let t = Topology.create () in
  let a = Topology.add_node ~name:"a" t in
  let b = Topology.add_node ~name:"b" t in
  let ab, ba = Topology.connect t a b ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "nodes" 2 (Topology.node_count t);
  Alcotest.(check int) "links" 2 (Topology.link_count t);
  Alcotest.(check int) "ab src" a ab.Topology.src;
  Alcotest.(check int) "ba src" b ba.Topology.src;
  Alcotest.(check (option int)) "find by name" (Some b)
    (Topology.find_node t "b");
  Alcotest.(check bool) "find link" true
    (Topology.find_link t a b <> None);
  Alcotest.(check int) "neighbors of a" 1
    (List.length (Topology.neighbors t a))

let test_topology_duplicate_rejected () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.connect: duplicate link 0->1") (fun () ->
      ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.connect: self-loop") (fun () ->
      ignore (Topology.connect t a a ~bandwidth:1e9 ~delay:0.001))

let test_topology_failure () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  Alcotest.(check int) "up neighbors" 1
    (List.length (Topology.up_neighbors t a));
  Topology.set_duplex_state t a b false;
  Alcotest.(check int) "after failure" 0
    (List.length (Topology.up_neighbors t a));
  Alcotest.(check int) "reverse down too" 0
    (List.length (Topology.up_neighbors t b));
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "restored" 1
    (List.length (Topology.up_neighbors t a))

(* A redundant set_duplex_state is a no-op: no hook firings, no
   generation bump — chaos replays and retry loops must be free to
   re-assert the state they already believe in. *)
let test_topology_duplex_idempotent () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  let fired = ref 0 in
  Topology.on_duplex_change t (fun ~a:_ ~b:_ ~up:_ -> incr fired);
  Topology.set_duplex_state t a b false;
  let gen = Topology.generation t in
  Alcotest.(check int) "one transition, one firing" 1 !fired;
  Topology.set_duplex_state t a b false;
  Topology.set_duplex_state t a b false;
  Alcotest.(check int) "redundant sets fire nothing" 1 !fired;
  Alcotest.(check int) "generation untouched" gen (Topology.generation t);
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "restore fires once" 2 !fired;
  Alcotest.(check bool) "generation bumped" true
    (Topology.generation t > gen);
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "redundant restore is silent" 2 !fired

let test_topology_reserve () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  let ab, _ = Topology.connect t a b ~bandwidth:100.0 ~delay:0.001 in
  Alcotest.(check bool) "reserve ok" true (Topology.reserve ab 60.0);
  Alcotest.(check (float 1e-9)) "available" 40.0 (Topology.available ab);
  Alcotest.(check bool) "over-reserve refused" false
    (Topology.reserve ab 50.0);
  Alcotest.(check (float 1e-9)) "unchanged" 40.0 (Topology.available ab);
  Topology.release ab 60.0;
  Alcotest.(check (float 1e-9)) "released" 100.0 (Topology.available ab)

let test_topology_builders () =
  let t = Topology.create () in
  let ring = Topology.ring t 5 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "ring nodes" 5 (Array.length ring);
  Alcotest.(check int) "ring links" 10 (Topology.link_count t);
  let t2 = Topology.create () in
  let mesh = Topology.full_mesh t2 4 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "mesh links" 12 (Topology.link_count t2);
  ignore mesh;
  let t3 = Topology.create () in
  let hub, leaves = Topology.star t3 6 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "star nodes" 7 (Topology.node_count t3);
  Alcotest.(check int) "hub degree" 6
    (List.length (Topology.neighbors t3 hub));
  ignore leaves

let test_topology_ring_with_chords () =
  let t = Topology.create () in
  let ids =
    Topology.ring_with_chords t 6 ~chords:[(0, 3); (1, 4)] ~bandwidth:1e9
      ~delay:0.001
  in
  Alcotest.(check int) "links" ((6 + 2) * 2) (Topology.link_count t);
  Alcotest.(check bool) "chord exists" true
    (Topology.find_link t ids.(0) ids.(3) <> None)

let random_connected_is_connected =
  QCheck.Test.make ~name:"random topology is connected" ~count:50
    QCheck.(pair (int_range 2 30) (int_bound 20))
    (fun (n, extra) ->
       let t = Topology.create () in
       let rng = Rng.create (n * 1000 + extra) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:extra
           ~bandwidth:1e9 ~delay:0.001
       in
       (* BFS from the first node must reach all. *)
       let visited = Array.make (Topology.node_count t) false in
       let queue = Queue.create () in
       Queue.add ids.(0) queue;
       visited.(ids.(0)) <- true;
       while not (Queue.is_empty queue) do
         let v = Queue.pop queue in
         List.iter
           (fun (nbr, _) ->
              if not visited.(nbr) then begin
                visited.(nbr) <- true;
                Queue.add nbr queue
              end)
           (Topology.neighbors t v)
       done;
       Array.for_all (fun id -> visited.(id)) ids)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [ ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "int_in" `Quick test_rng_int_in;
         Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
         Alcotest.test_case "exponential mean" `Quick
           test_rng_exponential_mean;
         Alcotest.test_case "pareto min" `Quick test_rng_pareto_min;
         Alcotest.test_case "split indexed" `Quick test_rng_split_indexed;
         Alcotest.test_case "split distinct" `Quick test_rng_split_distinct;
         Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
         Alcotest.test_case "shuffle permutes" `Quick
           test_rng_shuffle_permutes ]);
      ("heap",
       [ Alcotest.test_case "order" `Quick test_heap_order;
         Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
         Alcotest.test_case "empty" `Quick test_heap_empty;
         Alcotest.test_case "clear" `Quick test_heap_clear;
         qt heap_fifo_contract;
         Alcotest.test_case "pop releases payload" `Quick
           test_heap_pop_releases_payload;
         Alcotest.test_case "drain releases all" `Quick
           test_heap_drain_releases_all;
         qt heap_sorts ]);
      ("calendar",
       [ Alcotest.test_case "order" `Quick test_calendar_order;
         Alcotest.test_case "fifo ties" `Quick test_calendar_fifo_ties;
         Alcotest.test_case "empty" `Quick test_calendar_empty;
         Alcotest.test_case "clear" `Quick test_calendar_clear;
         Alcotest.test_case "resize" `Quick test_calendar_resize;
         Alcotest.test_case "sparse outlier" `Quick
           test_calendar_sparse_outlier;
         Alcotest.test_case "rejects non-finite keys" `Quick
           test_calendar_rejects_nonfinite;
         qt calendar_fifo_contract ]);
      ("engine",
       [ Alcotest.test_case "time order" `Quick test_engine_time_order;
         Alcotest.test_case "cascading" `Quick test_engine_cascading;
         Alcotest.test_case "until" `Quick test_engine_until;
         Alcotest.test_case "until inclusive" `Quick
           test_engine_until_inclusive;
         Alcotest.test_case "stop" `Quick test_engine_stop;
         Alcotest.test_case "invalid times" `Quick test_engine_invalid;
         Alcotest.test_case "backend parity" `Quick
           test_engine_backend_parity;
         Alcotest.test_case "simultaneous fifo" `Quick
           test_engine_simultaneous_fifo;
         Alcotest.test_case "processed counter" `Quick
           test_engine_processed_counter;
         Alcotest.test_case "schedule_at now" `Quick
           test_engine_schedule_at_now;
         Alcotest.test_case "run_before strict" `Quick
           test_engine_run_before;
         Alcotest.test_case "profiler ledger" `Quick
           test_engine_profiler;
         Alcotest.test_case "periodic at multiples" `Quick
           test_periodic_multiples;
         Alcotest.test_case "periodic until drains" `Quick
           test_periodic_until_drains;
         Alcotest.test_case "periodic stop" `Quick test_periodic_stop;
         Alcotest.test_case "periodic rejects bad knobs" `Quick
           test_periodic_rejects;
         Alcotest.test_case "periodic ticks profiled" `Quick
           test_periodic_profiled ]);
      ("stats",
       [ Alcotest.test_case "summary moments" `Quick test_summary_moments;
         Alcotest.test_case "summary empty" `Quick test_summary_empty;
         Alcotest.test_case "summary merge" `Quick test_summary_merge;
         Alcotest.test_case "summary sample variance merged" `Quick
           test_summary_sample_variance_merged;
         qt summary_matches_naive;
         Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
         Alcotest.test_case "interleaved sorting" `Quick
           test_samples_interleaved_sorting;
         Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
         Alcotest.test_case "hist bad edges" `Quick test_hist_bad_edges;
         Alcotest.test_case "summary single sample" `Quick
           test_summary_single_sample ]);
      ("topology",
       [ Alcotest.test_case "connect" `Quick test_topology_connect;
         Alcotest.test_case "duplicates rejected" `Quick
           test_topology_duplicate_rejected;
         Alcotest.test_case "failure injection" `Quick test_topology_failure;
         Alcotest.test_case "duplex state idempotent" `Quick
           test_topology_duplex_idempotent;
         Alcotest.test_case "reservation" `Quick test_topology_reserve;
         Alcotest.test_case "builders" `Quick test_topology_builders;
         Alcotest.test_case "ring with chords" `Quick
           test_topology_ring_with_chords;
         Alcotest.test_case "accessor errors" `Quick
           test_topology_accessor_errors;
         qt random_connected_is_connected ]) ]
