let m_events = Mvpn_telemetry.Registry.counter "sim.events"
let m_scheduled = Mvpn_telemetry.Registry.counter "sim.scheduled"

type backend = Binary_heap | Calendar

(* Monomorphic variant dispatch: one predictable branch per queue op,
   no closure indirection on the hot path. *)
type queue =
  | Q_heap of (unit -> unit) Heap.t
  | Q_cal of (unit -> unit) Calendar.t

(* Key handed over through a floatarray cell: on the calendar backend
   (the default) the key never crosses a call boundary as a float
   argument, so a schedule in steady state boxes nothing. The heap
   backend re-reads the cell into an argument — one box, same as
   before. *)
let q_push_at q kcell v =
  match q with
  | Q_heap h -> Heap.push h (Float.Array.get kcell 0) v
  | Q_cal c -> Calendar.push_at c kcell v

let q_pop q =
  match q with
  | Q_heap h -> Heap.pop h
  | Q_cal c -> Calendar.pop c

let q_peek q =
  match q with
  | Q_heap h -> Heap.peek h
  | Q_cal c -> Calendar.peek c

let q_size q =
  match q with
  | Q_heap h -> Heap.size h
  | Q_cal c -> Calendar.size c

(* Physical-identity sentinel for [pop_due]: a static closure no user
   event can alias (every runtime-constructed closure is a distinct
   block). *)
let null_event : unit -> unit = fun () -> ()

let q_pop_due q ~bound ~strict ~key_out =
  match q with
  | Q_heap h -> Heap.pop_due h ~bound ~strict ~default:null_event ~key_out
  | Q_cal c -> Calendar.pop_due c ~bound ~strict ~default:null_event ~key_out

type t = {
  queue : queue;
  mutable now : float;
  mutable processed : int;
  mutable stopped : bool;
  (* Batched telemetry: inside a [run]/[run_before] window the
     sim.events / sim.scheduled counters accumulate in these plain ints
     and flush once at window exit, instead of paying a DLS counter
     write per event. Outside a window, writes stay immediate so tests
     that schedule or step by hand observe exact counters. *)
  mutable in_batch : bool;
  mutable batch_events : int;
  mutable batch_scheduled : int;
  mutable flush_hooks : (unit -> unit) list;
  (* Out-parameter cell for [pop_due]: popped keys cross the queue
     call unboxed, so the run loop allocates nothing per event. *)
  key_cell : floatarray;
  (* In-parameter cell for [q_push_at] — separate from [key_cell],
     which holds the in-flight event's key while its closure (and any
     schedule it performs) runs. *)
  push_cell : floatarray;
  (* Dispatch-cost ledger (see profile.ml). Disabled by default; the
     run loops pick a profiled or plain drain once per window, so the
     per-event path is untouched until [Profile.enable]. *)
  prof : Profile.t;
}

let create ?(backend = Calendar) () =
  let queue =
    match backend with
    | Binary_heap -> Q_heap (Heap.create ())
    | Calendar -> Q_cal (Calendar.create ())
  in
  { queue; now = 0.0; processed = 0; stopped = false;
    in_batch = false; batch_events = 0; batch_scheduled = 0;
    flush_hooks = []; key_cell = Float.Array.create 1;
    push_cell = Float.Array.create 1; prof = Profile.create () }

let now e = e.now

let profiler e = e.prof

let in_batch e = e.in_batch

let on_flush e f = e.flush_hooks <- f :: e.flush_hooks

(* Accumulation is gated on the telemetry switch at event time (same
   observable semantics as an immediate Counter.incr); the flush write
   itself is forced on, since the switch may have been toggled between
   accumulation and window exit. *)
let flush_body e =
  List.iter (fun f -> f ()) e.flush_hooks;
  if e.batch_events <> 0 || e.batch_scheduled <> 0 then
    Mvpn_telemetry.Control.with_enabled (fun () ->
        Mvpn_telemetry.Counter.add m_events e.batch_events;
        Mvpn_telemetry.Counter.add m_scheduled e.batch_scheduled);
  e.batch_events <- 0;
  e.batch_scheduled <- 0

(* The flush is already amortized once per batch window, so timing it
   costs two clock reads per window, not per event. *)
let flush_batch e =
  if Profile.enabled e.prof then begin
    let t0 = Profile.now_ns () in
    flush_body e;
    Profile.note_flush e.prof (Profile.now_ns () - t0)
  end
  else flush_body e

let note_scheduled e =
  if e.in_batch then begin
    if !Mvpn_telemetry.Control.enabled then
      e.batch_scheduled <- e.batch_scheduled + 1
  end
  else Mvpn_telemetry.Counter.incr m_scheduled

let check_finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Engine.%s: time not finite" what)

(* [x -. x = 0.0] is [Float.is_finite] unfolded (nan and the two
   infinities fail it) — the cross-module call, and the argument box
   it forces, stay off the per-event path. *)
let schedule e ~delay f =
  if not (delay -. delay = 0.0) then check_finite "schedule" delay;
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  note_scheduled e;
  Float.Array.set e.push_cell 0 (e.now +. delay);
  q_push_at e.queue e.push_cell f

let schedule_at e ~time f =
  if not (time -. time = 0.0) then check_finite "schedule_at" time;
  if time < e.now then invalid_arg "Engine.schedule_at: time in the past";
  note_scheduled e;
  Float.Array.set e.push_cell 0 time;
  q_push_at e.queue e.push_cell f

(* [schedule] plus a per-kind count in the dispatch ledger. The kind
   is only consulted when profiling is on, so tagged call sites cost
   one predictable branch otherwise. *)
let schedule_kind e ~kind ~delay f =
  if Profile.enabled e.prof then Profile.note_kind e.prof kind;
  schedule e ~delay f

let schedule_kind_at e ~kind ~time f =
  if Profile.enabled e.prof then Profile.note_kind e.prof kind;
  schedule_at e ~time f

(* Fixed-interval series: one closure re-armed after each run of [f],
   so events [f] schedules at a tick instant keep their FIFO rank
   ahead of the next tick. *)
let periodic e ~kind ~interval ?until f =
  if not (Float.is_finite interval && interval > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Engine.periodic: interval must be finite and positive, got %g"
         interval);
  let until =
    match until with
    | Some h when Float.is_nan h || h < 0.0 ->
      invalid_arg "Engine.periodic: until must be >= 0"
    | Some h -> h
    | None -> infinity
  in
  let stopped = ref false in
  let rec tick () =
    if (not !stopped) && e.now <= until then begin
      f ();
      schedule_kind e ~kind ~delay:interval tick
    end
  in
  schedule_kind e ~kind ~delay:interval tick;
  fun () -> stopped := true

let step e =
  match q_pop e.queue with
  | None -> false
  | Some (time, f) ->
    e.now <- time;
    e.processed <- e.processed + 1;
    if e.in_batch then begin
      if !Mvpn_telemetry.Control.enabled then
        e.batch_events <- e.batch_events + 1
    end
    else Mvpn_telemetry.Counter.incr m_events;
    f ();
    true

(* Run [body] as one batch window. Nested windows flush only at the
   outermost exit; the flush survives an exception from an event so no
   accumulated counts are lost. *)
let in_window e body =
  if e.in_batch then body ()
  else begin
    e.in_batch <- true;
    Fun.protect
      ~finally:(fun () ->
          e.in_batch <- false;
          flush_batch e)
      body
  end

(* The drains below bypass [step]'s peek/pop option churn: one
   [pop_due] per event returns the closure or the [null_event]
   sentinel, with the key through [key_cell] — zero allocation per
   event. [in_batch] is known true inside the window, so the batched
   counter branch is inlined. The profiled twin adds three monotonic
   clock reads per event (pop and handler deltas); a window picks its
   drain once, so the plain loop never tests the profiler. *)
let plain_drain e ~bound ~strict =
  let rec loop () =
    if not e.stopped then begin
      let f = q_pop_due e.queue ~bound ~strict ~key_out:e.key_cell in
      if f != null_event then begin
        e.now <- Float.Array.get e.key_cell 0;
        e.processed <- e.processed + 1;
        if !Mvpn_telemetry.Control.enabled then
          e.batch_events <- e.batch_events + 1;
        f ();
        loop ()
      end
    end
  in
  loop ()

let profiled_drain e ~bound ~strict =
  let p = e.prof in
  let rec loop () =
    if not e.stopped then begin
      let t0 = Profile.now_ns () in
      let f = q_pop_due e.queue ~bound ~strict ~key_out:e.key_cell in
      if f != null_event then begin
        e.now <- Float.Array.get e.key_cell 0;
        e.processed <- e.processed + 1;
        if !Mvpn_telemetry.Control.enabled then
          e.batch_events <- e.batch_events + 1;
        let t1 = Profile.now_ns () in
        f ();
        let t2 = Profile.now_ns () in
        Profile.note_event p ~pop_ns:(t1 - t0) ~handler_ns:(t2 - t1);
        loop ()
      end
      else
        (* The unproductive final pop still cost a queue walk. *)
        Profile.note_pop p (Profile.now_ns () - t0)
    end
  in
  loop ()

let drain e ~bound ~strict =
  if Profile.enabled e.prof then profiled_drain e ~bound ~strict
  else plain_drain e ~bound ~strict

let run ?until e =
  e.stopped <- false;
  let horizon = match until with Some t -> t | None -> infinity in
  in_window e (fun () ->
      drain e ~bound:horizon ~strict:false;
      if (not e.stopped) && Float.is_finite horizon && horizon > e.now then
        e.now <- horizon)

let peek_time e = Option.map fst (q_peek e.queue)

(* Bounded-horizon drain for the parallel runner: process events with
   time strictly below [before], but do not advance [now] to the bound
   itself — the window bound is a synchronization artifact, not a
   simulated instant, and a later window (or the final inclusive [run])
   owns the events at the bound. *)
let run_before e ~before =
  e.stopped <- false;
  in_window e (fun () -> drain e ~bound:before ~strict:true)

let pending e = q_size e.queue

let processed e = e.processed

let stop e = e.stopped <- true
