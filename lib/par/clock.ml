type t = {
  shards : int;
  horizon : float;
  inbound : (int * float) list array;
  la : bool;
  mutex : Mutex.t;
  changed : Condition.t;
  pubs : float array;  (* guarded by [mutex] *)
  nexts : float array;  (* barrier-disciplined: write own slot, barrier,
                           read all, barrier *)
  mutable arrived : int;
  mutable phase : bool;
  mutable aborted : bool;  (* guarded by [mutex] *)
}

exception Aborted

let create ~shards ~horizon ~inbound =
  if shards < 1 then invalid_arg "Clock.create: shards < 1";
  if Array.length inbound <> shards then
    invalid_arg "Clock.create: inbound length <> shards";
  Array.iter
    (List.iter (fun (j, _) ->
         if j < 0 || j >= shards then
           invalid_arg "Clock.create: bad source shard"))
    inbound;
  let la = Array.for_all (List.for_all (fun (_, d) -> d > 0.0)) inbound in
  { shards; horizon; inbound; la;
    mutex = Mutex.create (); changed = Condition.create ();
    pubs = Array.make shards 0.0; nexts = Array.make shards infinity;
    arrived = 0; phase = false; aborted = false }

let horizon t = t.horizon

let lookahead t = t.la

let bound_locked t shard =
  List.fold_left
    (fun acc (j, d) -> Float.min acc (t.pubs.(j) +. d))
    t.horizon t.inbound.(shard)

(* Every blocking entry point leaves through here once a shard has
   failed, so no peer waits on a shard that will never publish. *)
let check_locked t =
  if t.aborted then begin
    Mutex.unlock t.mutex;
    raise Aborted
  end

let next_bound t ~shard ~completed =
  Mutex.lock t.mutex;
  let rec wait () =
    check_locked t;
    let b = bound_locked t shard in
    if b > completed || b >= t.horizon then b
    else begin
      Condition.wait t.changed t.mutex;
      wait ()
    end
  in
  let b = wait () in
  Mutex.unlock t.mutex;
  b

let publish t ~shard v =
  Mutex.lock t.mutex;
  if v > t.pubs.(shard) then begin
    t.pubs.(shard) <- v;
    Condition.broadcast t.changed
  end;
  Mutex.unlock t.mutex

let barrier t =
  Mutex.lock t.mutex;
  check_locked t;
  let sense = t.phase in
  t.arrived <- t.arrived + 1;
  if t.arrived = t.shards then begin
    t.arrived <- 0;
    t.phase <- not t.phase;
    Condition.broadcast t.changed
  end
  else
    while t.phase = sense do
      Condition.wait t.changed t.mutex;
      check_locked t
    done;
  Mutex.unlock t.mutex

let min_next t ~shard v =
  t.nexts.(shard) <- v;
  barrier t;
  let m = Array.fold_left Float.min infinity t.nexts in
  (* Second rendezvous: nobody overwrites [nexts] for the following
     round until everyone has read this one. *)
  barrier t;
  m

let abort t =
  Mutex.lock t.mutex;
  t.aborted <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex
