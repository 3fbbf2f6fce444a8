(* Host-speed reference: a frozen miniature event loop, run in short
   slices interleaved with the measured work.

   On a shared host the same code can run 1.5-2x slower for seconds at
   a time when neighbours load the machine's caches and cores, and CPU
   seconds do not exclude that. Branchy, allocating, pointer-chasing
   code like the simulator is hit far harder than a plain arithmetic
   loop, so the reference is built the same way: closures in a binary
   heap, hashtable state and small allocations. Its cost per event,
   measured in slices right next to the work, tells how slow the host is
   at that moment; scaling the work's time by [nominal_ns / measured]
   reports it as if run on a host where the reference costs
   [nominal_ns] per event.

   This file is part of the benchmark and must not change between the
   commits it compares, or normalized numbers stop being comparable. *)

let nominal_ns = 1400.0

type ev = { at : float; fn : int -> unit }
type cell = { mutable a : int; b : float; c : int array }

(* One instance of the reference loop. *)
type loop = {
  heap : ev array;
  mutable size : int;
  table : (int, cell) Hashtbl.t;
  mutable state : int;
}

let pending = 8192

let next l =
  l.state <- ((l.state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  l.state lsr 16

let push l e =
  let heap = l.heap in
  let i = ref l.size in
  l.size <- l.size + 1;
  while !i > 0 && heap.((!i - 1) / 2).at > e.at do
    heap.(!i) <- heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  heap.(!i) <- e

let pop l =
  let heap = l.heap in
  let top = heap.(0) in
  l.size <- l.size - 1;
  let size = l.size in
  let last = heap.(size) in
  let i = ref 0 and stop = ref false in
  while not !stop do
    let c = (2 * !i) + 1 in
    if c >= size then stop := true
    else begin
      let c = if c + 1 < size && heap.(c + 1).at < heap.(c).at then c + 1 else c in
      if heap.(c).at < last.at then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else stop := true
    end
  done;
  heap.(!i) <- last;
  top

let rec handler l now k =
  let key = next l land 65535 in
  (match Hashtbl.find_opt l.table key with
   | Some cell -> cell.a <- cell.a + k
   | None -> Hashtbl.replace l.table key { a = k; b = now; c = [| k; key |] });
  let at = now +. (float_of_int (next l land 1023) *. 1e-3) in
  push l { at; fn = (fun k' -> handler l at ((k' + k) land 7)) }

let loop () =
  let l =
    { heap = Array.make pending { at = 0.0; fn = ignore }; size = 0;
      table = Hashtbl.create 65536; state = 1 }
  in
  for i = 0 to pending - 1 do
    handler l 0.0 i
  done;
  l

let run l events =
  for _ = 1 to events do
    (pop l).fn 1
  done

let main = lazy (loop ())

(* Run [events] reference events; CPU seconds taken. *)
let slice events =
  let l = Lazy.force main in
  let c0 = Meter.cpu () in
  run l events;
  Meter.cpu () -. c0

(* One slice's slowdown against nominal. *)
let reading events = slice events *. 1e9 /. float_of_int events /. nominal_ns

(* Reference time accumulated around one measurement. *)
type t = { mutable ref_s : float; mutable ref_events : int }

let create () = { ref_s = 0.0; ref_events = 0 }

let tick t events =
  t.ref_s <- t.ref_s +. slice events;
  t.ref_events <- t.ref_events + events

(* How much slower than nominal the host ran during the measurement. *)
let slowdown t =
  if t.ref_events = 0 then 1.0
  else t.ref_s *. 1e9 /. float_of_int t.ref_events /. nominal_ns

let normalize t seconds = seconds /. slowdown t

(* [f ()] on CPU seconds, bracketed by [events]-event reference slices;
   the time is returned normalized. *)
let measure ~events f =
  let t = create () in
  tick t events;
  let c0 = Meter.cpu () in
  let x = f () in
  let raw = Meter.cpu () -. c0 in
  tick t events;
  (x, normalize t raw)
