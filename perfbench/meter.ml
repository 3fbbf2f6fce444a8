(* Clocks, order statistics and the result record every workload fills.

   Single-domain work is timed on process CPU seconds ([Sys.time]): on a
   shared host the scheduler can preempt the process at any moment, and
   CPU time does not count the wait. Multi-domain work, and single calls
   too short for the CPU clock's resolution, use the monotonic clock. *)

let cpu () = Sys.time ()
let now_ns = Mvpn_sim.Profile.now_ns
let wall () = float_of_int (now_ns ()) *. 1e-9

(* Nearest-rank quantile: the smallest sample with at least [p] of the
   samples at or below it. Empty input reads as nan, which [emit]
   turns into a failed check rather than a silent zero. *)
let quantile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

let median xs = quantile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- the result ------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let attempted = ref 0
let failed = ref 0
let checks_ok = ref true

let metric name unit_ value = metrics := (name, value, unit_) :: !metrics

(* One operation attempted; [ok = false] counts it failed. *)
let op ok =
  incr attempted;
  if not ok then incr failed

(* A whole-run check; failing it fails the run, and the caller decides
   how many operations it takes down with it. *)
let check what ok =
  if not ok then begin
    checks_ok := false;
    Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" what
  end;
  ok

(* Print the result line with exactly the metrics in [wanted], in that
   order. A wanted metric nobody measured is a layer the workload never
   exercises when [idle_ok] (reported as 0), and a failed check
   otherwise. *)
let emit ~idle_ok wanted =
  let items =
    List.map
      (fun (name, u) ->
         let v =
           match List.find_opt (fun (n, _, _) -> n = name) !metrics with
           | Some (_, v, _) when Float.is_finite v -> v
           | Some _ -> ignore (check (name ^ " is finite") false); 0.0
           | None -> ignore (check (name ^ " was measured") idle_ok); 0.0
         in
         Printf.printf "  %-44s %.6g %s\n" name v u;
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
      wanted
  in
  if !attempted = 0 then op (check "at least one operation ran" false);
  let correct = !checks_ok && !failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " items)
