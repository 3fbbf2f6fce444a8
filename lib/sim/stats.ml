module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add s x =
    s.count <- s.count + 1;
    let delta = x -. s.mean in
    s.mean <- s.mean +. (delta /. float_of_int s.count);
    s.m2 <- s.m2 +. (delta *. (x -. s.mean));
    if x < s.min then s.min <- x;
    if x > s.max then s.max <- x

  let count s = s.count

  let mean s = if s.count = 0 then 0.0 else s.mean

  (* Unbiased (n-1) sample variance — the estimator [merge]'s parallel
     m2 combination preserves, so a merged summary and a single-stream
     summary of the same data report the same value. *)
  let variance s =
    if s.count < 2 then 0.0 else s.m2 /. float_of_int (s.count - 1)

  let stddev s = sqrt (variance s)

  (* Empty summaries report 0.0, like [mean] — the +/-infinity sentinels
     used internally must not leak into reports or bench JSON, where a
     non-finite value is unrepresentable. *)
  let min s = if s.count = 0 then 0.0 else s.min

  let max s = if s.count = 0 then 0.0 else s.max

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let n = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean =
        a.mean +. (delta *. float_of_int b.count /. float_of_int n)
      in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
            /. float_of_int n)
      in
      { count = n; mean; m2; min = Float.min a.min b.min;
        max = Float.max a.max b.max }
    end

  let pp ppf s =
    Format.fprintf ppf "n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g" s.count
      (mean s) (stddev s) (min s) (max s)
end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; size = 0; sorted = true }

  let add s x =
    let cap = Array.length s.data in
    if s.size = cap then begin
      let ndata = Array.make (Stdlib.max 64 (2 * cap)) 0.0 in
      Array.blit s.data 0 ndata 0 s.size;
      s.data <- ndata
    end;
    s.data.(s.size) <- x;
    s.size <- s.size + 1;
    s.sorted <- false

  let count s = s.size

  let ensure_sorted s =
    if not s.sorted then begin
      let live = Array.sub s.data 0 s.size in
      Array.sort Float.compare live;
      Array.blit live 0 s.data 0 s.size;
      s.sorted <- true
    end

  let percentile s q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Samples.percentile: fraction outside [0, 1]";
    if s.size = 0 then 0.0
    else begin
      ensure_sorted s;
      let pos = q *. float_of_int (s.size - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (s.size - 1) in
      let frac = pos -. float_of_int lo in
      (s.data.(lo) *. (1.0 -. frac)) +. (s.data.(hi) *. frac)
    end

  let median s = percentile s 0.5

  let mean s =
    if s.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to s.size - 1 do
        sum := !sum +. s.data.(i)
      done;
      !sum /. float_of_int s.size
    end

  let to_array s =
    ensure_sorted s;
    Array.sub s.data 0 s.size
end

module Hist = struct
  type t = { edges : float array; counts : int array }

  let create edges =
    let n = Array.length edges in
    for i = 1 to n - 1 do
      if edges.(i) <= edges.(i - 1) then
        invalid_arg "Hist.create: edges must be strictly increasing"
    done;
    { edges; counts = Array.make (n + 1) 0 }

  let bucket t x =
    (* First bucket whose upper edge is >= x; the overflow bucket
       otherwise. *)
    let n = Array.length t.edges in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if x <= t.edges.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 n

  let add t x =
    let b = bucket t x in
    t.counts.(b) <- t.counts.(b) + 1

  let counts t = Array.copy t.counts

  let total t = Array.fold_left ( + ) 0 t.counts

  let pp ppf t =
    let n = Array.length t.edges in
    for i = 0 to n do
      let label =
        if i = 0 then Printf.sprintf "<=%.4g" t.edges.(0)
        else if i = n then Printf.sprintf ">%.4g" t.edges.(n - 1)
        else Printf.sprintf "(%.4g,%.4g]" t.edges.(i - 1) t.edges.(i)
      in
      Format.fprintf ppf "%s: %d@." label t.counts.(i)
    done
end
