(* Meta packing: bit 0 dropped, bits 1-21 band, bits 22+ vpn. *)
type t = {
  mutable times : floatarray;
  mutable lats : floatarray;  (* latency; 0.0 for drops *)
  mutable meta : int array;
  mutable n : int;
}

let create () =
  { times = Float.Array.create 1024; lats = Float.Array.create 1024;
    meta = Array.make 1024 0; n = 0 }

let add l ~time ~vpn ~band ~dropped ~latency =
  let n = l.n in
  if n = Array.length l.meta then begin
    let grow a =
      let b = Float.Array.create (2 * n) in
      Float.Array.blit a 0 b 0 n;
      b
    in
    l.times <- grow l.times;
    l.lats <- grow l.lats;
    let m = Array.make (2 * n) 0 in
    Array.blit l.meta 0 m 0 n;
    l.meta <- m
  end;
  Float.Array.set l.times n time;
  Float.Array.set l.lats n latency;
  l.meta.(n) <- (vpn lsl 22) lor (band lsl 1) lor Bool.to_int dropped;
  l.n <- n + 1

let merge logs f =
  let k = Array.length logs in
  let pos = Array.make k 0 in
  let rec next () =
    (* The head with the least time; a strict [<] over ascending log
       indices leaves equal times to the lowest index. *)
    let best = ref (-1) and best_t = ref infinity in
    for s = 0 to k - 1 do
      let i = pos.(s) in
      if i < logs.(s).n then begin
        let t = Float.Array.get logs.(s).times i in
        if !best < 0 || t < !best_t then begin
          best := s;
          best_t := t
        end
      end
    done;
    if !best >= 0 then begin
      let l = logs.(!best) and i = pos.(!best) in
      pos.(!best) <- i + 1;
      let meta = l.meta.(i) in
      f ~time:!best_t ~vpn:(meta lsr 22) ~band:((meta lsr 1) land 0x1FFFFF)
        ~dropped:(meta land 1 = 1) ~latency:(Float.Array.get l.lats i);
      next ()
    end
  in
  next ()
