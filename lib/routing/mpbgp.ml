module Prefix = Mvpn_net.Prefix

type rd = { rd_asn : int; rd_assigned : int }

type rt = { rt_asn : int; rt_value : int }

let rd_to_string rd = Printf.sprintf "%d:%d" rd.rd_asn rd.rd_assigned

let rt_to_string rt = Printf.sprintf "%d:%d" rt.rt_asn rt.rt_value

let rt_equal a b = a.rt_asn = b.rt_asn && a.rt_value = b.rt_value

type vpnv4_route = {
  rd : rd;
  prefix : Mvpn_net.Prefix.t;
  next_hop_pe : int;
  vpn_label : int;
  export_rts : rt list;
  site : int;
}

type session_mode = Full_mesh | Route_reflector of int

type key = rd * int * int * int  (* rd, network, length, pe *)

let key_of (r : vpnv4_route) : key =
  ( r.rd,
    Mvpn_net.Ipv4.to_int (Prefix.network r.prefix),
    Prefix.length r.prefix,
    r.next_hop_pe )

(* One route record lives once, in the interned store; every table that
   holds it — the owner's exports, every remote PE's Adj-RIB-In, any
   VRF route group built on top — keeps only its integer id. At 100k+
   routes times a dozen importing PEs this is the difference between a
   dozen copies of every announcement and one. *)

type pe_state = {
  pe : int;
  exported : (key, int) Hashtbl.t;  (* logical announcement -> route id *)
  received : (int, unit) Hashtbl.t;  (* interned ids, store shared *)
}

(* What a dirty route needs at the next {!run}: [New] has never been
   propagated (deliver everywhere, count per table that gains it),
   [Update] changed content in place (everyone already has the id, count
   one UPDATE per session the mode implies), [Retract] must leave every
   Adj-RIB-In it reached (count per removal). *)
type pending = New | Update | Retract

type t = {
  mode : session_mode;
  mutable pes : pe_state list;  (* insertion order preserved via append *)
  by_pe : (int, pe_state) Hashtbl.t;
  mutable messages : int;
  mutable store : vpnv4_route option array;  (* id -> interned route *)
  mutable next_id : int;
  pending : (int, pending) Hashtbl.t;  (* dirty journal since last run *)
  mutable fresh : int list;  (* PEs added since last run, to back-fill *)
}

let create ?(mode = Full_mesh) () =
  { mode; pes = []; by_pe = Hashtbl.create 16; messages = 0;
    store = Array.make 64 None; next_id = 0;
    pending = Hashtbl.create 64; fresh = [] }

let find_pe t pe = Hashtbl.find_opt t.by_pe pe

let add_pe t pe =
  if find_pe t pe <> None then
    invalid_arg (Printf.sprintf "Mpbgp.add_pe: duplicate PE %d" pe);
  let s = { pe; exported = Hashtbl.create 32; received = Hashtbl.create 64 } in
  t.pes <- t.pes @ [s];
  Hashtbl.replace t.by_pe pe s;
  t.fresh <- pe :: t.fresh

let pe_count t = List.length t.pes

let session_count t =
  let n = pe_count t in
  match t.mode with
  | Full_mesh -> n * (n - 1) / 2
  | Route_reflector _ -> max 0 (n - 1)

let get_pe t pe =
  match find_pe t pe with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Mpbgp: unknown PE %d" pe)

let alloc t r =
  if t.next_id = Array.length t.store then begin
    let bigger = Array.make (2 * Array.length t.store) None in
    Array.blit t.store 0 bigger 0 t.next_id;
    t.store <- bigger
  end;
  let id = t.next_id in
  t.store.(id) <- Some r;
  t.next_id <- id + 1;
  id

let export t route =
  let s = get_pe t route.next_hop_pe in
  let k = key_of route in
  match Hashtbl.find_opt s.exported k with
  | Some id ->
    (match t.store.(id) with
     | Some old when old = route -> id
     | old ->
       (* Same announcement, new content: patch the shared record in
          place. Only label/RT changes are UPDATE-worthy on the wire;
          diagnostic fields ride along silently. *)
       let noisy =
         match old with
         | Some o ->
           o.vpn_label <> route.vpn_label || o.export_rts <> route.export_rts
         | None -> true
       in
       t.store.(id) <- Some route;
       if noisy && not (Hashtbl.mem t.pending id) then
         Hashtbl.replace t.pending id Update;
       id)
  | None ->
    let id = alloc t route in
    Hashtbl.replace s.exported k id;
    Hashtbl.replace t.pending id New;
    id

let export_route t route = ignore (export t route)

let find_route t id =
  if id < 0 || id >= t.next_id then None else t.store.(id)

(* O(1): the key is recomputed from the interned record, so nothing
   scans the owner's exports. *)
let withdraw t id =
  match find_route t id with
  | None -> false
  | Some r ->
    let s = get_pe t r.next_hop_pe in
    let k = key_of r in
    if Hashtbl.find_opt s.exported k <> Some id then false
    else begin
      Hashtbl.remove s.exported k;
      (match Hashtbl.find_opt t.pending id with
       | Some New ->
         (* Announced and retracted between runs: nobody ever saw it. *)
         Hashtbl.remove t.pending id;
         t.store.(id) <- None
       | _ -> Hashtbl.replace t.pending id Retract);
      true
    end

let withdraw_site t ~pe ~site =
  Hashtbl.fold
    (fun _ id acc ->
       match t.store.(id) with
       | Some r when r.site = site -> id :: acc
       | _ -> acc)
    (get_pe t pe).exported []
  |> List.fold_left (fun n id -> if withdraw t id then n + 1 else n) 0

(* Who receives an announcement from [src] under the session mode:
   full mesh sends to every other PE; with a route reflector, clients
   send one copy to the RR which reflects to the remaining clients. *)
let targets t src f =
  match t.mode with
  | Full_mesh -> List.iter (fun d -> if d.pe <> src then f d) t.pes
  | Route_reflector rr ->
    if src = rr then List.iter (fun d -> if d.pe <> rr then f d) t.pes
    else begin
      f (get_pe t rr);
      List.iter (fun d -> if d.pe <> src && d.pe <> rr then f d) t.pes
    end

let run t =
  let sent = ref 0 in
  let deliver ~changed dst id =
    if Hashtbl.mem dst.received id then begin
      if changed then incr sent
    end else begin
      Hashtbl.replace dst.received id ();
      incr sent
    end
  in
  (* Late-joining PEs first: back-fill the full current table, one
     UPDATE per route the newcomer gains. Routes already in the journal
     are skipped — the journal pass below reaches the newcomer too. *)
  List.iter
    (fun pe ->
       List.iter
         (fun src ->
            if src.pe <> pe then
              Hashtbl.iter
                (fun _ id ->
                   if not (Hashtbl.mem t.pending id) then
                     targets t src.pe (fun d ->
                         if d.pe = pe then deliver ~changed:false d id))
                src.exported)
         t.pes)
    t.fresh;
  t.fresh <- [];
  let entries = Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.pending [] in
  Hashtbl.reset t.pending;
  List.iter
    (fun (id, p) ->
       match p with
       | Retract ->
         List.iter
           (fun d ->
              if Hashtbl.mem d.received id then begin
                Hashtbl.remove d.received id;
                incr sent
              end)
           t.pes;
         t.store.(id) <- None
       | New | Update ->
         (match t.store.(id) with
          | None -> ()
          | Some r ->
            targets t r.next_hop_pe (fun d ->
                deliver ~changed:(p = Update) d id)))
    entries;
  t.messages <- t.messages + !sent;
  !sent

let iter_exported t f =
  List.iter
    (fun s ->
       Hashtbl.iter
         (fun _ id ->
            match t.store.(id) with Some r -> f id r | None -> ())
         s.exported)
    t.pes

let routes_at t pe =
  let s = get_pe t pe in
  let own =
    Hashtbl.fold
      (fun _ id acc ->
         match t.store.(id) with Some r -> r :: acc | None -> acc)
      s.exported []
  in
  Hashtbl.fold
    (fun id () acc ->
       match t.store.(id) with Some r -> r :: acc | None -> acc)
    s.received own

let rts_intersect a b =
  List.exists (fun x -> List.exists (rt_equal x) b) a

let import t ~pe ~import_rts =
  let s = get_pe t pe in
  Hashtbl.fold
    (fun id () acc ->
       match t.store.(id) with
       | Some r when rts_intersect r.export_rts import_rts -> r :: acc
       | _ -> acc)
    s.received []

let import_ids t ~pe ~import_rts =
  let s = get_pe t pe in
  Hashtbl.fold
    (fun id () acc ->
       match t.store.(id) with
       | Some r when rts_intersect r.export_rts import_rts -> id :: acc
       | _ -> acc)
    s.received []

let total_routes t =
  List.fold_left (fun acc s -> acc + Hashtbl.length s.exported) 0 t.pes

let store_size t = t.next_id

let messages_sent t = t.messages
