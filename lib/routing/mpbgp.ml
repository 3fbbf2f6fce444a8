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
   VRF route group built on top — keeps only its integer id. Ids are
   dense ([0 .. next_id)), so the Adj-RIB-In is a bitset over them: at
   100k+ routes times a dozen importing PEs that is a bit per route per
   PE instead of a hashtable binding. *)

type pe_state = {
  pe : int;
  exported : (key, int) Hashtbl.t;  (* logical announcement -> route id *)
  mutable received : Bytes.t;  (* Adj-RIB-In: bit [id] set, grown on demand *)
}

(* The journal tag of an id, one byte each: what it needs at the next
   {!run}. [added] has never been propagated (deliver everywhere, count
   per table that gains it), [update] changed content in place
   (everyone already has the id, count one UPDATE per receiving PE),
   [retract] must leave every Adj-RIB-In it reached (count per
   removal). *)
let clean = 0
let added = 1
let update = 2
let retract = 3

type t = {
  mode : session_mode;
  mutable pes : pe_state list;  (* insertion order preserved via append *)
  by_pe : (int, pe_state) Hashtbl.t;
  mutable messages : int;
  mutable store : vpnv4_route option array;  (* id -> interned route *)
  mutable tags : Bytes.t;  (* id -> journal tag, as long as [store] *)
  mutable dirty : int list;  (* ids tagged since the last run *)
  mutable next_id : int;
  mutable fresh : int list;  (* PEs added since last run, to back-fill *)
}

let create ?(mode = Full_mesh) () =
  { mode; pes = []; by_pe = Hashtbl.create 16; messages = 0;
    store = Array.make 64 None; tags = Bytes.make 64 '\000'; dirty = [];
    next_id = 0; fresh = [] }

let find_pe t pe = Hashtbl.find_opt t.by_pe pe

let add_pe t pe =
  if find_pe t pe <> None then
    invalid_arg (Printf.sprintf "Mpbgp.add_pe: duplicate PE %d" pe);
  let s = { pe; exported = Hashtbl.create 32; received = Bytes.empty } in
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
  match Hashtbl.find t.by_pe pe with
  | s -> s
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Mpbgp: unknown PE %d" pe)

(* --- Adj-RIB-In bitset ---------------------------------------------------- *)

let has s id =
  let i = id lsr 3 in
  i < Bytes.length s.received
  && Bytes.get_uint8 s.received i land (1 lsl (id land 7)) <> 0

(* A bitset grows to cover [cap] ids, the store's capacity, so it
   regrows only when the store itself doubles. *)
let set_bit s ~cap id =
  let i = id lsr 3 in
  let n = Bytes.length s.received in
  if i >= n then begin
    let bigger = Bytes.make (max (i + 1) ((cap + 7) / 8)) '\000' in
    Bytes.blit s.received 0 bigger 0 n;
    s.received <- bigger
  end;
  Bytes.set_uint8 s.received i
    (Bytes.get_uint8 s.received i lor (1 lsl (id land 7)))

let clear_bit s id =
  let i = id lsr 3 in
  Bytes.set_uint8 s.received i
    (Bytes.get_uint8 s.received i land lnot (1 lsl (id land 7)))

(* [fold_received s f acc] folds [f] over the received ids in
   descending order, skipping zero bytes, so consing yields an
   ascending list. *)
let fold_received s f acc =
  let acc = ref acc in
  for i = Bytes.length s.received - 1 downto 0 do
    let b = Bytes.get_uint8 s.received i in
    if b <> 0 then
      for j = 7 downto 0 do
        if b land (1 lsl j) <> 0 then acc := f ((i lsl 3) lor j) !acc
      done
  done;
  !acc

(* --- store and journal ---------------------------------------------------- *)

let tag t id = Bytes.get_uint8 t.tags id

let mark t id v =
  if tag t id = clean then t.dirty <- id :: t.dirty;
  Bytes.set_uint8 t.tags id v

let alloc t r =
  let n = Array.length t.store in
  if t.next_id = n then begin
    let bigger = Array.make (2 * n) None in
    Array.blit t.store 0 bigger 0 n;
    t.store <- bigger;
    let tags = Bytes.make (2 * n) '\000' in
    Bytes.blit t.tags 0 tags 0 n;
    t.tags <- tags
  end;
  let id = t.next_id in
  t.store.(id) <- Some r;
  t.next_id <- id + 1;
  id

let export t route =
  let s = get_pe t route.next_hop_pe in
  let k = key_of route in
  match Hashtbl.find s.exported k with
  | id ->
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
       if noisy && tag t id = clean then mark t id update;
       id)
  | exception Not_found ->
    let id = alloc t route in
    Hashtbl.replace s.exported k id;
    mark t id added;
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
    match Hashtbl.find s.exported k with
    | live when live = id ->
      Hashtbl.remove s.exported k;
      (* Announced and retracted between runs: nobody ever saw it, and
         {!run} finds nothing to send for a dead slot. *)
      if tag t id = added then t.store.(id) <- None
      else mark t id retract;
      true
    | _ | (exception Not_found) -> false

let withdraw_site t ~pe ~site =
  Hashtbl.fold
    (fun _ id acc ->
       match t.store.(id) with
       | Some r when r.site = site -> id :: acc
       | _ -> acc)
    (get_pe t pe).exported []
  |> List.fold_left (fun n id -> if withdraw t id then n + 1 else n) 0

(* Who receives an announcement: every PE but its origin, one UPDATE
   each, in either session mode — full mesh sends to every other PE
   directly; with a route reflector a client sends one copy to the RR,
   which reflects one to each remaining client.

   The propagation loops below are plain recursion over explicit
   arguments, not closures: a run allocates nothing per route, so a
   churn op's cost is the state it changes. *)

(* UPDATEs for offering [id] to [d]: one if [d] gains it, or already
   holds it and its content [changed]. *)
let deliver t ~changed d id =
  if has d id then if changed then 1 else 0
  else begin
    set_bit d ~cap:(Array.length t.store) id;
    1
  end

let rec deliver_all t ~changed ~origin id sent = function
  | [] -> sent
  | d :: rest ->
    let sent = if d.pe = origin then sent else sent + deliver t ~changed d id in
    deliver_all t ~changed ~origin id sent rest

let rec retract_all id sent = function
  | [] -> sent
  | d :: rest ->
    let sent =
      if has d id then begin
        clear_bit d id;
        sent + 1
      end
      else sent
    in
    retract_all id sent rest

(* Late-joining PE [pe]: back-fill the full current table, one UPDATE
   per route the newcomer gains. A live id with a clean tag is exactly a
   propagated export; tagged ids are skipped — the journal pass reaches
   the newcomer too. *)
let backfill t pe =
  let d = get_pe t pe in
  let sent = ref 0 in
  for id = 0 to t.next_id - 1 do
    match t.store.(id) with
    | Some r when r.next_hop_pe <> pe && tag t id = clean ->
      sent := !sent + deliver t ~changed:false d id
    | _ -> ()
  done;
  !sent

(* The journal pass: every dirty id, in journal order, cleaned. *)
let rec drain t sent = function
  | [] -> sent
  | id :: rest ->
    let p = tag t id in
    Bytes.set_uint8 t.tags id clean;
    let sent =
      if p = retract then begin
        t.store.(id) <- None;
        retract_all id sent t.pes
      end
      else
        match t.store.(id) with
        | None -> sent
        | Some r ->
          deliver_all t ~changed:(p = update) ~origin:r.next_hop_pe id sent
            t.pes
    in
    drain t sent rest

let rec backfill_all t sent = function
  | [] -> sent
  | pe :: rest -> backfill_all t (sent + backfill t pe) rest

let run t =
  let sent = backfill_all t 0 t.fresh in
  t.fresh <- [];
  let dirty = t.dirty in
  t.dirty <- [];
  let sent = drain t sent dirty in
  t.messages <- t.messages + sent;
  sent

(* A live id not being retracted is exactly a current export. *)
let exported_now t id = tag t id <> retract

let iter_exported t f =
  for id = 0 to t.next_id - 1 do
    match t.store.(id) with
    | Some r when exported_now t id -> f id r
    | _ -> ()
  done

let routes_at t pe =
  let s = get_pe t pe in
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    match t.store.(id) with
    | Some r when has s id || (r.next_hop_pe = pe && exported_now t id) ->
      acc := r :: !acc
    | _ -> ()
  done;
  !acc

let rts_intersect a b =
  List.exists (fun x -> List.exists (rt_equal x) b) a

let import_ids t ~pe ~import_rts =
  fold_received (get_pe t pe)
    (fun id acc ->
       match t.store.(id) with
       | Some r when rts_intersect r.export_rts import_rts -> id :: acc
       | _ -> acc)
    []

let import t ~pe ~import_rts =
  List.filter_map (find_route t) (import_ids t ~pe ~import_rts)

let total_routes t =
  List.fold_left (fun acc s -> acc + Hashtbl.length s.exported) 0 t.pes

let store_size t = t.next_id

let messages_sent t = t.messages
