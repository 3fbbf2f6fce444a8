type mechanism = Directory | Flooded

type t = {
  mechanism : mechanism;
  pe_count : int;
  by_id : (int, int * Site.t) Hashtbl.t;  (* id -> join rank, site *)
  mutable next_rank : int;
  vpn_sizes : (int, int) Hashtbl.t;  (* vpn -> live member count *)
  pe_sizes : (int, int) Hashtbl.t;  (* pe -> attached member count *)
  mutable messages : int;
}

let create ?(mechanism = Directory) ~pe_count () =
  { mechanism; pe_count; by_id = Hashtbl.create 64; next_rank = 0;
    vpn_sizes = Hashtbl.create 16; pe_sizes = Hashtbl.create 16;
    messages = 0 }

let size tbl k =
  match Hashtbl.find tbl k with n -> n | exception Not_found -> 0

let bump tbl k d =
  let n = size tbl k + d in
  if n <= 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k n

(* Join order is rebuilt from the unique ranks; no list for [leave] to walk. *)
let members t ~vpn =
  Hashtbl.fold (fun _ m acc -> if (snd m).Site.vpn = vpn then m :: acc else acc)
    t.by_id []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b) |> List.map snd

(* Join and leave are O(1): dup check, notification cost and the per-PE
   attachment count all come from the index tables, never from a walk
   of the members — mass provisioning (100k+ sites, E19) joins in
   linear total time, and churn at that scale pays per site touched. *)
let join_one t (site : Site.t) =
  let cost =
    match t.mechanism with
    | Directory ->
      (* Register with the server, then notify each existing member of
         the same VPN. *)
      1 + size t.vpn_sizes site.Site.vpn
    | Flooded ->
      (* Advertised to every PE in the provider network. *)
      t.pe_count
  in
  t.messages <- t.messages + cost;
  Hashtbl.replace t.by_id site.Site.id (t.next_rank, site);
  t.next_rank <- t.next_rank + 1;
  bump t.vpn_sizes site.Site.vpn 1;
  bump t.pe_sizes site.Site.pe_node 1

let duplicate id =
  invalid_arg (Printf.sprintf "Membership.join: site %d already a member" id)

let reject_member t (site : Site.t) =
  if Hashtbl.mem t.by_id site.Site.id then duplicate site.Site.id

let join t site =
  reject_member t site;
  join_one t site

let join_all t sites =
  (* Validate the whole batch before touching any state, so a bad batch
     is rejected atomically — including duplicates within the batch. *)
  let seen = Hashtbl.create (List.length sites) in
  List.iter
    (fun (site : Site.t) ->
       reject_member t site;
       if Hashtbl.mem seen site.Site.id then duplicate site.Site.id;
       Hashtbl.replace seen site.Site.id ())
    sites;
  List.iter (join_one t) sites

let leave t ~site_id =
  match Hashtbl.find_opt t.by_id site_id with
  | None -> false
  | Some (_, site) ->
    Hashtbl.remove t.by_id site_id;
    bump t.vpn_sizes site.Site.vpn (-1);
    bump t.pe_sizes site.Site.pe_node (-1);
    let cost =
      match t.mechanism with
      | Directory -> 1 + size t.vpn_sizes site.Site.vpn
      | Flooded -> t.pe_count
    in
    t.messages <- t.messages + cost;
    true

let discover t ~asking =
  t.messages <- t.messages + 1;
  List.filter
    (fun (s : Site.t) -> s.Site.id <> asking.Site.id)
    (members t ~vpn:asking.Site.vpn)

let vpn_ids t =
  List.sort Int.compare
    (Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.vpn_sizes [])

let site_count t = Hashtbl.length t.by_id

let messages t = t.messages

let pe_attachment_count t ~pe = size t.pe_sizes pe
