module Mpbgp = Mvpn_routing.Mpbgp
module Membership = Mvpn_core.Membership
module Site = Mvpn_core.Site
module Backbone = Mvpn_core.Backbone
module Prefix = Mvpn_net.Prefix

(* --- small sorted-collection helpers ------------------------------------ *)

let rm_sorted x l = List.filter (fun y -> y <> x) l

(* A sorted set of ints with spare room at the end: [ids_add] and
   [ids_remove] shift in place, so a churn op allocates only when a set
   outgrows its array (which then doubles). [a.(0 .. n - 1)] are the
   members. *)
type ids = { mutable a : int array; mutable n : int }

let ids_empty () = { a = [||]; n = 0 }

(* Room for at least one more member, as [ids_add] leaves it. *)
let ids_of_sorted src =
  let n = Array.length src in
  let cap = ref 4 in
  while !cap <= n do cap := 2 * !cap done;
  let a = Array.make !cap 0 in
  Array.blit src 0 a 0 n;
  { a; n }

(* Index of the first member [>= x] in [s]. *)
let ids_lower s x =
  let lo = ref 0 and hi = ref s.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let ids_mem s x =
  let i = ids_lower s x in
  i < s.n && s.a.(i) = x

(* Grows while the array still has the slot the insert takes, so a set
   is never left full: one that filled up in bulk (a 512-site customer's
   RT) does not regrow on its first churn op. *)
let ids_add s x =
  let i = ids_lower s x in
  if not (i < s.n && s.a.(i) = x) then begin
    if s.n + 1 >= Array.length s.a then begin
      let bigger = Array.make (max 4 (2 * Array.length s.a)) 0 in
      Array.blit s.a 0 bigger 0 s.n;
      s.a <- bigger
    end;
    Array.blit s.a i s.a (i + 1) (s.n - i);
    s.a.(i) <- x;
    s.n <- s.n + 1
  end

let ids_remove s x =
  let i = ids_lower s x in
  if i < s.n && s.a.(i) = x then begin
    Array.blit s.a (i + 1) s.a i (s.n - i - 1);
    s.n <- s.n - 1
  end

let ids_iter f s =
  for i = 0 to s.n - 1 do f s.a.(i) done

let ids_fold f s acc =
  let acc = ref acc in
  for i = 0 to s.n - 1 do acc := f !acc s.a.(i) done;
  !acc

let ids_to_list s = List.init s.n (fun i -> s.a.(i))

(* --- state -------------------------------------------------------------- *)

(* A group is one shared route table: all VRFs with the same import
   signature (same VPN, same role-derived RT imports) reference the same
   sorted id set. A group with a single import is that RT's own set in
   [rt_routes], physically: a route exported on the RT is in the group
   the moment it is in the index. *)
type group = {
  g_key : int;
  g_import : Mpbgp.rt list;
  g_pes : ids;  (* member VRF PEs *)
  mutable g_routes : ids;  (* interned route ids *)
}

type vrf = {
  v_pe : int;
  v_vpn : int;
  v_role : Service.role;
  v_rd : Mpbgp.rd;
  v_export : Mpbgp.rt list;
  v_group : group;
  v_locals : ids;  (* global site ids *)
}

type cust = {
  c_id : int;
  c_name : string;
  c_topology : Service.topology;
  mutable c_tier : Service.tier;
}

type t = {
  pe_count : int;
  pool : Service.Pool.t;
  membership : Membership.t;
  bgp : Mpbgp.t;
  customers : (int, cust) Hashtbl.t;
  vrfs : (int, vrf) Hashtbl.t;  (* vrf_key -> vrf *)
  groups : (int, group) Hashtbl.t;  (* group_key -> group *)
  rt_groups : (int, int list) Hashtbl.t;  (* rt_value -> importing groups *)
  rt_routes : (int, ids) Hashtbl.t;
      (* rt_value -> live route ids exporting it; kept when it empties,
         since single-import groups share it *)
  site_route : (int, int) Hashtbl.t;  (* gsid -> interned route id *)
  site_info : (int, Site.t * Service.role) Hashtbl.t;
  lsps : int array;  (* ingress * pe_count + egress -> refcount *)
  mutable phases : (string * float) list;  (* bulk compile CPU s, in order *)
}

let role_bit = function Service.Hub -> 1 | Service.Spoke -> 0

let group_key vpn role = (vpn lsl 1) lor role_bit role

let vrf_key pe vpn role = (group_key vpn role lsl 8) lor pe

let lsp_key ~ingress ~egress = (ingress lsl 8) lor egress

let pe_count t = t.pe_count
let membership t = t.membership
let mpbgp t = t.bgp

let find_customer t id =
  match Hashtbl.find t.customers id with
  | c -> c
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Compile: unknown customer %d" id)

let route_exn t id =
  match Mpbgp.find_route t.bgp id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Compile: dead route id %d" id)

let lsp_incr t ~ingress ~egress =
  let i = (ingress * t.pe_count) + egress in
  t.lsps.(i) <- t.lsps.(i) + 1

let lsp_decr t ~ingress ~egress =
  let i = (ingress * t.pe_count) + egress in
  match t.lsps.(i) with
  | 0 ->
    invalid_arg
      (Printf.sprintf "Compile: LSP refcount underflow %d->%d" ingress egress)
  | n -> t.lsps.(i) <- n - 1

(* Lookups on the churn path match [Not_found] rather than allocate an
   option per call. *)
let groups_importing t (rt : Mpbgp.rt) =
  match Hashtbl.find t.rt_groups rt.Mpbgp.rt_value with
  | gks -> gks
  | exception Not_found -> []

let exporting t (rt : Mpbgp.rt) =
  match Hashtbl.find t.rt_routes rt.Mpbgp.rt_value with
  | s -> s
  | exception Not_found ->
    let s = ids_empty () in
    Hashtbl.replace t.rt_routes rt.Mpbgp.rt_value s;
    s

(* A group's table is every live route exporting one of its imports;
   with a single import it is the RT's own set, shared. *)
let fill_group t g =
  g.g_routes <-
    (match g.g_import with
     | [rt] -> exporting t rt
     | rts ->
       ids_of_sorted
         (Array.of_list
            (List.sort_uniq Int.compare
               (List.concat_map (fun rt -> ids_to_list (exporting t rt)) rts))))

(* A new group starts from the routes already exported on its imports
   (a group re-created by an incremental add must see them). *)
let ensure_group t (c : cust) role =
  let k = group_key c.c_id role in
  match Hashtbl.find_opt t.groups k with
  | Some g -> g
  | None ->
    let imports =
      Service.import_rts t.pool ~topology:c.c_topology ~customer:c.c_id ~role
    in
    let g =
      { g_key = k; g_import = imports; g_pes = ids_empty ();
        g_routes = ids_empty () }
    in
    fill_group t g;
    Hashtbl.replace t.groups k g;
    List.iter
      (fun (rt : Mpbgp.rt) ->
         Hashtbl.replace t.rt_groups rt.Mpbgp.rt_value
           (k :: groups_importing t rt))
      imports;
    g

(* [wire] arms the LSP refcounts for the routes already in the group —
   the incremental path; the bulk compile passes [false] and fills LSPs
   in one sweep at the end. *)
let ensure_vrf t (c : cust) role pe ~wire =
  let k = vrf_key pe c.c_id role in
  match Hashtbl.find t.vrfs k with
  | v -> v
  | exception Not_found ->
    let g = ensure_group t c role in
    ids_add g.g_pes pe;
    let v =
      { v_pe = pe; v_vpn = c.c_id; v_role = role;
        v_rd = Service.Pool.rd t.pool ~customer:c.c_id;
        v_export =
          Service.export_rts t.pool ~topology:c.c_topology ~customer:c.c_id
            ~role;
        v_group = g; v_locals = ids_empty () }
    in
    Hashtbl.replace t.vrfs k v;
    if wire then
      ids_iter
        (fun id ->
           let r = route_exn t id in
           if r.Mpbgp.next_hop_pe <> pe then
             lsp_incr t ~ingress:pe ~egress:r.Mpbgp.next_hop_pe)
        g.g_routes;
    v

let rec add_exporter t id = function
  | [] -> ()
  | rt :: rest ->
    ids_add (exporting t rt) id;
    add_exporter t id rest

let rec remove_exporter t id = function
  | [] -> ()
  | rt :: rest ->
    ids_remove (exporting t rt) id;
    remove_exporter t id rest

(* Design a site into existence: VRF (created if first on this PE),
   route exported with the pool's RD/RTs and the pure-function label.
   Membership joining is the caller's business (bulk vs one-by-one). *)
let design_site t (c : cust) (spec : Service.site_spec) ~wire =
  let gsid = Service.global_site_id ~customer:c.c_id ~sid:spec.Service.sid in
  if Hashtbl.mem t.site_info gsid then
    invalid_arg
      (Printf.sprintf "Compile: site %d.%d already provisioned" c.c_id
         spec.Service.sid);
  let prefix = Service.site_prefix ~sid:spec.Service.sid in
  let site =
    Site.make ~id:gsid
      ~name:(Service.site_name ~customer:c.c_id ~sid:spec.Service.sid)
      ~vpn:c.c_id ~prefix ~ce_node:gsid ~pe_node:spec.Service.pe
  in
  let v = ensure_vrf t c spec.Service.role spec.Service.pe ~wire in
  let id =
    Mpbgp.export t.bgp
      { Mpbgp.rd = v.v_rd; prefix; next_hop_pe = spec.Service.pe;
        vpn_label = Service.vpn_label_of_site gsid; export_rts = v.v_export;
        site = gsid }
  in
  ids_add v.v_locals gsid;
  add_exporter t id v.v_export;
  Hashtbl.replace t.site_route gsid id;
  Hashtbl.replace t.site_info gsid (site, spec.Service.role);
  (site, id)

let create ?(mode = Mpbgp.Full_mesh) (p : Portfolio.t) =
  let n = p.Portfolio.pe_count in
  let t =
    { pe_count = n;
      pool = Service.Pool.create ();
      membership = Membership.create ~pe_count:n ();
      bgp = Mpbgp.create ~mode ();
      customers = Hashtbl.create 256;
      vrfs = Hashtbl.create 1024;
      groups = Hashtbl.create 512;
      rt_groups = Hashtbl.create 512;
      rt_routes = Hashtbl.create 512;
      site_route = Hashtbl.create 1024;
      site_info = Hashtbl.create 1024;
      lsps = Array.make (n * n) 0; phases = [] }
  in
  for pe = 0 to t.pe_count - 1 do Mpbgp.add_pe t.bgp pe done;
  Array.iter
    (fun (c : Service.customer) ->
       Hashtbl.replace t.customers c.Service.id
         { c_id = c.Service.id; c_name = c.Service.name;
           c_topology = c.Service.topology; c_tier = c.Service.tier })
    p.Portfolio.customers;
  t

let compile ?mode (p : Portfolio.t) =
  let clock = ref (Sys.time ()) in
  let phases = ref [] in
  let lap name =
    let now = Sys.time () in
    phases := (name, now -. !clock) :: !phases;
    clock := now
  in
  let t = create ?mode p in
  (* Design every site, then one membership batch and one propagation
     round — no per-site full scans anywhere in the bulk path. *)
  let sites = ref [] in
  Array.iter
    (fun (c : Service.customer) ->
       let cust = find_customer t c.Service.id in
       List.iter
         (fun spec ->
            let site, _ = design_site t cust spec ~wire:false in
            sites := site :: !sites)
         c.Service.sites)
    p.Portfolio.customers;
  lap "design";
  Membership.join_all t.membership (List.rev !sites);
  lap "membership";
  ignore (Mpbgp.run t.bgp);
  lap "mpbgp";
  (* Groups created early in the batch missed later routes: refill. *)
  Hashtbl.iter (fun _ g -> fill_group t g) t.groups;
  lap "refill";
  (* Transport LSPs: one refcount per (member VRF, remote route). *)
  Hashtbl.iter
    (fun _ g ->
       ids_iter
         (fun pe ->
            ids_iter
              (fun id ->
                 let r = route_exn t id in
                 if r.Mpbgp.next_hop_pe <> pe then
                   lsp_incr t ~ingress:pe ~egress:r.Mpbgp.next_hop_pe)
              g.g_routes)
         g.g_pes)
    t.groups;
  lap "lsp";
  t.phases <- List.rev !phases;
  t

let phases t = t.phases

(* --- incremental primitives --------------------------------------------- *)

(* The per-op loops are plain loops and recursion over explicit
   arguments, not closures: a churn op allocates only the state it
   adds. *)

let lsp_adjust t ~add ~egress pes =
  for i = 0 to pes.n - 1 do
    let pe = pes.a.(i) in
    if pe <> egress then
      if add then lsp_incr t ~ingress:pe ~egress
      else lsp_decr t ~ingress:pe ~egress
  done

(* Route [id] (next hop [egress]) enters ([add]) or leaves each group of
   [gks], the importers of an RT whose exporter set is [exporters];
   [touched] grows by the member VRFs of each group that changed. A
   group sharing the RT's set changes with it; any other group splices
   its own, once even if it imports two of the route's RTs. *)
let rec splice_groups t ~add exporters id ~egress touched = function
  | [] -> touched
  | gk :: rest ->
    let g = Hashtbl.find t.groups gk in
    let own = g.g_routes in
    let changed =
      own == exporters
      || (ids_mem own id <> add
          && ((if add then ids_add own id else ids_remove own id); true))
    in
    let touched =
      if changed then begin
        lsp_adjust t ~add ~egress g.g_pes;
        touched + g.g_pes.n
      end
      else touched
    in
    splice_groups t ~add exporters id ~egress touched rest

let rec splice_rts t ~add id ~egress touched = function
  | [] -> touched
  | rt :: rest ->
    let touched =
      splice_groups t ~add (exporting t rt) id ~egress touched
        (groups_importing t rt)
    in
    splice_rts t ~add id ~egress touched rest

let provision_site t ~customer ~sid ~pe =
  if pe < 0 || pe >= t.pe_count then
    invalid_arg (Printf.sprintf "Compile.provision_site: bad PE %d" pe);
  let c = find_customer t customer in
  let role = Service.default_role c.c_topology ~sid in
  let site, id = design_site t c { Service.sid; pe; role } ~wire:true in
  Membership.join t.membership site;
  ignore (Mpbgp.run t.bgp);
  let r = route_exn t id in
  splice_rts t ~add:true id ~egress:r.Mpbgp.next_hop_pe 1 r.Mpbgp.export_rts

let decommission_site t ~customer ~sid =
  let c = find_customer t customer in
  let gsid = Service.global_site_id ~customer ~sid in
  let site, role =
    match Hashtbl.find t.site_info gsid with
    | si -> si
    | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Compile.decommission_site: no site %d.%d" customer
           sid)
  in
  let id = Hashtbl.find t.site_route gsid in
  let r = route_exn t id in
  ignore (Membership.leave t.membership ~site_id:gsid);
  ignore (Mpbgp.withdraw t.bgp id);
  ignore (Mpbgp.run t.bgp);
  (* Prune the route from the RT index and every group that imported it,
     dropping the LSP references its readers held. *)
  let touched =
    splice_rts t ~add:false id ~egress:r.Mpbgp.next_hop_pe 1
      r.Mpbgp.export_rts
  in
  remove_exporter t id r.Mpbgp.export_rts;
  (* Shrink the VRF; tear it down when its last local site leaves, and
     the group when its last member VRF goes — a from-scratch compile
     of the shrunken portfolio would not have them. *)
  let vk = vrf_key site.Site.pe_node c.c_id role in
  let v = Hashtbl.find t.vrfs vk in
  ids_remove v.v_locals gsid;
  if v.v_locals.n = 0 then begin
    let g = v.v_group in
    ids_remove g.g_pes v.v_pe;
    ids_iter
      (fun id' ->
         let r' = route_exn t id' in
         if r'.Mpbgp.next_hop_pe <> v.v_pe then
           lsp_decr t ~ingress:v.v_pe ~egress:r'.Mpbgp.next_hop_pe)
      g.g_routes;
    Hashtbl.remove t.vrfs vk;
    if g.g_pes.n = 0 then begin
      Hashtbl.remove t.groups g.g_key;
      List.iter
        (fun (rt : Mpbgp.rt) ->
           match rm_sorted g.g_key (groups_importing t rt) with
           | [] -> Hashtbl.remove t.rt_groups rt.Mpbgp.rt_value
           | rest -> Hashtbl.replace t.rt_groups rt.Mpbgp.rt_value rest)
        g.g_import
    end
  end;
  Hashtbl.remove t.site_route gsid;
  Hashtbl.remove t.site_info gsid;
  touched

let retier t ~customer ~tier =
  (find_customer t customer).c_tier <- tier;
  1

(* --- reporting ---------------------------------------------------------- *)

type metrics = {
  customers : int;
  sites : int;
  vrfs : int;
  groups : int;
  routes : int;
  table_entries : int;
  shared_entries : int;
  lsps : int;
  control_messages : int;
  rds : int;
  rts : int;
  bands : int array;
}

(* Remote view size: group entries minus the ones this PE originated. *)
let remote_count t (v : vrf) =
  ids_fold
    (fun acc id ->
       if (route_exn t id).Mpbgp.next_hop_pe <> v.v_pe then acc + 1 else acc)
    v.v_group.g_routes 0

let metrics (t : t) =
  let table = ref 0 and shared_locals = ref 0 in
  Hashtbl.iter
    (fun _ v ->
       table := !table + v.v_locals.n + remote_count t v;
       shared_locals := !shared_locals + v.v_locals.n)
    t.vrfs;
  let shared_groups =
    Hashtbl.fold (fun _ g acc -> acc + g.g_routes.n) t.groups 0
  in
  let bands = Array.make Mvpn_core.Qos_mapping.band_count 0 in
  Hashtbl.iter
    (fun _ c ->
       let b = Service.band_of_tier c.c_tier in
       bands.(b) <- bands.(b) + 1)
    t.customers;
  { customers = Hashtbl.length t.customers;
    sites = Membership.site_count t.membership;
    vrfs = Hashtbl.length t.vrfs;
    groups = Hashtbl.length t.groups;
    routes = Mpbgp.total_routes t.bgp;
    table_entries = !table;
    shared_entries = shared_groups + !shared_locals;
    lsps =
      Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 t.lsps;
    control_messages = Membership.messages t.membership
                       + Mpbgp.messages_sent t.bgp;
    rds = Service.Pool.rds_allocated t.pool;
    rts = Service.Pool.rts_allocated t.pool;
    bands }

let per_pe (t : t) =
  let sites = Array.make t.pe_count 0 in
  let routes = Array.make t.pe_count 0 in
  Hashtbl.iter
    (fun _ v ->
       sites.(v.v_pe) <- sites.(v.v_pe) + v.v_locals.n;
       routes.(v.v_pe) <-
         routes.(v.v_pe) + v.v_locals.n + remote_count t v)
    t.vrfs;
  Array.init t.pe_count (fun pe -> (sites.(pe), routes.(pe)))

let qos_policy t ~customer =
  let c = find_customer t customer in
  (Service.band_of_tier c.c_tier, Service.objective_of_tier c.c_tier)

let vrf_locals (t : t) ~pe ~customer ~role =
  match Hashtbl.find_opt t.vrfs (vrf_key pe customer role) with
  | Some v -> ids_to_list v.v_locals
  | None -> []

let vrf_table (t : t) ~pe ~customer ~role =
  match Hashtbl.find_opt t.vrfs (vrf_key pe customer role) with
  | None -> []
  | Some v ->
    ids_fold
      (fun acc id ->
         let r = route_exn t id in
         if r.Mpbgp.next_hop_pe <> pe then r :: acc else acc)
      v.v_group.g_routes []
    |> List.rev

(* Canonical by content, never by intern id or insertion order: an
   incremental history and a from-scratch compile of the same design
   must digest identically. *)
let fingerprint (t : t) =
  let b = Buffer.create 65536 in
  let sorted_by f tbl =
    List.sort (fun a b -> compare (f a) (f b))
      (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  in
  List.iter
    (fun c ->
       Printf.bprintf b "C%d:%s:%s:%s;" c.c_id c.c_name
         (Service.topology_name c.c_topology)
         (Service.tier_name c.c_tier))
    (sorted_by (fun c -> c.c_id) t.customers);
  (* One canonical entry array per group, shared by its member VRFs. *)
  let canon = Hashtbl.create 64 in
  let group_entries (g : group) =
    match Hashtbl.find_opt canon g.g_key with
    | Some e -> e
    | None ->
      let e =
        Array.map
          (fun id ->
             let r = route_exn t id in
             ( r.Mpbgp.next_hop_pe,
               Printf.sprintf "%s|%s|%d|%d"
                 (Mpbgp.rd_to_string r.Mpbgp.rd)
                 (Prefix.to_string r.Mpbgp.prefix)
                 r.Mpbgp.next_hop_pe r.Mpbgp.vpn_label ))
          (Array.sub g.g_routes.a 0 g.g_routes.n)
      in
      Array.sort (fun (_, x) (_, y) -> String.compare x y) e;
      Hashtbl.replace canon g.g_key e;
      e
  in
  let rt_values rts =
    String.concat ","
      (List.map string_of_int
         (List.sort Int.compare
            (List.map (fun (rt : Mpbgp.rt) -> rt.Mpbgp.rt_value) rts)))
  in
  List.iter
    (fun v ->
       Printf.bprintf b "V%d.%d.%s@%d:%s:e[%s]:i[%s]:l[%s];" v.v_vpn
         (role_bit v.v_role)
         (Service.role_name v.v_role)
         v.v_pe
         (Mpbgp.rd_to_string v.v_rd)
         (rt_values v.v_export)
         (rt_values v.v_group.g_import)
         (String.concat "," (List.map string_of_int (ids_to_list v.v_locals)));
       Array.iter
         (fun (nh, s) ->
            if nh <> v.v_pe then begin
              Buffer.add_string b s;
              Buffer.add_char b ';'
            end)
         (group_entries v.v_group))
    (sorted_by (fun v -> vrf_key v.v_pe v.v_vpn v.v_role) t.vrfs);
  (* Row-major over (ingress, egress) is ascending key order: egress <
     256 fits the key's low byte. *)
  Array.iteri
    (fun i n ->
       if n > 0 then
         Printf.bprintf b "L%d:%d;"
           (lsp_key ~ingress:(i / t.pe_count) ~egress:(i mod t.pe_count))
           n)
    t.lsps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let equal a b = String.equal (fingerprint a) (fingerprint b)

(* --- materialization ---------------------------------------------------- *)

type deployment = {
  backbone : Mvpn_core.Backbone.t;
  engine : Mvpn_sim.Engine.t;
  network : Mvpn_core.Network.t;
  mpls : Mvpn_core.Mpls_vpn.t;
}

let materialize ?(policy = Mvpn_core.Qos_mapping.Best_effort)
    (p : Portfolio.t) =
  let backbone = Backbone.build ~pops:p.Portfolio.pe_count () in
  let sites =
    Array.to_list p.Portfolio.customers
    |> List.concat_map (fun (c : Service.customer) ->
        List.map
          (fun (spec : Service.site_spec) ->
             Backbone.attach_site backbone
               ~id:
                 (Service.global_site_id ~customer:c.Service.id
                    ~sid:spec.Service.sid)
               ~name:
                 (Service.site_name ~customer:c.Service.id
                    ~sid:spec.Service.sid)
               ~vpn:c.Service.id
               ~prefix:(Service.site_prefix ~sid:spec.Service.sid)
               ~pop:spec.Service.pe)
          c.Service.sites)
  in
  let engine = Mvpn_sim.Engine.create () in
  let network =
    Mvpn_core.Network.create ~policy engine (Backbone.topology backbone)
  in
  let mpls =
    Mvpn_core.Mpls_vpn.deploy ~net:network ~backbone ~sites ()
  in
  { backbone; engine; network; mpls }
