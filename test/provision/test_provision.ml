open Mvpn_provision
module Mpbgp = Mvpn_routing.Mpbgp
module Membership = Mvpn_core.Membership
module Mpls_vpn = Mvpn_core.Mpls_vpn

let gsid ~customer ~sid = Service.global_site_id ~customer ~sid

let site sid pe role = { Service.sid; pe; role }

let cust id topology tier sites =
  { Service.id; name = Printf.sprintf "c%d" id; topology; tier; sites }

let table_sites t ~pe ~customer ~role =
  List.sort compare
    (List.map
       (fun (r : Mpbgp.vpnv4_route) -> r.Mpbgp.site)
       (Compile.vrf_table t ~pe ~customer ~role))

(* --- Service.Pool -------------------------------------------------------- *)

let test_pool_idempotent_and_distinct () =
  let p = Service.Pool.create () in
  let rd1 = Service.Pool.rd p ~customer:1 in
  Alcotest.(check bool) "rd memoized" true (rd1 = Service.Pool.rd p ~customer:1);
  let rts =
    [ Service.Pool.rt_any p ~customer:1; Service.Pool.rt_hub p ~customer:1;
      Service.Pool.rt_spoke p ~customer:1; Service.Pool.rt_any p ~customer:2;
      Service.Pool.rt_extranet p ~group:3 ]
  in
  let values =
    List.sort_uniq compare (List.map (fun r -> r.Mpbgp.rt_value) rts)
  in
  Alcotest.(check int) "all RT values distinct" (List.length rts)
    (List.length values);
  Alcotest.(check bool) "extranet RT shared" true
    (Service.Pool.rt_extranet p ~group:3
     = Service.Pool.rt_extranet p ~group:3);
  Alcotest.(check int) "rd ledger" 1 (Service.Pool.rds_allocated p);
  Alcotest.(check int) "rt ledger" 5 (Service.Pool.rts_allocated p)

let test_pure_identifiers () =
  let g = gsid ~customer:3 ~sid:7 in
  Alcotest.(check int) "global site id" ((3 lsl 16) lor 7) g;
  Alcotest.(check int) "label is a pure function" (16 + g)
    (Service.vpn_label_of_site g)

(* The prefix is built from octets; pin it to the dotted-quad string it
   was once parsed from. *)
let test_site_prefix () =
  List.iter
    (fun sid ->
       Alcotest.(check string)
         (Printf.sprintf "sid %d" sid)
         (Printf.sprintf "10.%d.%d.0/24" (sid lsr 8) (sid land 0xff))
         (Mvpn_net.Prefix.to_string (Service.site_prefix ~sid));
       Alcotest.(check bool)
         (Printf.sprintf "sid %d equals the parsed prefix" sid)
         true
         (Service.site_prefix ~sid
          = Mvpn_net.Prefix.of_string_exn
              (Printf.sprintf "10.%d.%d.0/24" (sid lsr 8) (sid land 0xff))))
    [ 0; 1; 255; 256; 0x1234; 0xffff ];
  List.iter
    (fun sid ->
       match Service.site_prefix ~sid with
       | _ -> Alcotest.failf "sid %d accepted" sid
       | exception Invalid_argument _ -> ())
    [ -1; 0x10000 ]

(* --- generator determinism (Rng.split substream hygiene) ----------------- *)

let test_generator_order_independence () =
  let p = Portfolio.generate ~pe_count:8 ~seed:42 ~customers:20 () in
  (* Regenerating each customer alone, in reverse order, must reproduce
     the portfolio byte for byte: customer [id] depends only on
     (seed, id), never on who was generated before it. *)
  List.iter
    (fun id ->
       let c =
         Portfolio.generate_customer ~pe_count:8 ~seed:42 ~id ()
       in
       Alcotest.(check bool)
         (Printf.sprintf "customer %d reproducible out of order" id)
         true
         (c = p.Portfolio.customers.(id - 1)))
    (List.rev (List.init 20 (fun i -> i + 1)));
  let p' = Portfolio.generate ~pe_count:8 ~seed:42 ~customers:20 () in
  Alcotest.(check bool) "portfolio replay identical" true
    (p.Portfolio.customers = p'.Portfolio.customers)

let test_churn_replay_deterministic () =
  let p = Portfolio.generate ~pe_count:6 ~seed:7 ~customers:12 () in
  let ops1 = Portfolio.churn p ~seed:99 ~ops:40 in
  let ops2 = Portfolio.churn p ~seed:99 ~ops:40 in
  Alcotest.(check bool) "same ops" true (ops1 = ops2);
  let ops3 = Portfolio.churn p ~seed:100 ~ops:40 in
  Alcotest.(check bool) "different seed diverges" true (ops1 <> ops3)

(* --- topology-class semantics -------------------------------------------- *)

let test_hub_spoke_tables () =
  let c =
    cust 1 Service.Hub_spoke Service.Gold
      [ site 0 0 Service.Hub; site 1 1 Service.Spoke; site 2 2 Service.Spoke;
        site 3 1 Service.Spoke ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 [ c ] in
  let t = Compile.compile p in
  let hub = gsid ~customer:1 ~sid:0 in
  (* Spokes see only the hub; spoke-to-spoke reachability must transit
     it. The hub sees every spoke. *)
  Alcotest.(check (list int)) "spoke VRF on pe1" [ hub ]
    (table_sites t ~pe:1 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "spoke VRF on pe2" [ hub ]
    (table_sites t ~pe:2 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "hub VRF sees all spokes"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:1 ~sid:2;
      gsid ~customer:1 ~sid:3 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Hub)

let test_any_to_any_tables () =
  let c =
    cust 1 Service.Any_to_any Service.Silver
      [ site 0 0 Service.Spoke; site 1 1 Service.Spoke;
        site 2 2 Service.Spoke ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 [ c ] in
  let t = Compile.compile p in
  (* Every VRF sees every remote site of its own VPN — and not its own
     locals, whose next hop is the VRF's PE. *)
  Alcotest.(check (list int)) "pe0 sees 1 and 2"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:1 ~sid:2 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "pe2 sees 0 and 1"
    [ gsid ~customer:1 ~sid:0; gsid ~customer:1 ~sid:1 ]
    (table_sites t ~pe:2 ~customer:1 ~role:Service.Spoke)

let test_extranet_cross_customer_visibility () =
  let partners g =
    [ cust 1 (Service.Extranet g) Service.Gold
        [ site 0 0 Service.Spoke; site 1 1 Service.Spoke ];
      cust 2 (Service.Extranet g) Service.Bronze [ site 0 2 Service.Spoke ];
      cust 3 Service.Any_to_any Service.Silver
        [ site 0 0 Service.Spoke; site 1 2 Service.Spoke ] ]
  in
  let p = Portfolio.of_customers ~pe_count:3 ~seed:0 (partners 5) in
  let t = Compile.compile p in
  (* Extranet partners reach each other across customer boundaries... *)
  Alcotest.(check (list int)) "c1 pe0 sees its own remote and c2"
    [ gsid ~customer:1 ~sid:1; gsid ~customer:2 ~sid:0 ]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check (list int)) "c2 sees both c1 sites"
    [ gsid ~customer:1 ~sid:0; gsid ~customer:1 ~sid:1 ]
    (table_sites t ~pe:2 ~customer:2 ~role:Service.Spoke);
  (* ...while the plain any-to-any bystander is isolated from them. *)
  Alcotest.(check (list int)) "c3 sees only c3"
    [ gsid ~customer:3 ~sid:1 ]
    (table_sites t ~pe:0 ~customer:3 ~role:Service.Spoke)

let test_qos_policy_follows_tier () =
  let p =
    Portfolio.of_customers ~pe_count:2 ~seed:0
      [ cust 1 Service.Any_to_any Service.Gold [ site 0 0 Service.Spoke ];
        cust 2 Service.Any_to_any Service.Bronze [ site 0 1 Service.Spoke ] ]
  in
  let t = Compile.compile p in
  let band c = fst (Compile.qos_policy t ~customer:c) in
  Alcotest.(check int) "gold rides band 0" 0 (band 1);
  Alcotest.(check int) "bronze rides band 2" 2 (band 2);
  ignore (Delta.apply t (Portfolio.Change_tier { customer = 2; tier = Service.Gold }));
  Alcotest.(check int) "retier flips the band" 0 (band 2)

(* --- incremental vs oracle ----------------------------------------------- *)

let test_delta_converges_to_oracle () =
  let p = Portfolio.generate ~pe_count:6 ~seed:21 ~customers:40 () in
  let t = Compile.compile p in
  let ops = Portfolio.churn p ~seed:22 ~ops:60 in
  let st = Delta.apply_all t ops in
  Alcotest.(check int) "op count" 60 st.Delta.ops;
  let oracle = Delta.oracle p ops in
  Alcotest.(check bool) "fingerprints converge" true (Delta.validate t oracle);
  Alcotest.(check string) "fingerprint is the canonical digest"
    (Compile.fingerprint oracle) (Compile.fingerprint t)

let test_delta_converges_under_route_reflector () =
  let p = Portfolio.generate ~pe_count:5 ~seed:31 ~customers:25 () in
  let mode = Mpbgp.Route_reflector 0 in
  let t = Compile.compile ~mode p in
  let ops = Portfolio.churn p ~seed:32 ~ops:40 in
  ignore (Delta.apply_all t ops);
  Alcotest.(check bool) "RR mode converges too" true
    (Delta.validate t (Delta.oracle ~mode p ops))

(* A group torn down with its last VRF and re-created by a later add
   must be back-filled with the routes already exported on its imports:
   here the spoke group loses its only member, and the next spoke must
   still see the hub. *)
let test_delta_recreated_group_backfills () =
  let p =
    Portfolio.of_customers ~pe_count:4 ~seed:0
      [ cust 1 Service.Hub_spoke Service.Silver
          [ site 0 2 Service.Hub; site 1 1 Service.Spoke ] ]
  in
  let t = Compile.compile p in
  let ops =
    [ Portfolio.Remove_site { customer = 1; sid = 1 };
      Portfolio.Add_site { customer = 1; sid = 1; pe = 0 } ]
  in
  ignore (Delta.apply_all t ops);
  Alcotest.(check (list int)) "new spoke sees the hub"
    [gsid ~customer:1 ~sid:0]
    (table_sites t ~pe:0 ~customer:1 ~role:Service.Spoke);
  Alcotest.(check bool) "matches the oracle" true
    (Delta.validate t (Delta.oracle p ops))

(* Removal pays for the sites it touches, not for the portfolio: the
   same small VPN's site leaves a 200- and a 2,000-customer portfolio
   for about the same allocation (minor words are deterministic, unlike
   a clock). A whole-membership walk would scale the bill ~10x. *)
let test_remove_cost_independent_of_portfolio () =
  let remove_words customers =
    let p = Portfolio.generate ~seed:5 ~customers () in
    let t = Compile.compile p in
    (* Customers are drawn per id, so the smallest of the first 200 is
       the same VPN at both scales. *)
    let small =
      List.fold_left
        (fun (best : Service.customer) id ->
           let c = Portfolio.customer p id in
           if List.length c.Service.sites < List.length best.Service.sites
           then c else best)
        (Portfolio.customer p 1) (List.init 200 (fun i -> i + 1))
    in
    let op =
      Portfolio.Remove_site
        { customer = small.Service.id;
          sid = (List.hd small.Service.sites).Service.sid }
    in
    let w0 = Gc.minor_words () in
    ignore (Delta.apply t op);
    Gc.minor_words () -. w0
  in
  let w_small = remove_words 200 and w_big = remove_words 2000 in
  if w_big > 2.0 *. w_small then
    Alcotest.failf
      "removal allocates %.0f words at 2000 customers vs %.0f at 200" w_big
      w_small

(* A site spliced in and out allocates the records it adds, never a
   copy of its customer's tables: the same two ops on the biggest and
   the smallest of 1,000 customers allocate alike (words counted minor
   and major, since a large copy goes straight to the major heap). *)
let test_site_ops_allocation_independent_of_customer_size () =
  let p = Portfolio.generate ~seed:5 ~customers:1000 () in
  let t = Compile.compile p in
  (* The new site lands on a PE where its role's VRF exists, so neither
     op creates or tears down a VRF. *)
  let slot (c : Service.customer) =
    let sid =
      1 + List.fold_left (fun m s -> max m s.Service.sid) 0 c.Service.sites
    in
    let role = Service.default_role c.Service.topology ~sid in
    List.find_opt (fun s -> s.Service.role = role) c.Service.sites
    |> Option.map (fun s -> (c, sid, s.Service.pe))
  in
  let slots =
    List.filter_map
      (fun id -> slot (Portfolio.customer p id))
      (List.init 1000 (fun i -> i + 1))
  in
  let size ((c : Service.customer), _, _) = List.length c.Service.sites in
  let pick better =
    List.fold_left
      (fun best x -> if better (size x) (size best) then x else best)
      (List.hd slots) slots
  in
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let words ((c : Service.customer), sid, pe) =
    let customer = c.Service.id in
    let w0 = allocated () in
    ignore (Delta.apply t (Portfolio.Add_site { customer; sid; pe }));
    ignore (Delta.apply t (Portfolio.Remove_site { customer; sid }));
    allocated () -. w0
  in
  let big = pick ( > ) and small = pick ( < ) in
  Alcotest.(check bool) "sizes differ" true (size big >= 20 * size small);
  let w_big = words big and w_small = words small in
  if w_big > 2.0 *. w_small then
    Alcotest.failf
      "add+remove allocates %.0f words on a %d-site customer vs %.0f on a \
       %d-site one"
      w_big (size big) w_small (size small)

let prop_random_interleavings_converge =
  QCheck.Test.make ~name:"random delta interleavings converge to the oracle"
    ~count:40
    QCheck.(triple (int_range 1 8) (int_range 0 25) small_int)
    (fun (customers, ops, seed) ->
       let p =
         Portfolio.generate ~dist:Portfolio.Uniform ~pe_count:4 ~seed
           ~customers ()
       in
       let t = Compile.compile p in
       let ops = Portfolio.churn p ~seed:(seed + 1000) ~ops in
       ignore (Delta.apply_all t ops);
       Delta.validate t (Delta.oracle p ops))

(* --- state accounting ----------------------------------------------------- *)

let test_metrics_accounting () =
  let p = Portfolio.generate ~pe_count:6 ~seed:4 ~customers:30 () in
  let t = Compile.compile p in
  let m = Compile.metrics t in
  Alcotest.(check int) "one route per site" m.Compile.sites m.Compile.routes;
  Alcotest.(check int) "per-PE sites sum to the portfolio"
    m.Compile.sites
    (Array.fold_left (fun a (s, _) -> a + s) 0 (Compile.per_pe t));
  Alcotest.(check bool) "sharing never exceeds the logical view" true
    (m.Compile.shared_entries <= m.Compile.table_entries);
  Alcotest.(check int) "customers per band sum up"
    m.Compile.customers
    (Array.fold_left ( + ) 0 m.Compile.bands);
  Alcotest.(check (list string)) "compile phases in order"
    [ "design"; "membership"; "mpbgp"; "refill"; "lsp" ]
    (List.map fst (Compile.phases t));
  Alcotest.(check bool) "phase times are CPU seconds" true
    (List.for_all (fun (_, s) -> s >= 0.0) (Compile.phases t))

let test_materialize_agrees_with_compile () =
  (* Mpls_vpn provisions one any-to-any RT per VPN, so the deployable
     reference and the design compiler must count the same state on an
     any-to-any-only portfolio. *)
  let customers =
    List.init 5 (fun i ->
        cust (i + 1) Service.Any_to_any Service.Silver
          (List.init (2 + i) (fun sid -> site sid (sid mod 4) Service.Spoke)))
  in
  let p = Portfolio.of_customers ~pe_count:4 ~seed:0 customers in
  let t = Compile.compile p in
  let m = Compile.metrics t in
  let d = Compile.materialize p in
  let dm = Mpls_vpn.metrics d.Compile.mpls in
  Alcotest.(check int) "same sites" m.Compile.sites dm.Mpls_vpn.sites;
  Alcotest.(check int) "same VPNv4 announcements" m.Compile.routes
    dm.Mpls_vpn.vpnv4_routes;
  Alcotest.(check int) "same VRF count" m.Compile.vrfs dm.Mpls_vpn.vrf_count

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "provision"
    [ ("service",
       [ Alcotest.test_case "pool idempotent, distinct" `Quick
           test_pool_idempotent_and_distinct;
         Alcotest.test_case "pure identifiers" `Quick test_pure_identifiers;
         Alcotest.test_case "site prefix pinned" `Quick test_site_prefix ]);
      ("portfolio",
       [ Alcotest.test_case "generator order independence" `Quick
           test_generator_order_independence;
         Alcotest.test_case "churn replay deterministic" `Quick
           test_churn_replay_deterministic ]);
      ("compile",
       [ Alcotest.test_case "hub-spoke tables" `Quick test_hub_spoke_tables;
         Alcotest.test_case "any-to-any tables" `Quick
           test_any_to_any_tables;
         Alcotest.test_case "extranet visibility" `Quick
           test_extranet_cross_customer_visibility;
         Alcotest.test_case "qos policy follows tier" `Quick
           test_qos_policy_follows_tier;
         Alcotest.test_case "metrics accounting" `Quick
           test_metrics_accounting;
         Alcotest.test_case "materialize agreement" `Quick
           test_materialize_agrees_with_compile ]);
      ("delta",
       [ Alcotest.test_case "converges to oracle" `Quick
           test_delta_converges_to_oracle;
         Alcotest.test_case "converges under RR" `Quick
           test_delta_converges_under_route_reflector;
         Alcotest.test_case "re-created group back-fills" `Quick
           test_delta_recreated_group_backfills;
         Alcotest.test_case "remove cost independent of portfolio size"
           `Quick test_remove_cost_independent_of_portfolio;
         Alcotest.test_case "site ops allocation independent of customer size"
           `Quick test_site_ops_allocation_independent_of_customer_size;
         qt prop_random_interleavings_converge ]) ]
