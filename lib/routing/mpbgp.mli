(** MP-BGP VPNv4: the route-distribution plane of RFC 2547 VPNs.

    PE routers exchange VPN-IPv4 routes — a customer prefix made
    globally unique by an 8-byte route distinguisher — with a VPN label
    piggybacked on each route (the paper's "piggybacking labels in the
    routing protocol updates", §4). Export/import is governed by route
    targets: a PE exports a site's routes tagged with the VPN's RT and
    imports into a VRF only routes carrying an RT the VRF lists. This is
    what lets one routing system serve many VPNs whose private address
    spaces overlap.

    Sessions are either a full iBGP mesh among the PEs or a route
    reflector — the state-growth knob of experiment E1/E3. Either way a
    route reaches every PE but its origin, one UPDATE per receiver.

    Internally every route record is interned once in a shared store
    and all tables (the owner's exports, each remote PE's Adj-RIB-In,
    any VRF groups built on top by {!Mvpn_provision}) hold only integer
    ids — at provisioning scale (E19: 10k VPNs, 100k+ routes) this is
    what keeps per-PE memory a constant factor of the route count. Ids
    are dense ([0 .. store_size)), so each Adj-RIB-In is a bitset over
    them — one bit per interned id per PE — and the dirty journal is
    one tag byte per id plus a stack of the ids tagged since the last
    {!run}. Propagation is incremental: {!run} touches only journaled
    routes (plus any PE added since the last run, which is back-filled
    by one scan of the store), never the full table. *)

type rd = { rd_asn : int; rd_assigned : int }
(** Route distinguisher [asn:assigned]. *)

type rt = { rt_asn : int; rt_value : int }
(** Route target extended community. *)

val rd_to_string : rd -> string
val rt_to_string : rt -> string
val rt_equal : rt -> rt -> bool

type vpnv4_route = {
  rd : rd;
  prefix : Mvpn_net.Prefix.t;
  next_hop_pe : int;  (** egress PE node id *)
  vpn_label : int;  (** inner label the egress PE allocated *)
  export_rts : rt list;
  site : int;  (** originating site id, for diagnostics *)
}

type session_mode =
  | Full_mesh
  | Route_reflector of int  (** the reflecting PE *)

type t

val create : ?mode:session_mode -> unit -> t

val add_pe : t -> int -> unit
(** Register a PE by node id.
    @raise Invalid_argument on duplicates. *)

val pe_count : t -> int

val session_count : t -> int
(** Number of BGP sessions the mode implies for the current PEs. *)

val export_route : t -> vpnv4_route -> unit
(** The egress PE announces a customer route. Replaces any previous
    announcement with the same (RD, prefix, PE). *)

val export : t -> vpnv4_route -> int
(** Like {!export_route} but returns the interned route id — stable for
    the announcement's lifetime, reusable as a compact handle in
    share-by-reference tables ({!find_route} resolves it back).
    Re-exporting the same (RD, prefix, PE) with new content patches the
    shared record in place and returns the same id. *)

val find_route : t -> int -> vpnv4_route option
(** Resolve an interned id; [None] once the announcement has been
    withdrawn and flushed by {!run} (or if the id was never issued). *)

val iter_exported : t -> (int -> vpnv4_route -> unit) -> unit
(** Every live announcement in the system with its interned id, in
    ascending id order. *)

val withdraw : t -> int -> bool
(** Withdraw one announcement by its interned id (as returned by
    {!export}). O(1): the owner's export key is recomputed from the
    interned record, so no table is scanned. The retraction is
    journaled for the next {!run}, which sends one withdrawal per PE
    that received the route; a route withdrawn before any {!run} saw it
    is freed on the spot and costs no message. [false] if the id is not
    a live announcement (never allocated, or already withdrawn). *)

val withdraw_site : t -> pe:int -> site:int -> int
(** Withdraw every route a PE exported for a site (a site leaving the
    VPN) through {!withdraw}; returns how many were withdrawn. Scans
    the PE's exports — when the route id is at hand, {!withdraw} is
    the O(1) path. *)

val run : t -> int
(** Propagate announcements/withdrawals to every PE; returns the number
    of UPDATE messages sent (full mesh: one per route per remote PE;
    route reflector: to the RR then reflected). Incremental: only
    routes dirtied since the last call are touched, so a no-op call
    returns 0 and a single-site change costs O(PEs), not O(routes). *)

val routes_at : t -> int -> vpnv4_route list
(** All VPNv4 routes a PE has received (plus its own exports), in
    ascending id order. An O(store) scan. *)

val import : t -> pe:int -> import_rts:rt list -> vpnv4_route list
(** The routes a VRF with the given import list would install at a PE:
    received routes whose export RTs intersect [import_rts]. Routes the
    PE itself exported are excluded (a VRF already holds its local
    routes). Ascending id order; an O(store) scan of the PE's bitset
    that skips empty bytes. *)

val import_ids : t -> pe:int -> import_rts:rt list -> int list
(** {!import}, but as interned ids — what a compact VRF table stores.
    Ascending, by the same scan. *)

val total_routes : t -> int
(** Distinct (RD, prefix, PE) announcements in the system. *)

val store_size : t -> int
(** Interned-store slots ever allocated (live + tombstoned) — a
    diagnostic for the churn bound of the share-by-id scheme. *)

val messages_sent : t -> int
(** Cumulative UPDATEs across {!run} calls. *)
