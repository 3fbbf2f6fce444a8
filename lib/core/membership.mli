(** VPN membership and discovery (§4.1).

    "Members can join and leave the VPN service network and those
    changes need to be known by all remaining members. [...] The
    discovery of membership in one VPN must not allow members of other
    VPNs to be discovered."

    The registry tracks which sites belong to which VPN and models the
    two discovery mechanisms the paper lists, differing in control
    traffic: [Directory] (client–server: a join costs one registration
    plus one notification per existing member) and [Flooded]
    (piggybacked on routing: a join is advertised to every PE in the
    provider network regardless of VPN — cheaper to run, noisier). *)

type mechanism = Directory | Flooded

type t

val create : ?mechanism:mechanism -> pe_count:int -> unit -> t

val join : t -> Site.t -> unit
(** O(1). @raise Invalid_argument if the site id is already a member. *)

val join_all : t -> Site.t list -> unit
(** Bulk join for mass provisioning, in list order. The notification
    bill is identical to joining one at a time ([messages] grows by
    exactly the per-join sum — pinned by a regression test), but the
    batch is validated up front and rejected atomically: on any
    duplicate — against existing members or within the batch — no site
    has joined.
    @raise Invalid_argument on the first duplicate site id. *)

val leave : t -> site_id:int -> bool
(** [false] if the site was not a member. O(1) hashtable work whatever
    the number of members; the notification bill is the join's mirror
    ([Directory]: one deregistration plus one per remaining member of
    the VPN; [Flooded]: one per PE). *)

val members : t -> vpn:int -> Site.t list
(** Sites of one VPN, in join order (a site that leaves and rejoins
    moves to the end). O(members · log) — rebuilt from join ranks on
    each call, so it is for tests and small-scale discovery, not the
    churn path. *)

val discover : t -> asking:Site.t -> Site.t list
(** What a member may learn: its own VPN's other members, in join
    order, never anyone else's (the isolation property, enforced by
    construction and verified by tests). Same cost as {!members}. *)

val vpn_ids : t -> int list

val site_count : t -> int

val messages : t -> int
(** Cumulative discovery/notification messages — the E3 metric. *)

val pe_attachment_count : t -> pe:int -> int
(** Number of member sites attached at one PE — per-PE provisioning
    state. *)
