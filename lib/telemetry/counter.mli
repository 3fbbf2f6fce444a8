(** Monotonic event counter. Mutation is a no-op while {!Control} is
    disabled.

    Domain-safe: the handle is shared, but the count lives in
    domain-local storage, so domains bump private partials and never
    lose increments. [value]/[reset] act on the calling domain's
    partial; partials are combined with [Registry.snapshot] (taken in
    the owning domain) + [Registry.absorb] (counters add). *)

type t

val make : string -> t
(** Bare counter; {!Registry.counter} is the usual entry point. *)

val name : t -> string

val incr : t -> unit

val add : t -> int -> unit
(** [add t n] bumps by [n] (e.g. bytes forwarded). *)

val set : t -> int -> unit
(** [set t n] overwrites the count — for counters mirroring an
    always-on authoritative source whose whole value belongs to the
    counter (e.g. FRR's protected-link census), so the exported value
    cannot drift from the source when telemetry is toggled mid-run. *)

val value : t -> int

val reset : t -> unit

val pp : Format.formatter -> t -> unit
