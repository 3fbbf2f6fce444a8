(** Measurement plane: running moments, exact percentiles and
    histograms. Bounded time series live in
    {!Mvpn_telemetry.Timeseries}.

    The SLA compliance machinery (delay bounds, jitter, loss ratios) is
    built on these; they never influence forwarding. *)

(** Running mean/variance in one pass (Welford's algorithm), with min
    and max. Constant space — used for per-class delay accounting that
    may see millions of packets. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance (the n−1 estimator, matching what
      {!merge}'s parallel combination preserves); 0 with fewer than two
      samples. *)

  val stddev : t -> float
  (** Square root of {!variance}. *)

  val min : t -> float
  (** 0 when empty, like {!mean} — never a non-finite sentinel. *)

  val max : t -> float
  (** 0 when empty, like {!mean} — never a non-finite sentinel. *)

  val merge : t -> t -> t
  (** Combine two summaries as if all samples were added to one. *)

  val pp : Format.formatter -> t -> unit
end

(** Exact percentiles over a stored sample set. Linear space; use for
    bounded-cardinality measurements (per-flow delays). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile s q] for [q] in [0, 1], by linear interpolation
      between order statistics. 0 when empty.
      @raise Invalid_argument if [q] is outside [0, 1]. *)

  val median : t -> float
  val mean : t -> float
  val to_array : t -> float array
  (** A sorted copy of the samples. *)
end

(** Fixed-edge histogram. *)
module Hist : sig
  type t

  val create : float array -> t
  (** [create edges] has buckets (-inf, e0], (e0, e1], ..., (en, inf).
      Edges must be strictly increasing.
      @raise Invalid_argument otherwise. *)

  val add : t -> float -> unit
  val counts : t -> int array
  (** Length is [Array.length edges + 1]. *)

  val total : t -> int
  val pp : Format.formatter -> t -> unit
end
