(** The JSON codec: one value tree, one printer, one parser.

    Every JSON artifact the project writes — the registry dump, the
    [mvpn --json] envelopes, chaos plans, [BENCH_telemetry.json] — is a
    {!t} printed by {!to_string}, and every reader (the repository gate,
    chaos-plan replay) goes through {!parse}. No case carries
    pre-rendered JSON text, so what a producer builds is what the
    printer renders, nothing more. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** printed as ["%.9g"]; a non-finite value prints as [0], since
          JSON has no literal for it *)
  | Exact of float
      (** printed losslessly: ["%.12g"] when that reads back as the same
          double, else ["%.17g"] (non-finite prints as [0]). For values
          that must round-trip, such as chaos-plan times. *)
  | String of string  (** raw bytes; the printer escapes them *)
  | List of t list
  | Object of (string * t) list  (** members in print order *)

val to_string : t -> string
(** Compact, single-line rendering. Strings and member names escape
    the double quote, the backslash and newline with a backslash, and
    other control characters as [\u00XX]; all other bytes pass
    through. *)

val parse : string -> (t, string) result
(** Exactly one JSON value plus trailing whitespace, or an error
    [line:col: message] at the first offending byte. The number
    grammar is RFC 8259's: no leading zeros, no bare [.], no [+] sign,
    and no non-finite literal ([inf], [nan], [Infinity]). A number
    without fraction or exponent that fits an OCaml [int] reads as
    {!Int}, any other as {!Float}. Escapes are decoded; [\uXXXX] is
    written as UTF-8 (an unpaired surrogate as U+FFFD). *)

val number : t -> float option
(** The value of {!Int}, {!Float} or {!Exact}; [None] for other cases. *)

val equal : t -> t -> bool
(** Structural equality in which numbers compare by value: [Int 3],
    [Float 3.] and [Exact 3.] are equal. Member order matters. *)
