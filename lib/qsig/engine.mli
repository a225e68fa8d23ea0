(** The compiled query-signature engine — the query axis' hot path,
    built once per profile, mirroring {!Adprom.Scoring} for the
    sequence axis.

    [create] interns the profile's signatures to dense codes and
    resolves each to its slot constraints and cardinality band. Every
    static property of a query text — parseability, signature lookup,
    predicate-widening warnings, slot-constraint violations — is
    memoized per raw text in a bounded table, so the steady-state cost
    of a repeated query is one hash lookup plus the band comparison.
    Parse failures are soft: counted in {!parse_errors} and returned as
    a {!Malformed} anomaly, never raised.

    An engine is not thread-safe (it owns the memo and counters): use
    one per domain, as the daemon does per shard. *)

type reason =
  | Unknown_signature of string  (** a shape never seen in training *)
  | Impossible_signature of string
      (** rejected by the static gate: the monitored program's code
          cannot emit this signature, so the query came from somewhere
          else (injection, MITM, or a cross-program profile) *)
  | Malformed of string  (** unparseable query text *)
  | Tautology  (** WHERE true regardless of row data (Attack 5 shape) *)
  | Constant_comparison  (** a literal-to-literal comparison in WHERE *)
  | Slot_violation of { slot : int; why : string }
      (** a literal outside its trained constraint *)
  | Cardinality_blowup of { rows : int; lo : int; hi : int }
      (** result size outside the trained band — the leak channel *)

type verdict = { anomalous : bool; reasons : reason list }

val normal : verdict
val reason_to_string : reason -> string
val verdict_to_string : verdict -> string

type t

val default_memo_capacity : int
(** 4096 memoized query texts. *)

val create :
  ?policy:Constraints.policy ->
  ?memo_capacity:int ->
  ?gate:Analysis.Qstatic.result Analysis.Gate.t ->
  Profile.t ->
  t
(** Compile the profile under a policy (default [Strict]).
    [memo_capacity 0] disables the memo. [gate] fixes the
    static-signature gate below for the engine's lifetime.
    @raise Invalid_argument on a negative capacity. *)

val profile : t -> Profile.t
val policy : t -> Constraints.policy
val signature_count : t -> int

val check : ?rows:int -> t -> string -> verdict
(** Check one executed query; [rows] enables the cardinality-band
    check. Never raises. *)

val check_log : t -> (string * int) list -> verdict list
(** Batch form over an executed-query log; equals folding
    {!Scorer.push} over the same log (property-tested). *)

val checks : t -> int
val anomalies : t -> int
val parse_errors : t -> int
val memo_hits : t -> int
val memo_misses : t -> int
val memo_len : t -> int

val invalidate : t -> unit
(** Drop the memo (counters are preserved). *)

(** {2 Static-signature gate}

    The pre-scoring gate over the monitored program's
    {!Analysis.Qstatic} result, under the same {!Analysis.Gate} policy
    as the automaton gate of [Adprom.Scoring.create] on the sequence
    axis. With a [gate] under [Gate_explain] or [Gate_enforce], every
    {!check} counts one gate check and, when the query's canonical
    signature is provably outside the inferred set, one gate rejection.
    Under [Gate_explain] the verdict is bit-for-bit what the ungated
    engine returns — only the counters move. Under [Gate_enforce] the
    check short-circuits before the constraint layer with an
    [Impossible_signature] anomaly.

    An incomplete static set ([complete = false] — the inference left an
    open call site) never rejects: absence from an under-approximated
    set proves nothing. Malformed texts are never gate-rejected. *)

val gate_counter : t -> Analysis.Gate.counter
(** Gate checks and rejections — would-be rejections under
    [Gate_explain], actual anomalies under [Gate_enforce]. *)

module Scorer : sig
  (** Per-session streaming checker: one [push] per executed query.
      All sessions of a domain share the engine's memo, so tenants
      issuing the same statements score each other's work. *)

  type engine = t

  type t

  val create : engine -> t
  val engine : t -> engine

  val push : t -> ?rows:int -> string -> verdict

  val queries_seen : t -> int
  val anomalies : t -> int
  val last : t -> verdict option
end
