(** Vetting a profile against the program it claims to model.

    The serving layer loads a trained {!Profile.t} and a program and
    must decide whether to trust the pair. This module runs the
    {!Analysis.Vet} program checks plus the profile-coverage
    cross-check, projected into the profile's label view
    ([use_labels = false] strips DB-output labels from the static facts
    the same way training stripped them from the windows).

    Error-class findings ([undefined-callee],
    [profile-symbol-unreachable], [profile-pair-impossible]) mean the
    profile cannot have been trained on this program (or the program
    changed underneath it); warning-class findings are training gaps or
    latent program defects that merit logging but not refusal. *)

type policy =
  | Off  (** skip vetting entirely *)
  | Warn  (** report diagnostics, serve anyway *)
  | Enforce  (** refuse to serve when any error-class finding exists *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["off"], ["warn"], ["enforce"]. *)

val automaton :
  ?entry:string ->
  ?state_budget:int ->
  Profile.t ->
  Analysis.Analyzer.t ->
  Analysis.Seqauto.t
(** Build the program's call-sequence automaton in the profile's label
    view, on the pruned CFGs — the evidence [Scoring.create ~gate]
    expects and {!coverage}'s n-gram cross-check consumes. *)

val model_bigrams : Profile.t -> Analysis.Symbol.t list list
(** Observation bigrams the trained HMM gives real support (emission
    and transition probabilities clearly above the Baum-Welch smoothing
    floor) — the model's own 2-gram language, for the n-gram coverage
    cross-check. *)

val coverage :
  ?entry:string ->
  ?automaton:Analysis.Seqauto.t ->
  Profile.t ->
  Analysis.Analyzer.t ->
  Analysis.Diag.t list
(** Only the profile-coverage cross-check
    ({!Analysis.Vet.check_coverage} under the profile's label view).
    With [automaton], additionally cross-checks {!model_bigrams}
    against the automaton's language ([profile-ngram-impossible]). *)

val check :
  ?entry:string ->
  ?automaton:Analysis.Seqauto.t ->
  Profile.t ->
  Analysis.Analyzer.t ->
  Analysis.Diag.t list
(** Program checks plus {!coverage}, sorted with
    {!Analysis.Diag.compare}. *)

val static_pairs : ?entry:string -> Analysis.Analyzer.t -> (string * Analysis.Symbol.t) list
(** The statically possible (caller, call) pairs of the analyzed
    program — feed to [Scoring.create ~static_pairs] so explanations can
    name statically impossible pairs. *)

val apply :
  policy ->
  ?entry:string ->
  ?automaton:Analysis.Seqauto.t ->
  Profile.t ->
  Analysis.Analyzer.t ->
  Analysis.Diag.t list
(** Run {!check} under the policy. [Off] does nothing and returns [].
    [Warn] returns the diagnostics for the caller to log. [Enforce]
    additionally @raise Invalid_argument when error-class findings
    exist, with the {!Analysis.Diag.summary} counts and the first
    {!shown_errors} of them. *)

val shown_errors : int
(** Error findings an [Enforce] refusal names (5); the rest are
    counted as [... and N more]. *)
