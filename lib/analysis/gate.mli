(** The static gate policy, shared by both detection axes.

    A gate puts static evidence about the monitored program in front of
    a scoring engine: the call-sequence automaton ({!Seqauto}) in front
    of the sequence axis, the inferred signature set ({!Qstatic}) in
    front of the query axis. Either way the evidence can prove an input
    impossible — no execution of the program produces it — and one
    policy knob decides what that proof does, in the way the DetAnom
    Strict/Flexible policy is one knob of one detector. *)

type mode =
  | Gate_off  (** no evidence consulted: the ungated engine exactly *)
  | Gate_explain
      (** evidence consulted for explanations and counters only —
          verdicts stay bit-for-bit those of [Gate_off] *)
  | Gate_enforce
      (** an input the evidence proves impossible short-circuits to an
          anomalous verdict before the engine's model runs *)

val modes : (string * mode) list
(** The string forms: ["off"], ["explain"], ["enforce"]. *)

type 'e t = { mode : mode; evidence : 'e }
(** A gate as an engine is created with. Immutable, so one value can be
    handed to every worker's engine. *)

val arm : mode -> (unit -> 'e) -> 'e t option
(** [None] under [Gate_off]; otherwise the gate, with its evidence
    computed. *)

val active : 'e t option -> 'e t option
(** [None] for a missing gate and for one under [Gate_off]: what an
    engine keeps. *)

val enforcing : 'e t -> bool

type counter
(** One engine's check/rejection counter pair. Not thread-safe, like
    the engine that owns it. *)

val counter : unit -> counter
val checks : counter -> int

val rejections : counter -> int
(** Checks whose evidence proved the input impossible — would-be
    rejections under [Gate_explain], actual ones under [Gate_enforce]. *)

val decide : counter -> 'e t -> impossible:bool -> bool
(** The one gate decision: count a check (and a rejection when
    [impossible]), and reject — [true] — only when [impossible] and the
    mode is [Gate_enforce]. Under [Gate_off] nothing is counted. *)
