(** End-to-end stream replay: feed a multi-tenant stream of wire items
    ({!Transport.item}s decoded from either wire, or an
    {!Adprom.Sessions.interleave}d host stream wrapped in
    {!Transport.Call}) through a {!Daemon} and collect the summary,
    timing, metrics and incidents. Also the referee for the daemon's
    correctness claim: surviving sessions must score exactly like batch
    [Detector.monitor] on the demultiplexed traces. *)

type outcome = {
  summary : Daemon.summary;
  seconds : float;  (** ingest + drain wall time, from the first item on *)
  metrics : Metrics.t;
  alerts : Alerts.t;
  events_tail : Adprom_obs.Log.event list;
      (** the daemon's recent structured events (time-ordered), drained
          from the per-shard rings — what the CLI prints on request *)
}

val run_items : Daemon.t -> Transport.item array -> outcome
(** Ingest every item into the daemon, then drain it and return its
    outcome. The daemon carries every detection option ({!Daemon.create});
    it is drained here and cannot be used afterwards. With the query
    axis off, query items are accepted and ignored, so a mixed stream
    yields bit-for-bit the verdicts of its call events alone. *)

val finish : Daemon.t -> started:float -> outcome
(** Drain the daemon and package its outcome; [seconds] counts from
    [started] (a [Unix.gettimeofday] reading) to the end of the drain.
    What {!run_items} (started before its first item) and
    {!Server.serve} (started at the node's first admitted item, so idle
    time before a client connects is left out) end with. *)

val throughput : outcome -> float
(** Ingested events per second. *)

type mismatch = {
  session : int;
  window_index : int;
  batch : Adprom.Detector.flag option;
  live : Adprom.Detector.flag option;
}

val verify_against_batch :
  Adprom.Profile.t -> Transport.event array -> Daemon.summary -> mismatch list
(** Compare each surviving session's live verdict flags against the
    batch detection loop on the demuxed stream; [[]] means the daemon
    reproduced batch detection exactly. Requires [keep_verdicts]. *)

val mismatch_to_string : mismatch -> string
