(* Call-sequence automaton: construction cost and DFA size on a real
   subject, then the enforce gate's payoff — classify throughput with
   the gate off vs enforcing, on in-language windows (gate overhead:
   every window walks the DFA and none is rejected) and on
   out-of-language windows (gate payoff: the DFA walk short-circuits
   the HMM forward pass). Writes BENCH_seqauto.json for the CI
   artifact. *)

module Scoring = Adprom.Scoring
module Window = Adprom.Window
module Profile = Adprom.Profile
module Symbol = Analysis.Symbol
module Gate = Analysis.Gate

let passes () = if !Common.smoke then 10 else 100
let tampered_count () = if !Common.smoke then 200 else 2000

type row = {
  workload : string;
  windows : int;
  rejected : int;  (** DFA-rejected windows per pass (gate hits) *)
  off_ms : float;  (** ms per pass, gate off *)
  enforce_ms : float;  (** ms per pass, gate enforcing *)
}

let speedup r = if r.enforce_ms > 0.0 then r.off_ms /. r.enforce_ms else 0.0

(* Random-symbol windows over the profile's own alphabet: pairwise the
   symbols are familiar, but the sequences are (overwhelmingly) not
   factors of any execution — the short-circuit case the gate exists
   for. *)
let tampered_windows rng (profile : Profile.t) n =
  let alpha = profile.Profile.alphabet in
  let window = profile.Profile.params.Profile.window in
  List.init n (fun _ ->
      {
        Window.obs =
          Array.init window (fun _ -> Symbol.observable (Mlkit.Rng.pick rng alpha));
        callers = Array.make window "main";
      })

let time_passes eng ws =
  let n = passes () in
  let _, seconds =
    Common.time (fun () ->
        for _ = 1 to n do
          List.iter (fun w -> ignore (Scoring.classify eng w)) ws
        done)
  in
  1000.0 *. seconds /. float_of_int n

let measure ~name ~profile ~auto ws =
  (* cache_capacity 0: no memo, every classify pays the full forward
     pass — the comparison isolates the gate, not the memo *)
  let off = Scoring.create ~cache_capacity:0 profile in
  let enf =
    Scoring.create ~cache_capacity:0
      ~gate:{ Gate.mode = Gate_enforce; evidence = auto }
      profile
  in
  let off_ms = time_passes off ws in
  let enforce_ms = time_passes enf ws in
  let rejected = Gate.rejections (Scoring.gate_counter enf) / passes () in
  { workload = name; windows = List.length ws; rejected; off_ms; enforce_ms }

let run () =
  Common.heading "seqauto: static DFA gate short-circuit";
  let trained = Lazy.force Common.ca_hospital in
  let profile = Lazy.force trained.Common.adprom in
  let analysis = trained.Common.dataset.Adprom.Pipeline.analysis in
  let auto, build_seconds =
    Common.time (fun () -> Adprom.Profile_check.automaton profile analysis)
  in
  let stats = auto.Analysis.Seqauto.stats in
  Printf.printf "automaton: %s  (built in %.1f ms)\n"
    (Analysis.Seqauto.stats_to_string stats)
    (1000.0 *. build_seconds);
  let rng = Mlkit.Rng.create 42 in
  let normal = trained.Common.dataset.Adprom.Pipeline.windows in
  let tampered = tampered_windows rng profile (tampered_count ()) in
  let rows =
    [
      measure ~name:"in-language" ~profile ~auto normal;
      measure ~name:"out-of-language" ~profile ~auto tampered;
    ]
  in
  Printf.printf "%-16s %8s %9s %10s %12s %9s\n" "workload" "windows" "rejected"
    "off ms" "enforce ms" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-16s %8d %9d %10.2f %12.2f %8.1fx\n%!" r.workload r.windows
        r.rejected r.off_ms r.enforce_ms (speedup r))
    rows;
  let oc = open_out "BENCH_seqauto.json" in
  Printf.fprintf oc "{\n  \"smoke\": %b,\n" !Common.smoke;
  Printf.fprintf oc
    "  \"automaton\": {\"functions\": %d, \"nfa_states\": %d, \"dfa_states\": %d, \
     \"alphabet\": %d, \"flat\": %b, \"build_ms\": %.3f},\n"
    stats.Analysis.Seqauto.functions stats.Analysis.Seqauto.nfa_states
    stats.Analysis.Seqauto.dfa_states stats.Analysis.Seqauto.dfa_width
    stats.Analysis.Seqauto.flat
    (1000.0 *. build_seconds);
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": \"%s\", \"windows\": %d, \"rejected\": %d, \"off_ms\": \
         %.3f, \"enforce_ms\": %.3f, \"speedup\": %.2f}%s\n"
        r.workload r.windows r.rejected r.off_ms r.enforce_ms (speedup r)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_seqauto.json\n"
