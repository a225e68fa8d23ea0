module Symbol = Analysis.Symbol

type flag = Scoring.flag =
  | Normal
  | Anomalous
  | Data_leak
  | Out_of_context

type verdict = Scoring.verdict = {
  flag : flag;
  score : float;
  unknown_symbol : bool;
  unknown_pair : (string * Symbol.t) option;
}

let flag_to_string = function
  | Normal -> "normal"
  | Anomalous -> "anomalous"
  | Data_leak -> "data-leak"
  | Out_of_context -> "out-of-context"

let severity = function
  | Normal -> 0
  | Anomalous -> 1
  | Out_of_context -> 2
  | Data_leak -> 3

(* The specification path: score and flag a window directly against the
   profile, with no interning, no scratch reuse and no memo. The
   compiled engine is property-tested to agree with this bit for bit;
   it also serves as the pre-compilation baseline in the benches. *)
let reference_classify profile window =
  let w = Profile.prepare profile window in
  let score = Profile.score profile w in
  let unknown_symbol =
    Array.exists
      (fun s -> not (Symbol.Table.mem profile.Profile.obs_index s))
      w.Window.obs
  in
  let unknown_pair =
    if not profile.Profile.params.Profile.track_callers then None
    else
      List.find_opt
        (fun (caller, sym) -> not (Profile.known_pair profile caller sym))
        (Window.pairs w)
  in
  let anomalous =
    score < profile.Profile.threshold || unknown_symbol || unknown_pair <> None
  in
  let flag =
    if not anomalous then Normal
    else if Window.contains_labeled_output w then Data_leak
    else if unknown_pair <> None then Out_of_context
    else Anomalous
  in
  { flag; score; unknown_symbol; unknown_pair }

let classify profile window = Scoring.classify (Scoring.of_profile profile) window

let monitor profile trace = Scoring.monitor (Scoring.of_profile profile) trace

let worst verdicts =
  List.fold_left
    (fun acc v -> if severity v.flag > severity acc then v.flag else acc)
    Normal verdicts
