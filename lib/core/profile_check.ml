module Symbol = Analysis.Symbol
module Vet = Analysis.Vet
module Diag = Analysis.Diag

type policy = Off | Warn | Enforce

let policy_to_string = function Off -> "off" | Warn -> "warn" | Enforce -> "enforce"

let policy_of_string = function
  | "off" -> Some Off
  | "warn" -> Some Warn
  | "enforce" -> Some Enforce
  | _ -> None

(* The profile's label view: CMarkov-style profiles never saw DB-output
   labels, so the static facts must drop them too before comparing. *)
let project_facts (profile : Profile.t) (facts : Vet.facts) =
  if profile.Profile.params.Profile.use_labels then facts
  else
    {
      facts with
      Vet.symbols = Symbol.Set.map Symbol.strip_label facts.Vet.symbols;
      pairs =
        List.sort_uniq compare
          (List.map (fun (c, s) -> (c, Symbol.strip_label s)) facts.Vet.pairs);
    }

let automaton ?entry ?state_budget (profile : Profile.t) analysis =
  Analysis.Seqauto.build ?entry ?state_budget
    ~use_labels:profile.Profile.params.Profile.use_labels
    analysis.Analysis.Analyzer.pruned_cfgs analysis.Analysis.Analyzer.callgraph

(* Bigrams the trained model actually supports: (a, b) such that some
   state pair (i, j) emits a from i, transitions i -> j, and emits b
   from j, each with probability clearly above the Baum-Welch smoothing
   floor (1e-6) — the floor keeps every cell non-zero, so "supported"
   needs a coarser threshold. *)
let support_epsilon = 1e-4

let model_bigrams (profile : Profile.t) =
  let model = profile.Profile.model in
  let n = model.Hmm.n and m = model.Hmm.m in
  let alphabet = profile.Profile.alphabet in
  (* states emitting each symbol, states reachable from each state *)
  let emitters =
    Array.init m (fun o ->
        List.filter
          (fun i -> Mlkit.Matrix.get model.Hmm.b i o > support_epsilon)
          (List.init n Fun.id))
  in
  let bigrams = ref [] in
  for a = m - 1 downto 0 do
    for b = m - 1 downto 0 do
      let supported =
        List.exists
          (fun i ->
            List.exists
              (fun j -> Mlkit.Matrix.get model.Hmm.a i j > support_epsilon)
              emitters.(b))
          emitters.(a)
      in
      if supported then bigrams := [ alphabet.(a); alphabet.(b) ] :: !bigrams
    done
  done;
  !bigrams

let coverage ?entry ?automaton (profile : Profile.t) analysis =
  let facts =
    project_facts profile (Vet.facts ?entry analysis.Analysis.Analyzer.cfgs)
  in
  let known_pairs =
    Hashtbl.fold (fun p () acc -> p :: acc) profile.Profile.known_pairs []
    |> List.sort compare
  in
  let automaton = Option.map (fun a sl -> Analysis.Seqauto.accepts a sl) automaton in
  let model_ngrams =
    match automaton with Some _ -> model_bigrams profile | None -> []
  in
  Vet.check_coverage ?automaton ~model_ngrams facts
    ~alphabet:(Array.to_list profile.Profile.alphabet)
    ~known_pairs

let check ?entry ?automaton profile analysis =
  List.sort Diag.compare
    (Vet.check_program ?entry analysis.Analysis.Analyzer.cfgs
    @ coverage ?entry ?automaton profile analysis)

let static_pairs ?entry analysis =
  (Vet.facts ?entry analysis.Analysis.Analyzer.cfgs).Vet.pairs

let shown_errors = 5

let apply policy ?entry ?automaton profile analysis =
  match policy with
  | Off -> []
  | Warn -> check ?entry ?automaton profile analysis
  | Enforce -> (
      let diags = check ?entry ?automaton profile analysis in
      match Diag.errors diags with
      | [] -> diags
      | errs ->
          let more = List.length errs - shown_errors in
          invalid_arg
            (Printf.sprintf "Profile_check: profile failed vet (%s): %s%s"
               (Diag.summary diags)
               (String.concat "; "
                  (List.map Diag.to_string (List.filteri (fun i _ -> i < shown_errors) errs)))
               (if more > 0 then Printf.sprintf "; ... and %d more" more else "")))
