(* The static-generated workload: the full vet pipeline on a generated
   bash-scale program — parse, analyse, build the call-sequence
   automaton, infer query templates and leakage summaries, vet. No
   training or serving code runs. *)

type unit_result = {
  analysis : Analysis.Analyzer.t;
  auto : Analysis.Seqauto.t;
  diags : Analysis.Diag.t list;
}

let vet_unit source =
  let program = Span.run "applang.parse" (fun () -> Applang.Parser.parse_program source) in
  let analysis = Span.run "analysis.analyzer" (fun () -> Analysis.Analyzer.analyze program) in
  let cfgs = analysis.Analysis.Analyzer.pruned_cfgs in
  let auto =
    Span.run "analysis.seqauto" (fun () ->
        Analysis.Seqauto.build cfgs analysis.Analysis.Analyzer.callgraph)
  in
  let static = Span.run "analysis.qstatic" (fun () -> Analysis.Qstatic.infer cfgs) in
  ignore (Span.run "analysis.leakage" (fun () -> Analysis.Leakage.analyze ~static cfgs));
  let diags =
    Span.run "analysis.vet" (fun () -> Analysis.Vet.check_program ~static_queries:static cfgs)
  in
  { analysis; auto; diags }

(* Gate: static ⊇ dynamic — the automaton accepts every window of every
   test-case trace of the generated program. *)
let check (p : Inputs.program) r =
  let app = Inputs.program_app p in
  let rejected =
    List.concat_map
      (fun tc ->
        let trace, _ = Adprom.Pipeline.run_case ~analysis:r.analysis app tc in
        List.filter
          (fun (w : Adprom.Window.t) ->
            not (Analysis.Seqauto.accepts r.auto (Array.to_list w.Adprom.Window.obs)))
          (Adprom.Window.of_trace trace))
      p.Inputs.cases
  in
  match rejected with
  | [] -> Ok ()
  | _ -> Error (Printf.sprintf "Seqauto rejects %d dynamic windows" (List.length rejected))

(* Set-up: generating the program text and its input scripts, timed in
   batches of 80. The first sample, which pays for growing the heap, is
   dropped. *)
let setup_samples seed =
  let batch = 80 in
  Util.repeat 12 (fun () ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (Inputs.program seed))
      done)
  |> List.tl
  |> List.map (fun ((), c) -> Util.per c batch)

type result = {
  setups : Util.cost list;  (** one per set-up sample *)
  units : Util.cost list;  (** one per timed unit *)
  gate : (unit, string) Stdlib.result;
}

let run ~seed ~seconds =
  let setups = setup_samples seed in
  let p = Inputs.program seed in
  (* untimed warm-up: one whole unit *)
  let warm = vet_unit p.Inputs.source in
  let gate = check p warm in
  let units =
    List.map snd
      (Util.repeat (Util.units ~seconds 4) (fun () -> ignore (vet_unit p.Inputs.source)))
  in
  { setups; units; gate }

let ledger seed =
  let p = Inputs.program seed in
  Util.settle ();
  let r, work = Util.cost (fun () -> vet_unit p.Inputs.source) in
  let aggs = Span.aggregate () in
  let ms name = float_of_int (Span.lookup aggs name).Span.total_ns /. 1e6 in
  let st = r.auto.Analysis.Seqauto.stats in
  ( Some work,
    [
      ("applang.parse_ms", "ms", ms "applang.parse");
      ("analysis.analyzer_ms", "ms", ms "analysis.analyzer");
      ("analysis.seqauto_ms", "ms", ms "analysis.seqauto");
      ("analysis.qstatic_ms", "ms", ms "analysis.qstatic");
      ("analysis.leakage_ms", "ms", ms "analysis.leakage");
      ("analysis.vet_ms", "ms", ms "analysis.vet");
      ("analysis.seqauto.nfa_states", "count", float_of_int st.Analysis.Seqauto.nfa_states);
      ("analysis.seqauto.dfa_states", "count", float_of_int st.Analysis.Seqauto.dfa_states);
      ("analysis.vet.diags", "count", float_of_int (List.length r.diags));
    ] )
