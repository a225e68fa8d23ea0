(* The build-banking workload: the operator's retrain path on the
   banking application — collect traces, train the HMM profile with the
   AD-PROM parameters, train the query-signature profile. *)

module P = Adprom.Pipeline

let app () = Dataset.Ca_banking.app ()

(* One unit of work. Returns the HMM profile; the query-signature
   profile is trained for its cost only. *)
let train_unit app =
  let dataset = Span.run "runtime.collect" (fun () -> P.collect app) in
  let profile =
    Span.run "core.profile.train" (fun () -> P.train ~params:P.adprom_params dataset)
  in
  ignore (Span.run "qsig.train" (fun () -> P.train_qsig ~analysis:dataset.P.analysis app));
  profile

(* Set-up before training can start: the application value and its
   seeded database. A single set-up takes well under a millisecond, so
   each sample times a batch of 100 and reports the per-set-up share.
   The first sample, which pays for growing the heap, is dropped. *)
let setup_samples () =
  let batch = 100 in
  Util.repeat 8 (fun () ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (P.fresh_engine (app ())))
      done)
  |> List.tl
  |> List.map (fun ((), c) -> Util.per c batch)

(* Gates: the new profile is a valid HMM, and flags every built-in
   banking attack case as a data leak. *)
let check profile =
  match Hmm.validate profile.Adprom.Profile.model with
  | Error e -> Error ("trained HMM fails validation: " ^ e)
  | Ok () ->
      let banking = app () in
      let engine = Adprom.Scoring.create profile in
      let missed =
        List.filter_map
          (fun (label, c) ->
            let runs = Inputs.attack_runs banking c in
            let leak =
              Array.exists
                (fun (run : Inputs.run) ->
                  List.exists
                    (fun (_, v) -> v.Adprom.Scoring.flag = Adprom.Scoring.Data_leak)
                    (Adprom.Scoring.monitor engine run.Inputs.calls))
                runs
            in
            if leak then None else Some label)
          (Inputs.banking_attack_cases banking)
      in
      if missed = [] then Ok ()
      else Error ("attack cases not flagged as data leaks: " ^ String.concat ", " missed)

type result = {
  setups : Util.cost list;  (** one per set-up sample *)
  units : Util.cost list;  (** one per timed unit *)
  gate : (unit, string) Stdlib.result;
}

let run ~seconds =
  let setups = setup_samples () in
  (* warm-up: the cheap stages of the unit, untimed *)
  let banking = app () in
  ignore (P.collect banking);
  ignore (P.train_qsig banking);
  let units = Util.repeat (Util.units ~seconds 3) (fun () -> train_unit banking) in
  { setups; units = List.map snd units; gate = check (fst (List.hd (List.rev units))) }

(* --- per-layer ledger (traced) ------------------------------------------- *)

(* Share of entries above the Baum-Welch smoothing floor, at the
   support threshold Profile_check uses. *)
let nnz_frac m =
  let rows, cols = Mlkit.Matrix.dims m in
  let nnz = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Mlkit.Matrix.get m i j > 1e-4 then incr nnz
    done
  done;
  float_of_int !nnz /. float_of_int (rows * cols)

(* With [full] (build-banking) the whole unit runs under spans and the
   model counts come from the profile it trains; otherwise from the
   cached deployment's profile and its recorded round count, and only
   the stages around training run. *)
let ledger ~(full : bool) (cached : (Adprom.Profile.t * int) Lazy.t) =
  let banking = app () in
  let work, profile, rounds_run =
    if full then begin
      Util.settle ();
      let profile, c = Util.cost (fun () -> train_unit banking) in
      (Some c, profile, profile.Adprom.Profile.rounds_run)
    end
    else begin
      ignore (Span.run "runtime.collect" (fun () -> P.collect banking));
      ignore (Span.run "qsig.train" (fun () -> P.train_qsig banking));
      let profile, rounds = Lazy.force cached in
      (None, profile, rounds)
    end
  in
  let analysis = Span.run "analysis.analyze" (fun () -> P.analyze_app banking) in
  let params = profile.Adprom.Profile.params in
  let pctm = analysis.Analysis.Analyzer.pctm in
  let clustering =
    Span.run "core.reduction.cluster" (fun () ->
        Adprom.Reduction.cluster
          ~rng:(Mlkit.Rng.create params.Adprom.Profile.seed)
          ~max_states:params.Adprom.Profile.max_states
          ~cluster_fraction:params.Adprom.Profile.cluster_fraction
          ~pca_variance:params.Adprom.Profile.pca_variance pctm)
  in
  (* Baum-Welch rounds from the forecast initialisation over the
     deduplicated, weighted training windows *)
  let model0 =
    Adprom.Reduction.init_hmm pctm clustering ~alphabet:profile.Adprom.Profile.alphabet
  in
  let dataset = P.collect banking in
  let index s = Analysis.Symbol.Table.find_opt profile.Adprom.Profile.obs_index s in
  let weighted =
    List.filter_map
      (fun (w, weight) -> Option.map (fun o -> (o, weight)) (Adprom.Window.encode ~index w))
      (Adprom.Window.dedup dataset.P.windows)
  in
  let rounds =
    let model = ref model0 in
    List.init 3 (fun _ ->
        let (next, _), s =
          Util.time (fun () ->
              Span.run "hmm.baum_welch_step" (fun () -> Hmm.baum_welch_step !model weighted))
        in
        model := next;
        1000.0 *. s)
  in
  let aggs = Span.aggregate () in
  let ms name =
    let a = Span.lookup aggs name in
    float_of_int a.Span.total_ns /. float_of_int (max 1 a.Span.count) /. 1e6
  in
  let m = profile.Adprom.Profile.model in
  ( work,
    [
      ("runtime.collect_ms", "ms", ms "runtime.collect");
      ("analysis.analyze_ms", "ms", ms "analysis.analyze");
      ("core.reduction.cluster_ms", "ms", ms "core.reduction.cluster");
      ("qsig.train_ms", "ms", ms "qsig.train");
      ("hmm.bw_round_ms", "ms", Util.median rounds);
      ("hmm.states", "count", float_of_int m.Hmm.n);
      ("hmm.symbols", "count", float_of_int m.Hmm.m);
      ("hmm.a_nnz_frac", "ratio", nnz_frac m.Hmm.a);
      ("hmm.b_nnz_frac", "ratio", nnz_frac m.Hmm.b);
      ("core.profile.rounds", "count", float_of_int rounds_run);
    ] )
