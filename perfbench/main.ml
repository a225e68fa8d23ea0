(* perfbench: the repository benchmark. One run measures one workload
   for one seed and prints, as its last line, a JSON object with the
   correctness verdict, the attempted/failed counts and the metrics:
   end-to-end ones with --trace 0, per-layer ones (from benchmark-side
   spans) with --trace 1. See perfbench/README.md. *)

let workloads = [ "serve-hot"; "serve-cold"; "build-banking"; "static-generated" ]

type metric = string * string * float  (** name, unit, value *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  setups : Util.cost list;  (** every timed set-up behind [setup_s] *)
  units : Util.cost list;  (** every timed unit of work behind [work_cpu_s] *)
  report : metric list;  (** printed, not part of the JSON result *)
  failure : string option;
}

let gate_error = function Ok () -> None | Error e -> Some e

let serve_config = function "serve-cold" -> Serve.cold | _ -> Serve.hot

(* The bounded end-to-end metrics: medians over the timed samples of
   each sample's CPU time divided by the host factor around it. On a
   shared host the wall time of identical runs moved by half between
   sets of runs; CPU time does not count the time neighbours hold the
   cores, and the host factor takes out the phases, from a fraction of
   a second to minutes long, in which the host runs OCaml code slower.
   Raw CPU and wall figures are printed beside them. *)
let end_to_end o =
  [
    ("setup_s", "s", Util.median (Util.normalized o.setups));
    ("work_cpu_s", "s", Util.median (Util.normalized o.units));
  ]

let raw o =
  [
    ("host.factor", "x", Util.median (Util.hosts (o.setups @ o.units)));
    ("setup_cpu_raw_s", "s", Util.median (Util.cpus o.setups));
    ("work_cpu_raw_s", "s", Util.median (Util.cpus o.units));
  ]

(* build-banking and static-generated: a fixed unit of work, timed
   several times; nothing is shed, so nothing counts as failed. *)
let offline ~gate ~setups ~units wall_name =
  {
    correct = gate = Ok ();
    attempted = List.length units;
    failed = 0;
    setups;
    units;
    report =
      [
        ("setup_wall_s", "s", Util.median (Util.walls setups));
        (wall_name, "s", Util.median (Util.walls units));
      ];
    failure = gate_error gate;
  }

(* End-to-end measurement of one workload, tracing off. *)
let measure workload ~seed ~seconds =
  match workload with
  | "serve-hot" | "serve-cold" ->
      let cfg = serve_config workload in
      let dep = Serve.deployment () in
      let inp = Serve.inputs dep cfg seed in
      let r = Serve.run dep cfg inp ~seconds in
      {
        correct = r.Serve.gate = Ok ();
        attempted = r.Serve.offered;
        failed = r.Serve.dropped;
        setups = r.Serve.setups;
        units = r.Serve.floods;
        report =
          [
            ("setup_wall_s", "s", Util.median (Util.walls r.Serve.setups));
            ("scored_eps", "1/s", r.Serve.eps);
            ("detect_p50_ms", "ms", r.Serve.detect_p50_ms);
            ("service.detect_p99_ms", "ms", r.Serve.detect_p99_ms);
            ("detections", "count", float_of_int r.Serve.detections);
            ( "shed_frac",
              "ratio",
              float_of_int r.Serve.dropped /. float_of_int (max 1 r.Serve.offered) );
            ("service.gen_late_ms", "ms", r.Serve.late_ms);
            ("flood_events", "count", float_of_int inp.Serve.flood.Inputs.events);
          ];
        failure = gate_error r.Serve.gate;
      }
  | "build-banking" ->
      let r = Build.run ~seconds in
      offline ~gate:r.Build.gate ~setups:r.Build.setups ~units:r.Build.units "train_s"
  | "static-generated" ->
      let r = Static.run ~seed ~seconds in
      offline ~gate:r.Static.gate ~setups:r.Static.setups ~units:r.Static.units "vet_s"
  | w -> Util.fail "unknown workload %S (one of: %s)" w (String.concat ", " workloads)

(* The per-layer ledger: every layer, traced. Layers the workload runs
   are measured on its own inputs; the others on the seed's serve-hot
   stream, the banking build path and the seed's generated program. *)
let ledger workload ~seed =
  let dep = Serve.deployment () in
  let serve_cfg = serve_config workload in
  let inp = Serve.inputs dep serve_cfg seed in
  let serve_s, serve_m = Serve.ledger dep serve_cfg inp in
  let build_s, build_m =
    Build.ledger ~full:(workload = "build-banking")
      (lazy (Serve.load_profile dep, Serve.trained_rounds dep))
  in
  let static_s, static_m = Static.ledger seed in
  let traced_work =
    match workload with
    | "build-banking" -> build_s
    | "static-generated" -> static_s
    | _ -> serve_s
  in
  (traced_work, serve_m @ build_m @ static_m)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit)
       ms)

let print_lines title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) ms

let main workload seed seconds trace =
  Span.run_id := seed;
  let ref_start = Util.host_ref_ms () in
  let o = measure workload ~seed ~seconds in
  let per_layer =
    if not trace then []
    else begin
      Span.enabled := true;
      let traced, layers = ledger workload ~seed in
      Span.enabled := false;
      let aggs = Span.aggregate () in
      print_lines "self time by span (ms: total, self; count)" [];
      List.iter
        (fun (name, (a : Span.agg)) ->
          Printf.printf "  %-36s %12.3f %12.3f %8d\n" name
            (float_of_int a.Span.total_ns /. 1e6)
            (float_of_int a.Span.self_ns /. 1e6)
            a.Span.count)
        aggs;
      Serve.mkdir_p Serve.state_dir;
      let path =
        Filename.concat Serve.state_dir (Printf.sprintf "spans-%s-%d.json" workload seed)
      in
      Span.write path;
      Printf.printf "spans written to %s\n" path;
      layers
      @ [
          ( "trace.overhead_frac",
            "ratio",
            match traced with
            | Some c -> (c.Util.cpu /. Util.median (Util.cpus o.units)) -. 1.0
            | None -> nan );
          ("trace.spans", "count", float_of_int (List.length !Span.recorded));
        ]
    end
  in
  let ref_end = Util.host_ref_ms () in
  let rss = ("peak_rss_mb", "MB", Util.peak_rss_mb ()) in
  let host =
    [
      ("host.ref_ms", "ms", Util.median [ ref_start; ref_end ]);
      ("host.alloc_ref_ms", "ms", 1000.0 *. Util.median !Util.reference_samples);
    ]
  in
  let e2e = end_to_end o in
  print_lines
    (Printf.sprintf "perfbench %s seed=%d seconds=%g" workload seed seconds)
    (e2e @ [ rss ] @ raw o @ o.report
    @ [ ("host.ref_ms.start", "ms", ref_start); ("host.ref_ms.end", "ms", ref_end) ]);
  let costs title cs =
    Printf.printf "  %s (s, wall/cpu/host factor): %s\n" title
      (String.concat " "
         (List.map
            (fun c -> Printf.sprintf "%.4g/%.4g/%.3f" c.Util.wall c.Util.cpu c.Util.host)
            cs))
  in
  costs "timed set-ups" o.setups;
  costs "timed units" o.units;
  (match o.failure with Some e -> Printf.printf "CORRECTNESS GATE FAILED: %s\n" e | None -> ());
  let metrics = if trace then per_layer @ host else e2e @ [ rss ] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (json_metrics metrics);
  if not o.correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measurement budget per run");
      ("--trace", Arg.Set_int trace, " 1 = traced run reporting per-layer metrics");
      ( "--reference",
        Arg.Unit
          (fun () ->
            Util.reference_main ();
            exit 0),
        " (internal) time the host reference task and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match main !workload !seed !seconds (!trace = 1) with
  | () -> ()
  | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
