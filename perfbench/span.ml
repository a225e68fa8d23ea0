(* Benchmark-side spans: one per call the benchmark makes into a
   library layer, kept in memory and written out at exit. With tracing
   off, [run] is a single branch around the call. *)

type t = { id : int; name : string; parent : int; start_ns : int; end_ns : int }

let enabled = ref false
let run_id = ref 0
let next_id = ref 0
let current = ref (-1)
let recorded : t list ref = ref []

let run name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = Util.mono_ns () in
    let finish () =
      current := parent;
      recorded := { id; name; parent; start_ns; end_ns = Util.mono_ns () } :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type agg = { count : int; total_ns : int; self_ns : int }

(* Per span name: how many, total duration, and self time (duration
   minus the part covered by child spans). *)
let aggregate () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((try Hashtbl.find child_ns s.parent with Not_found -> 0)
          + (s.end_ns - s.start_ns)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      let self = d - (try Hashtbl.find child_ns s.id with Not_found -> 0) in
      let a =
        try Hashtbl.find by_name s.name
        with Not_found -> { count = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace by_name s.name
        { count = a.count + 1; total_ns = a.total_ns + d; self_ns = a.self_ns + self })
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let lookup aggs name =
  match List.assoc_opt name aggs with
  | Some a -> a
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

(* Chrome trace_event JSON: loadable in chrome://tracing or Perfetto. *)
let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name !run_id
        (float_of_int s.start_ns /. 1000.0)
        (float_of_int (s.end_ns - s.start_ns) /. 1000.0)
        s.id s.parent)
    (List.rev !recorded);
  output_string oc "]\n";
  close_out oc
