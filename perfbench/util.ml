(* Timing, statistics and host probes shared by the workloads. *)

let mono_ns () = Int64.to_int (Adprom_obs.Clock.monotonic_ns ())
let mono_s () = float_of_int (mono_ns ()) *. 1e-9

let time f =
  let t0 = mono_ns () in
  let r = f () in
  (r, float_of_int (mono_ns () - t0) *. 1e-9)

(* CPU seconds this process has used, all domains, user plus system.
   The kernel does not bill a vCPU's stolen time to the task, so on a
   shared host this moves far less than wall time when neighbours
   compete for the cores. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type cost = {
  wall : float;
  cpu : float;
  host : float;  (** the host factor around the sample ({!repeat}), else [nan] *)
}

(* [f ()] with both its wall and its CPU time. *)
let cost f =
  let c0 = cpu_s () in
  let r, wall = time f in
  (r, { wall; cpu = cpu_s () -. c0; host = nan })

(* The cost of one of [n] runs that were timed together. *)
let per c n = { c with wall = c.wall /. float_of_int n; cpu = c.cpu /. float_of_int n }

let walls = List.map (fun c -> c.wall)
let cpus = List.map (fun c -> c.cpu)
let hosts = List.map (fun c -> c.host)

(* CPU time as on a host running at the reference speed. *)
let normalized = List.map (fun c -> c.cpu /. c.host)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Peak resident set size of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed integer loop: its wall time tracks how fast the host runs
   right now, independently of any code under test. *)
let host_ref_ms () =
  let _, s =
    time (fun () ->
        let x = ref 1 in
        for i = 1 to 30_000_000 do
          x := (!x * 31) + i land 0xffffff
        done;
        Sys.opaque_identity !x)
  in
  1000.0 *. s

(* Let the collector settle before a timed phase, so garbage from input
   generation or the previous phase is not billed to the next one. *)
let settle () = Gc.compact ()

(* The host's speed at allocation-heavy OCaml code. On a shared host,
   neighbours slow such code by up to 1.7x in phases lasting from a
   fraction of a second to minutes, while a pure arithmetic loop
   hardly moves (README, "Why CPU time, one CPU and a host factor").
   This task allocates, hashes and sorts like the code under test, and
   its CPU time tracks those phases: adjacent samples of it and of the
   workloads' set-ups or Baum-Welch rounds correlated at 0.67-0.92. It
   calls nothing in the repository, so no change to the program can
   move it. *)
let reference_task () =
  let h = Hashtbl.create 16 in
  for i = 0 to 150_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) [ i; i ]
  done;
  let l = List.sort compare (List.init 100_000 (fun i -> (i * 104729) land 0xffff)) in
  List.length l + Hashtbl.length h

(* [--reference]: run the task four times and print the CPU time of
   the last three; the first grows the fresh heap. *)
let reference_main () =
  for i = 1 to 4 do
    settle ();
    let _, c = cost (fun () -> Sys.opaque_identity (reference_task ())) in
    if i > 1 then Printf.printf "%.9f\n" c.cpu
  done

(* What the reference task takes on a quiet 2-vCPU cloud host. *)
let reference_nominal_s = 0.075

(* Every reference sample of the run, for the printout. *)
let reference_samples : float list ref = ref []

(* How much slower than nominal the host runs now: the mean of three
   samples of the reference task over the nominal. They run in a child
   process (this executable with [--reference], on the same CPU), so the
   task's memory neither adds to this process's peak RSS nor meets the
   workload's live heap in the collector. *)
let probe_host () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--reference" |] in
  let lines = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "the host reference probe failed");
  let samples =
    List.filter_map
      (fun l -> if l = "" then None else Some (float_of_string l))
      (String.split_on_char '\n' lines)
  in
  reference_samples := samples @ !reference_samples;
  List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples) /. reference_nominal_s

(* How many timed units a run of [seconds] makes: [per_10s] for a
   10 s run, scaled, at least one. The count depends only on
   the argument, never on how fast the host happens to run, so a slow
   host phase cannot change the work a run does or its peak RSS. *)
let units ~seconds per_10s =
  max 1 (int_of_float (Float.round (float_of_int per_10s *. seconds /. 10.0)))

(* [n] timed repetitions of [f], each after [settle]: every result with
   its cost, in order. The host is probed before the first repetition
   and after each, and a repetition's host factor is the mean of the
   probes on either side of it: the phases that slow the host last
   from a fraction of a second to minutes, so the samples adjacent in
   time are the ones that share them. *)
let repeat n f =
  let before = ref (probe_host ()) in
  List.init n (fun _ ->
      settle ();
      let r, c = cost f in
      let after = probe_host () in
      let host = (!before +. after) /. 2.0 in
      before := after;
      (r, { c with host }))

let fail fmt = Printf.ksprintf failwith fmt
