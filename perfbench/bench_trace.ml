(* Bench-side tracing.

   Spans are recorded by the benchmark's own code around its calls into
   the system's public functions: name, start, end, parent, and the op
   they belong to.  They are kept in memory and written out when the
   benchmark ends.  A span marked [reinvoked] times a layer that is only
   reachable inside another public call (parse inside [Nimble.query],
   construct inside [Med_exec.run_compiled]): the benchmark calls that
   layer's public function again, on the same input, outside the op. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start_ms : float;
  mutable stop_ms : float;
  reinvoked : bool;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

(* CLOCK_MONOTONIC in nanoseconds: an op of the lens workloads takes
   about 50 µs, so the microsecond steps of [Unix.gettimeofday] would be
   a 2% quantum. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  current_op := -1

let with_span ?(reinvoked = false) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with [] -> -1 | s :: _ -> s.id in
    let s =
      { id = !next_id; name; op = !current_op; parent; start_ms = now_ms ();
        stop_ms = nan; reinvoked }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ms <- now_ms ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* Per span name: (count, inclusive ms, self ms).  Self time is the
   span's duration minus its direct children's durations; execution is
   serial, so children never overlap. *)
let totals () =
  let spans = !recorded in
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent) in
        Hashtbl.replace child_ms s.parent (prev +. (s.stop_ms -. s.start_ms)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop_ms -. s.start_ms in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
      let n, incl, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, incl +. dur, slf +. self))
    spans;
  by_name

(* One line per span, oldest first:
   id parent op name start_ms stop_ms reinvoked. *)
let write path =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_ms\tstop_ms\treinvoked\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.4f\t%.4f\t%b\n" s.id s.parent s.op s.name
        s.start_ms s.stop_ms s.reinvoked)
    (List.rev !recorded);
  close_out oc
