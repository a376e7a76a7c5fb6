(* The Nimble benchmark.

   One seeded federation (Bench_fed), three workloads (Bench_work):

   - fed_analytics: closed loop, one client, strict [Nimble.query] over
     the two-level mediated schema;
   - lens_serve: open loop on the virtual clock, lens requests through
     the [Srv_dispatch] server, caches warm and sized to the working set;
   - lens_churn: the lens_serve stream plus source writes and one flaky
     source under a retry policy, partial mode and stale serving.

   A run sets the system up [--setups] times (the median is [setup_s]),
   then drives the last one for [--seconds] of wall time.  Counts that
   come from the seeded virtual clock (virtual ms, shipped rows, source
   calls, cache and retry counters) are taken over the first
   [--prefix] ops, so they repeat exactly for one seed; wall metrics use
   every op of the window.  Wall metrics are rescaled to a reference
   host speed measured in the run (see "Host speed").  After the window
   every distinct complete answer is checked against [Xq_eval] over a
   reference copy of the federation.

   [--trace 1] prints per-layer metrics instead: it drives the first
   [--prefix] ops once untraced and once traced (each on a fresh set-up)
   and attributes the traced op time to layers from bench-side spans.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;
  setups : int;
  prefix : int;
  commit : string;
  spans_out : string option;
}

let workloads = [ "fed_analytics"; "lens_serve"; "lens_churn" ]

let default_prefix = function
  | "fed_analytics" -> 140
  | "lens_churn" -> 4000
  | _ -> 6000

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 1.0 and setups = ref 3 and prefix = ref 0 and commit = ref "unknown" in
  let spans_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME fed_analytics | lens_serve | lens_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--scale", Arg.Set_float scale, "F data size factor (1.0 = full size)");
      ("--setups", Arg.Set_int setups, "N set-ups per run; setup_s is their median");
      ("--prefix", Arg.Set_int prefix, "N ops over which seeded counts are taken");
      ("--commit", Arg.Set_string commit, "ID source revision recorded in the output");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced run's spans here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nimble_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("nimble_bench: unknown workload " ^ !workload);
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    scale = !scale;
    setups = max 1 !setups;
    prefix = (if !prefix > 0 then !prefix else default_prefix !workload);
    commit = !commit;
    spans_out = (if !spans_out = "" then None else Some !spans_out);
  }

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

(* The shortest rendering that reads back as the same float. *)
let float_lit f =
  if not (Float.is_finite f) then "0"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

let rec json_to_string = function
  | Num f -> float_lit f
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
  | Arr l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) l)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let now_ms = Bench_trace.now_ms

let percentile p values =
  match List.sort compare values with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median = percentile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* The first few failures go to stderr; the counts go to the result. *)
let failures_reported = ref 0

let report_failure msg =
  if !failures_reported < 3 then prerr_endline ("nimble_bench: op failed: " ^ msg);
  incr failures_reported

let digest_trees trees =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map Dtree.to_string trees)))

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* Host speed drifts by tens of percent between and within runs on a
   shared machine, and set-up, latency and throughput drift together.
   A fixed sort-and-hash kernel that uses none of the system's code is
   timed every [calib_every_ms] of the window (and around each set-up);
   wall metrics are rescaled to a reference host on which the kernel
   takes [calib_ref_ms].  The raw figures stay in the detail line. *)
let calib_ref_ms = 50.0
let calib_every_ms = 500.0
let calib_on = ref false
let calib_samples : (float * float) list ref = ref []  (* (time, kernel ms) *)
let calib_alloc = ref 0.0 (* bytes the kernel allocated in the window *)
let calib_due = ref 0.0

let calibrate () =
  let g = Prng.create 42 in
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ms () in
  let l = List.init 100_000 (fun _ -> Prng.int g 1_000_000) in
  let h = Hashtbl.create 4096 in
  List.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) (List.sort compare l);
  ignore (Sys.opaque_identity (Hashtbl.length h));
  let ms = now_ms () -. t0 in
  calib_alloc := !calib_alloc +. (Gc.allocated_bytes () -. a0);
  ms

let maybe_calibrate () =
  let t = now_ms () in
  if !calib_on && t >= !calib_due then begin
    let ms = calibrate () in
    calib_samples := (t, ms) :: !calib_samples;
    calib_due := t +. calib_every_ms
  end

(* Host speed at wall time [t]: reference over the median kernel time
   of the three samples nearest to [t]. *)
let speed_at samples t =
  let nearest =
    List.sort (fun (a, _) (b, _) -> compare (Float.abs (a -. t)) (Float.abs (b -. t))) samples
  in
  let ms = List.filteri (fun i _ -> i < 3) nearest |> List.map snd |> List.sort compare in
  match ms with
  | [] -> 1.0
  | _ -> calib_ref_ms /. List.nth ms (List.length ms / 2)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Every cumulative counter the metrics are deltas of. *)
let counters (st : Bench_fed.system) srv =
  let net f = fi (List.fold_left (fun acc s -> acc + f s) 0 st.Bench_fed.net) in
  let cat = Nimble.catalog st.Bench_fed.sys in
  let fr = Frag_cache.stats (Med_catalog.frag_cache cat) in
  let se = Sem_cache.stats (Nimble.sem_cache st.Bench_fed.sys) in
  let ma = Mat_cache.stats (Nimble.cache st.Bench_fed.sys) in
  let retries, give_ups, fast_fails = Src_retry.counters () in
  let guide, value, walker = Idx_manager.counters () in
  let gc = Gc.quick_stat () in
  let plan =
    match srv with
    | Some s -> Srv_plancache.stats (Srv_dispatch.plan_cache s)
    | None -> { Srv_plancache.hits = 0; misses = 0; evictions = 0; invalidations = 0; fallbacks = 0 }
  in
  [ ("net.calls", net (fun s -> s.Net_sim.calls));
    ("net.rows", net (fun s -> s.Net_sim.tuples_shipped));
    ("net.failed", net (fun s -> s.Net_sim.failed));
    ("net.virtual_ms",
      List.fold_left (fun acc s -> acc +. s.Net_sim.virtual_ms) 0.0 st.Bench_fed.net);
    ("src.calls", fi st.Bench_fed.counters.Bench_fed.calls);
    ("src.rows", fi st.Bench_fed.counters.Bench_fed.rows);
    ("frag.hits", fi fr.Frag_cache.frag_hits); ("frag.misses", fi fr.Frag_cache.frag_misses);
    ("frag.evictions", fi fr.Frag_cache.frag_evictions);
    ("frag.invalidations", fi fr.Frag_cache.frag_invalidations);
    ("sem.hits", fi se.Sem_cache.sem_hits); ("sem.partials", fi se.Sem_cache.sem_partials);
    ("sem.misses", fi se.Sem_cache.sem_misses); ("sem.evictions", fi se.Sem_cache.sem_evictions);
    ("sem.rows_local", fi se.Sem_cache.sem_rows_local);
    ("sem.rows_shipped", fi se.Sem_cache.sem_rows_shipped);
    ("mat.hits", fi ma.Mat_cache.cache_hits); ("mat.misses", fi ma.Mat_cache.cache_misses);
    ("retry.retries", fi retries); ("retry.give_ups", fi give_ups);
    ("retry.fast_fails", fi fast_fails);
    ("retry.stale", fi (Option.value ~default:0 (Obs_metrics.counter_value "retry.stale_served")));
    ("sem.bytes", fi (Sem_cache.bytes_used (Nimble.sem_cache st.Bench_fed.sys)));
    ("idx.bytes", fi (Idx_manager.total_bytes ()));
    ("idx.guide", fi guide); ("idx.value", fi value); ("idx.walker", fi walker);
    ("plan.hits", fi plan.Srv_plancache.hits); ("plan.misses", fi plan.Srv_plancache.misses);
    ("plan.invalidations", fi plan.Srv_plancache.invalidations);
    ("plan.fallbacks", fi plan.Srv_plancache.fallbacks);
    ("gc.minor", fi gc.Gc.minor_collections); ("gc.major", fi gc.Gc.major_collections);
    ("gc.top_heap_words", fi gc.Gc.top_heap_words);
    ("gc.alloc", Gc.allocated_bytes ()) ]

let delta after before name = List.assoc name after -. List.assoc name before

(* ------------------------------------------------------------------ *)
(* Ops and the answer log                                              *)
(* ------------------------------------------------------------------ *)

type op = {
  start_ms : float;   (** wall clock when the op started *)
  wall_ms : float;
  virtual_ms : float;
  failed : bool;      (** errored or rejected *)
  incomplete : bool;  (** answered with skipped or stale sources *)
  key : string;       (** distinct-answer key (text, or request @ data version) *)
  digest : string;
  queue_wait_ms : float;
}

(* What the answer check replays, in order. *)
type logged =
  | L_op of int
  | L_write of string * string  (** source, SQL *)

(* Everything a window leaves behind. *)
type window = {
  ops : op array;               (** in settlement order *)
  log : logged list;            (** in execution order *)
  requests : (string, string * string * (string * string) list) Hashtbl.t;
      (** lens key -> (lens, query, args) *)
  window_ms : float;            (** wall length of the window *)
  calib_ms : float;             (** part of it spent in the host-speed kernel *)
  at_start : (string * float) list;
  at_prefix : (string * float) list;  (** counters when the prefix-th op settled *)
  at_end : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type bench = {
  st : Bench_fed.system;
  srv : Srv_dispatch.t option;
  data : Bench_fed.data;
  ws : Bench_work.working_set option;
  first_id : int;  (** server id of the first request after warm-up *)
}

(* Mean inter-arrival gap of the lens stream, in virtual ms. *)
let lens_gap_ms = 10.0
let write_every = function "lens_churn" -> 10 | _ -> 0
let churn_policy =
  {
    Src_retry.default_policy with
    max_retries = 1;
    base_backoff_ms = 10.0;
    max_backoff_ms = 40.0;
    jitter = 0.25;
    serve_stale = true;
  }

let lens_mode = function "lens_churn" -> Srv_request.Partial | _ -> Srv_request.Strict

let submit_exn srv (r : Bench_work.request) mode =
  match
    Srv_dispatch.submit srv ~session:r.Bench_work.session ~lens:r.Bench_work.lens
      ~query:r.Bench_work.query ~args:r.Bench_work.args ~mode ()
  with
  | Ok id -> id
  | Error m -> failwith ("submit: " ^ m)

(* Build the data and the system, register sources, warm up. *)
let setup cfg =
  Obs_clock.reset_virtual ();
  Idx_manager.clear ();
  Obs_metrics.reset_all ();
  let data = Bench_fed.generate ~seed:cfg.seed ~scale:cfg.scale in
  match cfg.workload with
  | "fed_analytics" ->
    let st = Bench_fed.build ~seed:cfg.seed data in
    List.iter
      (fun (_, text) -> ignore (Nimble.query st.Bench_fed.sys text))
      (Bench_work.fed_warmup ~seed:cfg.seed data);
    { st; srv = None; data; ws = None; first_id = 0 }
  | wl ->
    let churn = wl = "lens_churn" in
    let faults =
      if churn then
        [ ( "catalog",
            Net_sim.availability_schedule ~seed:cfg.seed ~availability:0.8 ~period_ms:200.0
              ~horizon_ms:1.0e6 ) ]
      else []
    in
    let st =
      Bench_fed.build ~faults ~frag_capacity:4096 ~frag_ttl_ms:8000.0
        ~sem_budget_bytes:(16 lsl 20) ~seed:cfg.seed data
    in
    if churn then Nimble.set_retry_policy st.Bench_fed.sys churn_policy;
    (* Room for the bursts that build up behind retry back-offs: at this
       offered rate the queue drains, and nothing is shed. *)
    let config =
      { Srv_dispatch.default_config with
        queue = { Srv_admit.queue_capacity = 64; max_session_in_flight = 16 } }
    in
    let srv = Srv_dispatch.create ~config st.Bench_fed.sys in
    List.iter
      (fun (user, password, _) ->
        match Srv_dispatch.open_session srv ~user ~password with
        | Ok _ -> ()
        | Error m -> failwith m)
      Bench_fed.users;
    (* Warm-up: every request of the working set once, as an analyst. *)
    let ws = Bench_work.working_set ~seed:cfg.seed data in
    let warm = Bench_work.all_requests ws in
    List.iter
      (fun (lens, query, args) ->
        ignore
          (submit_exn srv
             { Bench_work.due_ms = 0.0; session = "ann"; lens; query; args }
             (lens_mode wl));
        Srv_dispatch.drain srv)
      warm;
    { st; srv = Some srv; data; ws = Some ws; first_id = List.length warm }

(* ------------------------------------------------------------------ *)
(* Timed windows                                                       *)
(* ------------------------------------------------------------------ *)

(* [stop ~issued ~settled] ends the window. *)
let fed_window cfg b ~stop =
  let sys = b.st.Bench_fed.sys in
  let cat = Nimble.catalog sys in
  let next = Bench_work.fed_stream ~seed:cfg.seed b.data in
  let ops = ref [] and log = ref [] and n = ref 0 in
  let at_prefix = ref [] in
  let at_start = counters b.st None in
  let t_start = now_ms () in
  while not (stop ~issued:!n ~settled:!n) do
    maybe_calibrate ();
    let _, text = next () in
    let misses0 = (Mat_cache.stats (Nimble.cache sys)).Mat_cache.cache_misses in
    Bench_trace.current_op := !n;
    let v0 = Obs_clock.virtual_ms () in
    let t0 = now_ms () in
    let r = Bench_trace.with_span "op" (fun () -> Nimble.query sys text) in
    let t1 = now_ms () in
    let v1 = Obs_clock.virtual_ms () in
    let op =
      match r with
      | Ok trees ->
        { start_ms = t0; wall_ms = t1 -. t0; virtual_ms = v1 -. v0; failed = false; incomplete = false;
          key = text; digest = digest_trees trees; queue_wait_ms = 0.0 }
      | Error msg ->
        report_failure (msg ^ " in: " ^ text);
        { start_ms = t0; wall_ms = t1 -. t0; virtual_ms = v1 -. v0; failed = true; incomplete = false;
          key = text; digest = ""; queue_wait_ms = 0.0 }
    in
    ops := op :: !ops;
    log := L_op !n :: !log;
    incr n;
    if !n = cfg.prefix then at_prefix := counters b.st None;
    if !Bench_trace.enabled then begin
      (* Parse runs inside every [Nimble.query]; compile only on a
         result-cache miss.  Re-invoke both on the same input. *)
      match Bench_trace.with_span ~reinvoked:true "xq_parse" (fun () -> Xq_parser.parse text) with
      | Ok q
        when (Mat_cache.stats (Nimble.cache sys)).Mat_cache.cache_misses > misses0 ->
        ignore
          (Bench_trace.with_span ~reinvoked:true "med_compile" (fun () ->
               Med_exec.compile cat q))
      | Ok _ | Error _ -> ()
    end
  done;
  let t_end = now_ms () in
  {
    ops = Array.of_list (List.rev !ops);
    log = List.rev !log;
    requests = Hashtbl.create 1;
    window_ms = t_end -. t_start;
    calib_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 !calib_samples;
    at_start;
    at_prefix = (if !at_prefix = [] then counters b.st None else !at_prefix);
    at_end = counters b.st None;
  }

(* The distinct-answer key of a request: the request plus the version
   of the data it reads.  Every lens query that takes a customer code
   reads only that customer's rows, and every write touches one
   customer's rows, so versions count writes per (source, code); other
   queries count every write to their sources. *)
let lens_key (r : Bench_work.request) versions =
  let code = List.assoc_opt "code" r.Bench_work.args in
  let writes src =
    Hashtbl.fold
      (fun (s, c) n acc -> if s = src && (code = None || code = Some c) then acc + n else acc)
      versions 0
  in
  let version =
    List.fold_left (fun acc src -> acc + writes src) 0
      (Bench_fed.lens_sources (r.Bench_work.lens, r.Bench_work.query))
  in
  Printf.sprintf "%s/%s?%s@%d" r.Bench_work.lens r.Bench_work.query
    (String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) r.Bench_work.args))
    version

let lens_window cfg b ~stop =
  let sys = b.st.Bench_fed.sys in
  let cat = Nimble.catalog sys in
  let srv = Option.get b.srv and ws = Option.get b.ws in
  let mode = lens_mode cfg.workload in
  let next =
    Bench_work.lens_stream ~seed:cfg.seed ~gap_ms:lens_gap_ms
      ~write_every:(write_every cfg.workload) ~start_ms:(Obs_clock.virtual_ms ()) b.data ws
  in
  (* A shadow plan cache on the same catalog sees the same lookups and
     mutation events; the traced run times its lookups, since the
     server's own lookup is only reachable inside [Srv_dispatch]. *)
  let shadow = if !Bench_trace.enabled then Some (Srv_plancache.create cat) else None in
  let versions = Hashtbl.create 4 in
  let pending = Hashtbl.create 64 in  (* server id -> request *)
  let requests = Hashtbl.create 512 in
  let ops = ref [] and log = ref [] and issued = ref 0 and settled = ref 0 in
  let settled_now = ref [] in
  let at_prefix = ref [] in
  let mark = ref (now_ms ()) in
  let stale_seen = ref (Option.value ~default:0 (Obs_metrics.counter_value "retry.stale_served")) in
  (* Requests run serially inside [submit]/[tick]/[drain]; each one's
     wall time runs from the previous settlement (or the call's start)
     to its own settlement. *)
  Srv_dispatch.set_listener srv (fun id outcome ->
      let t = now_ms () in
      let start = !mark in
      let wall = t -. start in
      mark := t;
      let stale_total = Option.value ~default:0 (Obs_metrics.counter_value "retry.stale_served") in
      let stale = stale_total > !stale_seen in
      stale_seen := stale_total;
      let (r : Bench_work.request) = Hashtbl.find pending id in
      Hashtbl.remove pending id;
      (* Keyed at execution time: a queued request sees the writes made
         before it ran. *)
      let key = lens_key r versions in
      Hashtbl.replace requests key (r.Bench_work.lens, r.Bench_work.query, r.Bench_work.args);
      let op =
        match outcome with
        | Srv_request.Completed rep ->
          {
            start_ms = start;
            wall_ms = wall;
            virtual_ms = rep.Srv_request.rep_start_ms +. rep.Srv_request.rep_service_ms -. r.Bench_work.due_ms;
            failed = false;
            incomplete = stale || rep.Srv_request.rep_skipped <> [];
            key;
            digest = Digest.to_hex (Digest.string rep.Srv_request.rep_output);
            queue_wait_ms = Srv_request.queue_wait_ms rep;
          }
        | Srv_request.Rejected rej ->
          report_failure (key ^ ": " ^ Srv_request.reject_to_string rej);
          { start_ms = start; wall_ms = wall; virtual_ms = 0.0; failed = true; incomplete = false; key;
            digest = ""; queue_wait_ms = 0.0 }
      in
      ops := op :: !ops;
      log := L_op !settled :: !log;
      settled_now := (r, outcome) :: !settled_now;
      incr settled;
      if !settled = cfg.prefix then at_prefix := counters b.st b.srv);
  let call f =
    mark := now_ms ();
    Bench_trace.with_span "op" f;
    (match shadow with
    | None -> ()
    | Some sh ->
      List.iter
        (fun ((r : Bench_work.request), outcome) ->
          match outcome with
          | Srv_request.Completed rep ->
            let lens = Option.get (Nimble.find_lens sys r.Bench_work.lens) in
            ignore
              (Bench_trace.with_span ~reinvoked:true "srv_plancache.lookup" (fun () ->
                   Srv_plancache.lookup sh ~lens ~query:r.Bench_work.query ~args:r.Bench_work.args));
            if not rep.Srv_request.rep_plan_hit then begin
              let q = Fe_lens.instantiate lens r.Bench_work.query r.Bench_work.args in
              let text = Xq_pretty.query_to_string q in
              ignore (Bench_trace.with_span ~reinvoked:true "xq_parse" (fun () -> Xq_parser.parse text));
              ignore
                (Bench_trace.with_span ~reinvoked:true "med_compile" (fun () ->
                     Med_exec.compile cat q))
            end
          | Srv_request.Rejected _ -> ())
        (List.rev !settled_now));
    settled_now := []
  in
  (* Let virtual time pass until [target]; while requests are queued,
     step in 0.5 ms increments so an engine picks up queued work soon
     after it frees, not only when the next request arrives. *)
  let rec advance_to target =
    let now = Obs_clock.virtual_ms () in
    if now < target then begin
      let queued = Srv_admit.depth (Srv_dispatch.admit srv) > 0 in
      Obs_clock.advance (if queued then Float.min 0.5 (target -. now) else target -. now);
      call (fun () -> Srv_dispatch.tick srv);
      advance_to target
    end
  in
  let at_start = counters b.st b.srv in
  let t_start = now_ms () in
  while not (stop ~issued:!issued ~settled:!settled) do
    maybe_calibrate ();
    match next () with
    | Bench_work.Write { source; code; sql } ->
      ignore (Rel_db.exec (List.assoc source b.st.Bench_fed.dbs) sql);
      ignore (Nimble.invalidate_source sys source);
      Hashtbl.replace versions (source, code)
        (1 + Option.value ~default:0 (Hashtbl.find_opt versions (source, code)));
      log := L_write (source, sql) :: !log
    | Bench_work.Req r ->
      advance_to r.Bench_work.due_ms;
      Bench_trace.current_op := !issued;
      (* Ids are assigned in submission order, and the request may settle
         before [submit] returns, so register it under its id first. *)
      Hashtbl.replace pending (b.first_id + !issued) r;
      call (fun () -> ignore (submit_exn srv r mode));
      incr issued
  done;
  call (fun () -> Srv_dispatch.drain srv);
  let t_end = now_ms () in
  {
    ops = Array.of_list (List.rev !ops);
    log = List.rev !log;
    requests;
    window_ms = t_end -. t_start;
    calib_ms = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 !calib_samples;
    at_start;
    at_prefix = (if !at_prefix = [] then counters b.st b.srv else !at_prefix);
    at_end = counters b.st b.srv;
  }

(* ------------------------------------------------------------------ *)
(* Answer check                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = {
  digest : string;     (** the oracle's answer digest *)
  construct_ms : float;
  format_ms : float;
  bindings : int;
  trees : int;
}

type checked = {
  wrong : bool array;  (** per op: the answer differs from the oracle's *)
  mismatched : int;    (** how many are wrong *)
  distinct : int;      (** distinct answers checked *)
  verdicts : (string, verdict) Hashtbl.t;
}

let timed f =
  let t0 = now_ms () in
  let x = f () in
  (x, now_ms () -. t0)

(* Replay the window's log against a fresh, unwrapped, cache-free copy
   of the federation and check every distinct complete answer against
   [Xq_eval] over the catalog's direct resolver.  The resolver is
   memoized: each view evaluates once per data version, and a write
   drops the written source's documents and every view.  Construct and
   format are timed here, on the oracle's bindings — the same input the
   engine's construct saw when the answers agree. *)
let check cfg data (w : window) =
  let ref_st = Bench_fed.build ~measured:false ~cache_capacity:0 ~seed:cfg.seed data in
  let ref_sys = ref_st.Bench_fed.sys in
  let cat = Nimble.catalog ref_sys in
  let memo = Hashtbl.create 16 in
  let rec resolve name =
    match Hashtbl.find_opt memo name with
    | Some docs -> docs
    | None ->
      let docs =
        match Med_catalog.find_view cat name with
        | Some v -> List.concat_map (Xq_eval.eval resolve) v.Med_catalog.definitions
        | None -> Med_exec.direct_resolver cat name
      in
      Hashtbl.replace memo name docs;
      docs
  in
  let evaluate key =
    let q, device =
      match Hashtbl.find_opt w.requests key with
      | Some (lens, query, args) ->
        let l = Option.get (Nimble.find_lens ref_sys lens) in
        (Fe_lens.instantiate l query args, Some l.Fe_lens.device)
      | None -> (Xq_parser.parse_exn key, None)
    in
    let envs = Xq_eval.bindings resolve q in
    let trees, construct_ms =
      timed (fun () ->
          List.concat_map (fun env -> Xq_eval.instantiate resolve env q.Xq_ast.construct) envs)
    in
    let digest, format_ms =
      match device with
      | Some d ->
        let out, ms = timed (fun () -> Fe_format.render d trees) in
        (Digest.to_hex (Digest.string out), ms)
      | None -> (digest_trees trees, 0.0)
    in
    { digest; construct_ms; format_ms; bindings = List.length envs; trees = List.length trees }
  in
  let verdicts = Hashtbl.create 256 in
  let wrong = Array.make (Array.length w.ops) false in
  let mismatched = ref 0 in
  List.iter
    (function
      | L_write (source, sql) ->
        ignore (Rel_db.exec (List.assoc source ref_st.Bench_fed.dbs) sql);
        Hashtbl.filter_map_inplace
          (fun name docs ->
            if String.starts_with ~prefix:(source ^ ".") name
               || Med_catalog.find_view cat name <> None
            then None
            else Some docs)
          memo
      | L_op i ->
        let op = w.ops.(i) in
        if not (op.failed || op.incomplete) then begin
          let v =
            match Hashtbl.find_opt verdicts op.key with
            | Some v -> v
            | None ->
              let v =
                try evaluate op.key
                with e ->
                  prerr_endline ("nimble_bench: oracle failed: " ^ Printexc.to_string e);
                  { digest = ""; construct_ms = 0.0; format_ms = 0.0; bindings = 0; trees = 0 }
              in
              Hashtbl.replace verdicts op.key v;
              v
          in
          if v.digest <> op.digest then begin
            if !mismatched < 3 then prerr_endline ("nimble_bench: wrong answer for " ^ op.key);
            wrong.(i) <- true;
            incr mismatched
          end
        end)
    w.log;
  { wrong; mismatched = !mismatched; distinct = Hashtbl.length verdicts; verdicts }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let count_where f ops = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 ops

let prefix_of n ops = Array.sub ops 0 (min n (Array.length ops))

let completed ops = List.filter (fun o -> not o.failed) (Array.to_list ops)

let failed_ops (w : window) (c : checked) =
  count_where (fun o -> o.failed) w.ops + c.mismatched

(* Failed and incomplete fractions over the first [n] ops, where the
   seeded counts are taken. *)
let fractions n (w : window) (c : checked) =
  let ops = prefix_of n w.ops in
  let failed = ref 0 and incomplete = ref 0 in
  Array.iteri
    (fun i o ->
      if o.failed || c.wrong.(i) then incr failed
      else if o.incomplete then incr incomplete)
    ops;
  let n = Array.length ops in
  (ratio (fi !failed) (fi n), ratio (fi !incomplete) (fi (n - !failed)))

(* Wall statistics are medians over up to [chunks] consecutive slices of
   the window, each at least one fed_analytics template cycle long, so a
   noisy stretch of the host moves only a few slices. *)
let chunks = 20

let chunked (ops : op array) stat =
  let n = Array.length ops in
  let size = max (Array.length Bench_work.fed_cycle) (n / chunks) in
  median
    (List.init (max 1 (n / size)) (fun i ->
         stat (Array.to_list (Array.sub ops (i * size) (min size (n - (i * size)))))))

(* [speed] rescales an op's wall time to the reference host. *)
let end_to_end cfg ~setup_samples ~speed (w : window) (c : checked) =
  let raw_ms = Array.fold_left (fun acc o -> acc +. o.wall_ms) 0.0 w.ops in
  let ops = Array.map (fun o -> { o with wall_ms = o.wall_ms *. speed o.start_ms }) w.ops in
  let norm_ms = Array.fold_left (fun acc o -> acc +. o.wall_ms) 0.0 ops in
  let window_speed = ratio norm_ms raw_ms in
  let w = { w with ops } in
  let n = Array.length w.ops in
  let pre = prefix_of cfg.prefix w.ops in
  let m_pre = fi (Array.length pre) in
  let done_ = completed w.ops in
  let wall_pct p ops =
    percentile p (List.filter_map (fun o -> if o.failed then None else Some o.wall_ms) ops)
  in
  let virt = List.map (fun o -> o.virtual_ms) (completed pre) in
  let d = delta w.at_prefix w.at_start in
  let failed_frac, incomplete_frac = fractions cfg.prefix w c in
  [ m "setup_s" "s" (median setup_samples);
    m "op_wall_ms.p50" "ms" (chunked w.ops (wall_pct 0.5));
    m "op_wall_ms.p90" "ms" (chunked w.ops (wall_pct 0.9));
    m "ops_per_s" "1/s"
      (fi (List.length done_) /. ((w.window_ms -. w.calib_ms) /. 1000.0) /. window_speed);
    m "op_virtual_ms.mean" "ms" (List.fold_left ( +. ) 0.0 virt /. fi (List.length virt));
    m "op_virtual_ms.p50" "ms" (percentile 0.5 virt);
    m "op_virtual_ms.p90" "ms" (percentile 0.9 virt);
    m "op_virtual_ms.p99" "ms" (percentile 0.99 virt);
    m "shipped_rows_per_op" "rows" (d "net.rows" /. m_pre);
    m "source_calls_per_op" "calls" (d "net.calls" /. m_pre);
    m "failed_frac" "frac" failed_frac;
    m "incomplete_frac" "frac" incomplete_frac;
    m "alloc_mb_per_op" "MB"
      ((delta w.at_end w.at_start "gc.alloc" -. !calib_alloc) /. fi n /. 1e6);
    (* At the prefix: the server keeps every outcome, so the peak heap
       of the whole window grows with how many ops the host fits in it. *)
    m "heap_top_mb" "MB"
      (List.assoc "gc.top_heap_words" w.at_prefix *. fi (Sys.word_size / 8) /. 1e6) ]

(* Layers, from the traced window [w] (and the untraced twin's op wall
   time), with ms figures rescaled by [speed].  Parse, compile,
   plan-cache lookup, construct and format are re-invoked timings;
   source fetches are real child spans of the ops; [engine_rest] is what
   remains of the op time — mediator execution, the algebra engine, the
   caches and the network simulator. *)
let per_layer cfg ~speed ~untraced_ms (w : window) (c : checked) =
  let n = fi (Array.length w.ops) in
  let spans = Bench_trace.totals () in
  let incl name =
    match Hashtbl.find_opt spans name with Some (_, ms, _) -> ms *. speed | None -> 0.0
  in
  let per_op x = x /. n in
  let d = delta w.at_end w.at_start in
  let is_fed = cfg.workload = "fed_analytics" in
  let checked_ops = List.filter (fun o -> not (o.failed || o.incomplete)) (Array.to_list w.ops) in
  let sum f =
    List.fold_left
      (fun acc o ->
        match Hashtbl.find_opt c.verdicts o.key with Some v -> acc +. f v | None -> acc)
      0.0 checked_ops
  in
  let op_ms = incl "op" in
  let src_rel = incl "src.rel.fetch" and src_xml = incl "src.xml.fetch" in
  let src_csv = incl "src.csv.fetch" in
  let sources = src_rel +. src_xml +. src_csv in
  let parse = incl "xq_parse" and compile = incl "med_compile" in
  let lookup = incl "srv_plancache.lookup" in
  let construct = speed *. sum (fun v -> v.construct_ms) in
  let format = speed *. sum (fun v -> v.format_ms) in
  let front = if is_fed then parse +. compile else lookup in
  let rest = Float.max 0.0 (op_ms -. sources -. front -. construct -. format) in
  let share x = ratio x op_ms in
  let hit_ratio hits misses = ratio hits (hits +. misses) in
  let waits = List.map (fun o -> o.queue_wait_ms) (completed w.ops) in
  let failed_frac, incomplete_frac = fractions (Array.length w.ops) w c in
  [ m "xq_parse.ms_per_op" "ms" (per_op parse);
    m "med_compile.ms_per_op" "ms" (per_op compile);
    m "srv_plancache.lookup_ms_per_op" "ms" (per_op lookup);
    m "srv_plancache.hit_ratio" "ratio" (hit_ratio (d "plan.hits") (d "plan.misses"));
    m "srv_plancache.invalidations" "count" (d "plan.invalidations");
    m "srv_plancache.fallbacks" "count" (d "plan.fallbacks");
    m "srv_admit.queue_wait_virtual_ms.p99" "ms" (if is_fed then 0.0 else percentile 0.99 waits);
    m "srv_admit.rejected" "count" (fi (count_where (fun o -> o.failed) w.ops));
    m "src.rel.fetch_ms_per_op" "ms" (per_op src_rel);
    m "src.xml.fetch_ms_per_op" "ms" (per_op src_xml);
    m "src.csv.fetch_ms_per_op" "ms" (per_op src_csv);
    m "src.calls_per_op" "calls" (per_op (d "src.calls"));
    m "src.rows_per_op" "rows" (per_op (d "src.rows"));
    m "src.failed" "count" (d "net.failed");
    m "net_sim.virtual_ms_per_op" "ms" (per_op (d "net.virtual_ms"));
    m "frag_cache.hit_ratio" "ratio" (hit_ratio (d "frag.hits") (d "frag.misses"));
    m "frag_cache.evictions" "count" (d "frag.evictions");
    m "frag_cache.invalidations" "count" (d "frag.invalidations");
    m "frag_cache.stale_serves" "count" (d "retry.stale");
    m "sem_cache.hit_ratio" "ratio"
      (hit_ratio (d "sem.hits" +. d "sem.partials") (d "sem.misses"));
    m "sem_cache.local_row_ratio" "ratio" (hit_ratio (d "sem.rows_local") (d "sem.rows_shipped"));
    m "sem_cache.evictions" "count" (d "sem.evictions");
    m "sem_cache.bytes_used" "bytes" (List.assoc "sem.bytes" w.at_end);
    m "mat_cache.hit_ratio" "ratio" (hit_ratio (d "mat.hits") (d "mat.misses"));
    m "src_retry.retries" "count" (d "retry.retries");
    m "src_retry.give_ups" "count" (d "retry.give_ups");
    m "src_retry.breaker_fast_fails" "count" (d "retry.fast_fails");
    m "alg_exec.self_ms_per_op" "ms" (per_op rest);
    m "alg_exec.rows_per_op" "rows" (per_op (sum (fun v -> fi v.bindings)));
    m "construct.ms_per_op" "ms" (per_op construct);
    m "construct.trees_per_op" "trees" (per_op (sum (fun v -> fi v.trees)));
    m "fe_format.ms_per_op" "ms" (per_op format);
    m "idx.guide_probes" "count" (d "idx.guide");
    m "idx.value_probes" "count" (d "idx.value");
    m "idx.walker_fallbacks" "count" (d "idx.walker");
    m "idx.bytes" "bytes" (List.assoc "idx.bytes" w.at_end);
    m "gc.minor_per_op" "1/op" (per_op (d "gc.minor"));
    m "gc.major_per_op" "1/op" (per_op (d "gc.major"));
    m "trace.overhead_frac" "frac" (ratio op_ms untraced_ms -. 1.0);
    m "failed_frac" "frac" failed_frac;
    m "incomplete_frac" "frac" incomplete_frac;
    m "share.xmlql_parse" "frac" (if is_fed then share parse else 0.0);
    m "share.mediator_compile" "frac" (if is_fed then share compile else 0.0);
    m "share.srv_plancache" "frac" (if is_fed then 0.0 else share lookup);
    m "share.sources" "frac" (share sources);
    m "share.construct" "frac" (share construct);
    m "share.fe_format" "frac" (share format);
    m "share.engine_rest" "frac" (share rest) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let window cfg b ~stop =
  match cfg.workload with
  | "fed_analytics" -> fed_window cfg b ~stop
  | _ -> lens_window cfg b ~stop

let metrics_json ms =
  Obj (List.map (fun x -> (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ])) ms)

let op_wall_total (w : window) = Array.fold_left (fun acc o -> acc +. o.wall_ms) 0.0 w.ops

let () =
  let cfg = parse_args () in
  let data_sizes = Bench_fed.sizes_of_scale cfg.scale in
  let detail = ref [] and notes = ref [] in
  let result =
    if not cfg.trace then begin
      (* Set up [setups] times and keep the last system.  Each set-up is
         bracketed by host-speed kernel timings; its rescaled time uses
         their mean. *)
      let samples = ref [] and norm_samples = ref [] and last = ref None in
      let setup_calib = ref [ calibrate () ] in
      for _ = 1 to cfg.setups do
        last := None;
        Gc.full_major ();
        let b, ms = timed (fun () -> setup cfg) in
        let before = List.hd !setup_calib and after = calibrate () in
        setup_calib := after :: !setup_calib;
        samples := (ms /. 1000.0) :: !samples;
        norm_samples := (ms /. 1000.0 *. calib_ref_ms *. 2.0 /. (before +. after)) :: !norm_samples;
        last := Some b
      done;
      let b = Option.get !last in
      let deadline = now_ms () +. (cfg.seconds *. 1000.0) in
      calib_samples := [];
      calib_due := 0.0;
      calib_on := true;
      calib_alloc := 0.0;
      let w =
        window cfg b ~stop:(fun ~issued:_ ~settled -> settled >= cfg.prefix && now_ms () >= deadline)
      in
      calib_on := false;
      let c, check_ms = timed (fun () -> check cfg b.data w) in
      let raw = end_to_end cfg ~setup_samples:!samples ~speed:(fun _ -> 1.0) w c in
      let norm =
        end_to_end cfg ~setup_samples:!norm_samples ~speed:(speed_at !calib_samples) w c
      in
      detail :=
        [ ("setup_samples_s", Arr (List.rev_map (fun x -> Num x) !samples));
          ("distinct_answers_checked", Int c.distinct);
          ("check_s", Num (check_ms /. 1000.0));
          ("calib_ms", Arr (List.rev_map (fun (_, x) -> Num x) !calib_samples));
          ("setup_calib_ms", Arr (List.rev_map (fun x -> Num x) !setup_calib));
          ("raw_metrics", metrics_json raw) ];
      (w, c, norm)
    end
    else begin
      (* Untraced and traced passes over the same [prefix] ops, each on
         a fresh set-up; the traced one gives the layers. *)
      let pass ~traced =
        Gc.full_major ();
        let b = setup cfg in
        Bench_trace.reset ();
        Bench_trace.enabled := traced;
        calib_samples := [];
        calib_due := 0.0;
        calib_on := true;
        let w = window cfg b ~stop:(fun ~issued ~settled:_ -> issued >= cfg.prefix) in
        calib_on := false;
        Bench_trace.enabled := false;
        (b, w, calib_ref_ms /. median (List.map snd !calib_samples))
      in
      let _, untraced, untraced_speed = pass ~traced:false in
      let b, w, speed = pass ~traced:true in
      let c = check cfg b.data w in
      Option.iter Bench_trace.write cfg.spans_out;
      notes :=
        [ Str "xq_parse, med_compile, srv_plancache.lookup: re-invoked on the op's input after the op (lookup on a shadow plan cache)";
          Str "construct, fe_format: re-invoked on the answer check's bindings and trees";
          Str "src.*.fetch: real spans from a wrapper under Net_sim" ];
      let spans =
        Hashtbl.fold
          (fun name (count, incl, self) acc ->
            ( name,
              Obj [ ("count", Int count); ("incl_ms", Num (incl *. speed));
                    ("self_ms", Num (self *. speed)) ] )
            :: acc)
          (Bench_trace.totals ()) []
      in
      detail :=
        [ ("distinct_answers_checked", Int c.distinct);
          ("spans", Obj (List.sort compare spans)) ];
      (w, c, per_layer cfg ~speed ~untraced_ms:(op_wall_total untraced *. untraced_speed) w c)
    end
  in
  let w, c, metrics = result in
  let attempted = Array.length w.ops in
  let failed = failed_ops w c in
  let correct = c.mismatched = 0 && failed = 0 in
  let report =
    Obj
      ([ ("workload", Str cfg.workload); ("seed", Int cfg.seed);
         ("seconds", Num cfg.seconds); ("trace", Bool cfg.trace);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("ocaml", Str Sys.ocaml_version); ("commit", Str cfg.commit);
         ("scale", Num cfg.scale);
         ("sizes", Obj (List.map (fun (k, v) -> (k, Int v)) (Bench_fed.sizes_fields data_sizes)));
         ("ops", Int attempted); ("prefix_ops", Int (min cfg.prefix attempted));
         ("window_s", Num (w.window_ms /. 1000.0)) ]
      @ !detail
      @ [ ("reinvoked", Arr !notes); ("metrics", metrics_json metrics) ])
  in
  print_endline ("detail " ^ json_to_string report);
  (* Zero by design, or quantized to the same value on every seed: kept
     in the detail line, left out of the result's end-to-end set. *)
  let contract =
    [ "failed_frac"; "incomplete_frac"; "op_virtual_ms.p50"; "op_virtual_ms.p90";
      "op_virtual_ms.p99" ]
  in
  let reported =
    if cfg.trace then metrics else List.filter (fun x -> not (List.mem x.name contract)) metrics
  in
  print_endline
    (json_to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Int attempted); ("failed", Int failed);
            ("metrics", metrics_json reported) ]))
