(* Fault injection & resilience: deterministic Net_sim fault schedules,
   the Src_retry backoff/deadline/breaker engine, partial-mode stale
   serving, and a chaos property driving random fault schedules through
   both execution engines (the morsel-driven one at one and two domains)
   in both strict and partial mode. *)

let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let check = Alcotest.check
let q = Xq_parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Harness: a one-source federation under a fault schedule             *)
(* ------------------------------------------------------------------ *)

let make_crm () =
  let db = Rel_db.create ~name:"crm" () in
  ignore (Rel_db.exec db "CREATE TABLE customers (id INT, name TEXT, tier INT)");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (1, 'Acme', 1)");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (2, 'Globex', 2)");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (3, 'Initech', 2)");
  db

let catalog ?(frag_capacity = 0) ?frag_ttl_ms ?(sem_budget = 0) ?(faults = []) () =
  let cat =
    Med_catalog.create ?frag_ttl_ms ~frag_capacity ~sem_budget_bytes:sem_budget ()
  in
  let src, _ =
    Net_sim.wrap ~seed:7 ~faults Net_sim.default_profile (Rel_source.make (make_crm ()))
  in
  Med_catalog.register_source cat src;
  cat

let query =
  q
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 2
      CONSTRUCT <c>$n</c>|}

let render r = List.map Dtree.to_string r.Med_exec.trees

(* The fault-free answer, computed against a twin catalog so neither
   caches nor breaker state bleed into the run under test. *)
let baseline () =
  Obs_clock.reset_virtual ();
  let cat = catalog () in
  let r = Med_exec.run_compiled cat (Med_exec.compile cat query) in
  render r

let pol ?(retries = 0) ?(base = 10.0) ?(max_b = 80.0) ?(jitter = 0.0) ?deadline
    ?(breaker = false) ?(threshold = 3) ?(cooldown = 100.0) ?(stale = false) () =
  {
    Src_retry.max_retries = retries;
    base_backoff_ms = base;
    max_backoff_ms = max_b;
    jitter;
    call_deadline_ms = deadline;
    breaker;
    breaker_threshold = threshold;
    breaker_cooldown_ms = cooldown;
    serve_stale = stale;
  }

let expect_unavailable name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Source.Unavailable")
  | exception Source.Unavailable _ -> ()
  | exception Alg_exec.Source_unavailable _ -> ()

(* ------------------------------------------------------------------ *)
(* Backoff arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_backoff_cap () =
  let p = pol ~base:10.0 ~max_b:40.0 ~jitter:0.0 () in
  let rng = Prng.create 1 in
  List.iteri
    (fun attempt expected ->
      Alcotest.(check (float 0.001))
        (Printf.sprintf "attempt %d" attempt)
        expected
        (Src_retry.backoff_ms p rng ~attempt))
    [ 10.0; 20.0; 40.0; 40.0; 40.0 ]

let test_backoff_jitter_deterministic () =
  let p = pol ~base:10.0 ~max_b:40.0 ~jitter:0.25 () in
  let seq rng = List.init 6 (fun attempt -> Src_retry.backoff_ms p rng ~attempt) in
  let a = seq (Prng.create 42) and b = seq (Prng.create 42) in
  check Alcotest.(list (float 0.000001)) "same seed, same jitter stream" a b;
  List.iteri
    (fun attempt d ->
      let capped = Float.min (10.0 *. (2.0 ** float_of_int attempt)) 40.0 in
      check bool_t
        (Printf.sprintf "attempt %d in [capped, capped*1.25]" attempt)
        true
        (d >= capped && d <= capped *. 1.25))
    a

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

let test_breaker_transitions () =
  Obs_clock.reset_virtual ();
  let t = Src_retry.create ~seed:3 () in
  Src_retry.set_policy t (pol ~breaker:true ~threshold:2 ~cooldown:50.0 ());
  let calls = ref 0 in
  let fail () =
    incr calls;
    raise (Source.Unavailable "s1")
  in
  let state () = Src_retry.breaker_state_name t "s1" in
  check string_t "unknown source reads closed" "closed" (state ());
  expect_unavailable "failure 1" (fun () -> Src_retry.call t ~source:"s1" fail);
  check string_t "one strike stays closed" "closed" (state ());
  expect_unavailable "failure 2" (fun () -> Src_retry.call t ~source:"s1" fail);
  check string_t "threshold opens the breaker" "open" (state ());
  (* Open + cooling down: fail fast, never touch the source. *)
  let before = !calls in
  let _, _, f0 = Src_retry.counters () in
  expect_unavailable "fast fail" (fun () -> Src_retry.call t ~source:"s1" fail);
  check int_t "fast fail skips the source" before !calls;
  let _, _, f1 = Src_retry.counters () in
  check int_t "fast fail counted" (f0 + 1) f1;
  Obs_clock.advance 49.0;
  expect_unavailable "still cooling" (fun () -> Src_retry.call t ~source:"s1" fail);
  check int_t "still fast-failing just before cool-down" before !calls;
  check string_t "still open" "open" (state ());
  (* Cool-down expired: one half-open probe goes through; its failure
     re-opens immediately. *)
  Obs_clock.advance 2.0;
  expect_unavailable "failed probe" (fun () -> Src_retry.call t ~source:"s1" fail);
  check int_t "probe touched the source" (before + 1) !calls;
  check string_t "failed probe re-opens" "open" (state ());
  (* Next cool-down: a successful probe closes the breaker. *)
  Obs_clock.advance 51.0;
  let r = Src_retry.call t ~source:"s1" (fun () -> incr calls; 42) in
  check int_t "successful probe answers" 42 r;
  check string_t "successful probe closes" "closed" (state ());
  (* Closed again: calls pass straight through. *)
  check int_t "pass-through after close" 7 (Src_retry.call t ~source:"s1" (fun () -> 7))

let test_call_deadline_gives_up () =
  Obs_clock.reset_virtual ();
  let t = Src_retry.create () in
  Src_retry.set_policy t (pol ~retries:5 ~base:10.0 ~jitter:0.0 ~deadline:12.0 ());
  let r0, u0, _ = Src_retry.counters () in
  expect_unavailable "deadline" (fun () ->
      Src_retry.call t ~source:"s" (fun () -> raise (Source.Unavailable "s")));
  let r1, u1, _ = Src_retry.counters () in
  check int_t "one retry fit the 12ms budget" 1 (r1 - r0);
  check int_t "second backoff overshot: gave up" 1 (u1 - u0);
  Alcotest.(check (float 0.001)) "only the first backoff was charged" 10.0
    (Obs_clock.virtual_ms ())

let test_query_deadline_bounds_retries () =
  Obs_clock.reset_virtual ();
  let t = Src_retry.create () in
  Src_retry.set_policy t (pol ~retries:3 ~base:10.0 ~jitter:0.0 ());
  let r0, u0, _ = Src_retry.counters () in
  expect_unavailable "query budget" (fun () ->
      Src_retry.with_query t ~deadline_ms:5.0 (fun () ->
          Src_retry.call t ~source:"s" (fun () -> raise (Source.Unavailable "s"))));
  let r1, u1, _ = Src_retry.counters () in
  check int_t "no retry fits a 5ms query budget" 0 (r1 - r0);
  check int_t "gave up instead" 1 (u1 - u0);
  Alcotest.(check (float 0.001)) "no backoff charged" 0.0 (Obs_clock.virtual_ms ())

(* ------------------------------------------------------------------ *)
(* Transient recovery through the mediator                             *)
(* ------------------------------------------------------------------ *)

let test_transient_window_recovers () =
  let expected = baseline () in
  Obs_clock.reset_virtual ();
  let cat = catalog ~faults:[ Net_sim.offline_window ~from_ms:0.0 ~until_ms:20.0 ] () in
  Med_catalog.set_retry_policy cat (pol ~retries:3 ~base:10.0 ());
  let r0, _, _ = Src_retry.counters () in
  let r = Med_exec.run_compiled cat (Med_exec.compile cat query) in
  let r1, _, _ = Src_retry.counters () in
  check Alcotest.(list string_t) "answer identical to fault-free run" expected (render r);
  check bool_t "at least one retry was spent" true (r1 - r0 >= 1)

let test_no_retries_fail_in_window () =
  Obs_clock.reset_virtual ();
  let cat = catalog ~faults:[ Net_sim.offline_window ~from_ms:0.0 ~until_ms:20.0 ] () in
  expect_unavailable "strict, no retries" (fun () ->
      Med_exec.run_compiled cat (Med_exec.compile cat query))

(* Availability sweep: under a seeded purely-transient schedule at
   availability 0.7, a 2-retry budget whose backoff outlasts the window
   recovers every fragment of every query. *)
let test_availability_07_full_recovery () =
  let expected = baseline () in
  Obs_clock.reset_virtual ();
  let faults =
    Net_sim.availability_schedule ~seed:1 ~availability:0.7 ~period_ms:40.0
      ~horizon_ms:10000.0
  in
  let cat = catalog ~faults () in
  Med_catalog.set_retry_policy cat (pol ~retries:2 ~base:15.0 ~max_b:60.0 ());
  let compiled = Med_exec.compile cat query in
  for i = 1 to 20 do
    let r = Med_exec.run_compiled_partial cat compiled in
    check Alcotest.(list string_t)
      (Printf.sprintf "round %d complete" i)
      [] r.Med_exec.skipped_sources;
    check Alcotest.(list string_t)
      (Printf.sprintf "round %d answer" i)
      expected (render r);
    Obs_clock.advance 13.0
  done

(* ------------------------------------------------------------------ *)
(* Mid-stream failure: truncated results must not leak anywhere        *)
(* ------------------------------------------------------------------ *)

let test_midstream_pollutes_nothing () =
  Obs_clock.reset_virtual ();
  let cat =
    catalog ~frag_capacity:8 ~sem_budget:4096
      ~faults:[ Net_sim.midstream_window ~from_ms:0.0 ~until_ms:infinity ~prefix:1 ]
      ()
  in
  let compiled = Med_exec.compile cat query in
  expect_unavailable "strict mid-stream" (fun () -> Med_exec.run_compiled cat compiled);
  check int_t "fragment cache untouched" 0
    (Frag_cache.size (Med_catalog.frag_cache cat));
  check int_t "semantic cache untouched" 0
    (Sem_cache.entry_count (Med_catalog.sem_cache cat));
  check int_t "feedback estimator untouched" 0
    (Obs_feedback.size (Med_catalog.feedback cat));
  (* Partial mode skips the source and still learns nothing. *)
  let r = Med_exec.run_compiled_partial cat compiled in
  check Alcotest.(list string_t) "source skipped" [ "crm" ] r.Med_exec.skipped_sources;
  check int_t "rows from a dead source" 0 (List.length r.Med_exec.trees);
  check int_t "fragment cache still empty" 0
    (Frag_cache.size (Med_catalog.frag_cache cat));
  check int_t "feedback still empty" 0 (Obs_feedback.size (Med_catalog.feedback cat))

let test_midstream_transient_recovers_complete () =
  let expected = baseline () in
  Obs_clock.reset_virtual ();
  let cat =
    catalog ~frag_capacity:8
      ~faults:[ Net_sim.midstream_window ~from_ms:0.0 ~until_ms:20.0 ~prefix:1 ]
      ()
  in
  Med_catalog.set_retry_policy cat (pol ~retries:3 ~base:10.0 ());
  let r = Med_exec.run_compiled cat (Med_exec.compile cat query) in
  check Alcotest.(list string_t) "recovered past the window" expected (render r);
  (* Whatever got cached is the complete post-recovery extent: a repeat
     run answers identically from the cache. *)
  check bool_t "complete extent cached" true
    (Frag_cache.size (Med_catalog.frag_cache cat) > 0);
  let again = Med_exec.run_compiled cat (Med_exec.compile cat query) in
  check Alcotest.(list string_t) "cached extent is complete" expected (render again)

(* ------------------------------------------------------------------ *)
(* Stale serving (partial-mode degradation)                            *)
(* ------------------------------------------------------------------ *)

let test_stale_serving () =
  Obs_clock.reset_virtual ();
  let cat =
    catalog ~frag_capacity:8 ~frag_ttl_ms:50.0
      ~faults:[ Net_sim.offline_window ~from_ms:30.0 ~until_ms:infinity ]
      ()
  in
  let compiled = Med_exec.compile cat query in
  let fresh = render (Med_exec.run_compiled cat compiled) in
  Obs_clock.advance 100.0;
  (* TTL expired and the source is now gone for good.  Strict mode and
     a stale-off policy both lose the source. *)
  expect_unavailable "strict never serves stale" (fun () ->
      Med_exec.run_compiled cat compiled);
  let r_off = Med_exec.run_compiled_partial cat compiled in
  check Alcotest.(list string_t) "stale off: source skipped" [ "crm" ]
    r_off.Med_exec.skipped_sources;
  (* Stale serving on: the expired extent answers, flagged in the
     envelope, and the source is not reported skipped. *)
  Med_catalog.set_retry_policy cat (pol ~stale:true ());
  let r = Med_exec.run_compiled_partial cat compiled in
  check Alcotest.(list string_t) "served stale" [ "crm" ] r.Med_exec.stale_sources;
  check Alcotest.(list string_t) "not skipped" [] r.Med_exec.skipped_sources;
  check Alcotest.(list string_t) "stale answer equals the cached one" fresh (render r)

(* ------------------------------------------------------------------ *)
(* Partial mode: skipped = exactly the budget-exhausted sources        *)
(* ------------------------------------------------------------------ *)

let test_skipped_matches_exhausted () =
  Obs_clock.reset_virtual ();
  let cat = Med_catalog.create () in
  let crm, _ =
    Net_sim.wrap ~seed:7 Net_sim.default_profile (Rel_source.make (make_crm ()))
  in
  let ext_db = Rel_db.create ~name:"ext" () in
  ignore (Rel_db.exec ext_db "CREATE TABLE people (id INT, name TEXT)");
  ignore (Rel_db.exec ext_db "INSERT INTO people VALUES (1, 'p1')");
  let ext, _ =
    Net_sim.wrap ~seed:7
      ~faults:[ Net_sim.persistently_offline ]
      Net_sim.default_profile (Rel_source.make ext_db)
  in
  Med_catalog.register_source cat crm;
  Med_catalog.register_source cat ext;
  Med_catalog.set_retry_policy cat (pol ~retries:1 ~base:5.0 ());
  let join =
    q
      {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers",
             <row><id>$i</id><name>$n</name></row> IN "ext.people"
        CONSTRUCT <p>$n</p>|}
  in
  let r = Med_exec.run_compiled_partial cat (Med_exec.compile cat join) in
  check Alcotest.(list string_t) "only the dead source is skipped" [ "ext" ]
    (List.sort compare r.Med_exec.skipped_sources)

(* ------------------------------------------------------------------ *)
(* Chaos: random fault schedules x engines x modes                     *)
(* ------------------------------------------------------------------ *)

(* Per iteration a seed derives the fault schedule (healthy, transient
   offline the retry budget outlasts, persistent offline, or persistent
   mid-stream), the execution engine, and the fragment-cache size.  The
   properties: strict either answers byte-identically to a fault-free
   twin or raises cleanly without polluting any cache; partial skips
   exactly the persistent source; an all-transient schedule with retries
   on is indistinguishable from no faults at all. *)
let prop_chaos =
  QCheck2.Test.make ~name:"chaos: fault schedules across engines and modes" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create seed in
      let kind = Prng.int g 4 in
      let faults =
        match kind with
        | 0 -> []
        | 1 ->
          let from = float_of_int (Prng.int g 10) in
          let len = float_of_int (5 + Prng.int g 20) in
          [ Net_sim.offline_window ~from_ms:from ~until_ms:(from +. len) ]
        | 2 -> [ Net_sim.persistently_offline ]
        | _ -> [ Net_sim.midstream_window ~from_ms:0.0 ~until_ms:infinity ~prefix:1 ]
      in
      let engine =
        match Prng.int g 3 with
        | 0 -> Alg_exec.Tuple
        | 1 -> Alg_exec.Parallel { domains = 1; chunk = 4 }
        | _ -> Alg_exec.Parallel { domains = 2; chunk = 4 }
      in
      let frag_capacity = if Prng.int g 2 = 0 then 8 else 0 in
      let persistent = kind >= 2 in
      (* Fault-free twin under the same engine. *)
      Obs_clock.reset_virtual ();
      let cat0 = catalog () in
      Med_catalog.set_exec_mode cat0 engine;
      let expected = render (Med_exec.run_compiled cat0 (Med_exec.compile cat0 query)) in
      (* The run under test: 2 retries, backoff 15/30 outlasts any
         transient window above. *)
      Obs_clock.reset_virtual ();
      let cat = catalog ~frag_capacity ~faults () in
      Med_catalog.set_exec_mode cat engine;
      Med_catalog.set_retry_policy cat (pol ~retries:2 ~base:15.0 ~max_b:60.0 ());
      let compiled = Med_exec.compile cat query in
      let strict_ok =
        match Med_exec.run_compiled cat compiled with
        | r -> (not persistent) && render r = expected
        | exception (Source.Unavailable _ | Alg_exec.Source_unavailable _) ->
          (* Clean failure: nothing from the dead source was cached. *)
          persistent
          && Frag_cache.invalidate_source (Med_catalog.frag_cache cat) "crm" = 0
          && Obs_feedback.size (Med_catalog.feedback cat) = 0
      in
      let p = Med_exec.run_compiled_partial cat compiled in
      let partial_ok =
        if persistent then
          p.Med_exec.skipped_sources = [ "crm" ] && p.Med_exec.trees = []
        else p.Med_exec.skipped_sources = [] && render p = expected
      in
      strict_ok && partial_ok)

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_chaos ] in
  Alcotest.run "fault"
    [
      ( "backoff",
        [
          Alcotest.test_case "cap arithmetic" `Quick test_backoff_cap;
          Alcotest.test_case "jitter deterministic per seed" `Quick
            test_backoff_jitter_deterministic;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state transitions" `Quick test_breaker_transitions;
          Alcotest.test_case "per-call deadline gives up" `Quick
            test_call_deadline_gives_up;
          Alcotest.test_case "query deadline bounds retries" `Quick
            test_query_deadline_bounds_retries;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "transient window recovers" `Quick
            test_transient_window_recovers;
          Alcotest.test_case "no retries fail in window" `Quick
            test_no_retries_fail_in_window;
          Alcotest.test_case "availability 0.7 full recovery" `Quick
            test_availability_07_full_recovery;
        ] );
      ( "midstream",
        [
          Alcotest.test_case "truncated rows pollute nothing" `Quick
            test_midstream_pollutes_nothing;
          Alcotest.test_case "transient midstream recovers complete" `Quick
            test_midstream_transient_recovers_complete;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "stale serving in partial mode" `Quick test_stale_serving;
          Alcotest.test_case "skipped matches exhausted budgets" `Quick
            test_skipped_matches_exhausted;
        ] );
      ("chaos", props);
    ]
