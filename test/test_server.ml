(* Concurrency server: admission control, the lens plan cache,
   load-balanced dispatch and the deterministic workload driver.

   The two QCheck properties are the server's core contracts:
   - any interleaving of admitted requests produces byte-identical
     per-request results to serial execution (one request at a time),
     including Partial-mode requests against an offline source;
   - executing through a warm plan cache with fresh parameter values,
     and catalog mutations between invocations, is byte-identical to
     cold parse+plan+execute, across both execution engines (tuple;
     parallel at one and two domains), and every plan the cache hands
     out is the cold compile of its invocation. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* Every run starts from a fresh federation and a zeroed virtual clock
   so the discrete-event timeline is reproducible. *)
let fresh_system () =
  Obs_clock.reset_virtual ();
  Srv_workload.demo_system ()

let open_demo_sessions srv =
  List.iter
    (fun (user, password) ->
      match Srv_dispatch.open_session srv ~user ~password with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "open %s: %s" user m)
    Srv_workload.demo_users

(* Force a registered source offline: swap in a copy whose operations
   raise [Source.Unavailable], same as Srv_script's [offline]
   directive. *)
let force_offline sys name =
  let reg = Med_catalog.registry (Nimble.catalog sys) in
  match Src_registry.find reg name with
  | None -> Alcotest.failf "no source %s to take offline" name
  | Some src ->
    Src_registry.remove reg name;
    Src_registry.register reg
      {
        src with
        Source.is_available = (fun () -> false);
        execute = (fun _ -> raise (Source.Unavailable name));
        documents = (fun _ -> raise (Source.Unavailable name));
      }

(* ------------------------------------------------------------------ *)
(* QCheck: interleaving equivalence                                    *)
(* ------------------------------------------------------------------ *)

(* A symbolic request the generator can replay against any server. *)
type sym_req = {
  sr_session : string;
  sr_lens : string;
  sr_query : string;
  sr_args : (string * string) list;
  sr_priority : Srv_request.priority;
  sr_mode : Srv_request.failure_mode;
  sr_exec : Alg_exec.mode option;
}

let gen_sym_req =
  let open QCheck2.Gen in
  let* session = oneofl [ "admin"; "alice"; "bob" ] in
  let* lens, query =
    (* bob (viewer) on sales exercises denial; catalog against an
       offline products source exercises strict failure vs partial
       skipping. *)
    oneofl [ ("sales", "by_region"); ("sales", "big_orders"); ("catalog", "all") ]
  in
  let* region = oneofl [ "west"; "east"; "north"; "south" ] in
  let* min = map string_of_int (int_bound 400) in
  let* priority = oneofl [ Srv_request.High; Normal; Low ] in
  let* mode = oneofl [ Srv_request.Strict; Partial ] in
  let* exec =
    oneofl
      [
        None;
        Some Alg_exec.Tuple;
        Some (Alg_exec.Parallel { domains = 1; chunk = 2 });
        Some (Alg_exec.Parallel { domains = 2; chunk = 2 });
      ]
  in
  pure
    {
      sr_session = session;
      sr_lens = lens;
      sr_query = query;
      sr_args = [ ("region", region); ("min", min) ];
      sr_priority = priority;
      sr_mode = mode;
      sr_exec = exec;
    }

type workload = {
  wl_reqs : sym_req list;
  wl_bursts : int list;  (** submissions per arrival instant *)
  wl_engines : int;
  wl_offline : bool;     (** products source down for the whole run *)
}

let gen_workload =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let* reqs = list_size (pure n) gen_sym_req in
  let* bursts = list_size (pure n) (int_range 1 4) in
  let* engines = int_range 1 3 in
  let* offline = bool in
  pure { wl_reqs = reqs; wl_bursts = bursts; wl_engines = engines; wl_offline = offline }

let print_workload wl =
  Printf.sprintf "engines=%d offline=%b reqs=[%s] bursts=[%s]" wl.wl_engines wl.wl_offline
    (String.concat "; "
       (List.map
          (fun r ->
            Printf.sprintf "%s %s.%s %s %s %s %s" r.sr_session r.sr_lens r.sr_query
              (String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ v) r.sr_args))
              (Srv_request.priority_to_string r.sr_priority)
              (match r.sr_mode with Strict -> "strict" | Partial -> "partial")
              (match r.sr_exec with
              | None -> "default"
              | Some m -> Alg_exec.mode_to_string m))
          wl.wl_reqs))
    (String.concat "," (List.map string_of_int wl.wl_bursts))

(* What "byte-identical result" means per request: the rendered output,
   row count and skipped sources for completions; the full rejection
   message otherwise.  Timing cells are excluded on purpose — they are
   what interleaving is allowed to change. *)
let essence = function
  | Srv_request.Completed r ->
    Printf.sprintf "ok rows=%d skipped=%s output=%s" r.Srv_request.rep_rows
      (String.concat "," r.rep_skipped)
      r.rep_output
  | Srv_request.Rejected rej -> "rejected " ^ Srv_request.reject_to_string rej

let submit_sym srv r =
  Srv_dispatch.submit srv ~session:r.sr_session ~lens:r.sr_lens ~query:r.sr_query
    ~args:r.sr_args ~priority:r.sr_priority ~mode:r.sr_mode
    ?exec:r.sr_exec ()

(* Admit everything: the equivalence property is about execution order,
   not shedding (shedding determinism has its own unit tests). *)
let roomy engines =
  {
    Srv_dispatch.engines;
    queue = { Srv_admit.queue_capacity = 1000; max_session_in_flight = 1000 };
    plan_cache_capacity = 32;
    service_overhead_ms = 1.0;
  }

let run_serial wl =
  let sys = fresh_system () in
  if wl.wl_offline then force_offline sys "products";
  let srv = Srv_dispatch.create ~config:(roomy 1) sys in
  open_demo_sessions srv;
  List.iter
    (fun r ->
      (match submit_sym srv r with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "serial submit: %s" m);
      Srv_dispatch.drain srv)
    wl.wl_reqs;
  List.map (fun (id, o) -> (id, essence o)) (Srv_dispatch.outcomes srv)

let run_interleaved wl =
  let sys = fresh_system () in
  if wl.wl_offline then force_offline sys "products";
  let srv = Srv_dispatch.create ~config:(roomy wl.wl_engines) sys in
  open_demo_sessions srv;
  let rec go reqs bursts =
    match reqs with
    | [] -> ()
    | _ ->
      let burst, rest_bursts =
        match bursts with b :: tl -> (b, tl) | [] -> (1, [])
      in
      let now, later =
        ( List.filteri (fun i _ -> i < burst) reqs,
          List.filteri (fun i _ -> i >= burst) reqs )
      in
      List.iter
        (fun r ->
          match submit_sym srv r with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "interleaved submit: %s" m)
        now;
      Obs_clock.advance 3.0;
      Srv_dispatch.tick srv;
      go later rest_bursts
  in
  go wl.wl_reqs wl.wl_bursts;
  Srv_dispatch.drain srv;
  List.map (fun (id, o) -> (id, essence o)) (Srv_dispatch.outcomes srv)

let prop_interleaving_serial_equiv =
  QCheck2.Test.make ~name:"interleaved == serial (byte-identical per request)"
    ~count:60 ~print:print_workload gen_workload (fun wl ->
      run_interleaved wl = run_serial wl)

(* ------------------------------------------------------------------ *)
(* QCheck: warm plan cache == cold compile                             *)
(* ------------------------------------------------------------------ *)

(* A lens over a view the run redefines: the view's two definitions
   keep its shape and change which customers it holds. *)
let vip_defs =
  [|
    {|WHERE <row><name>$n</name><region>$r</region><tier>$t</tier></row> IN "crm.customers", $t = 1
      CONSTRUCT <vip><name>$n</name><region>$r</region></vip>|};
    {|WHERE <row><name>$n</name><region>$r</region><tier>$t</tier></row> IN "crm.customers", $t >= 2
      CONSTRUCT <vip><name>$n</name><region>$r</region></vip>|};
  |]

let vips_lens =
  Fe_lens.make ~name:"vips"
    ~params:[ Fe_lens.param "region" Value.TString ]
    [ ( "in_region",
        {|WHERE <vip><name>$n</name><region>%region%</region></vip> IN "vip"
          CONSTRUCT <v>$n</v> ORDER BY $n|} ) ]

let ok_or_fail what = function Ok _ -> () | Error m -> Alcotest.failf "%s: %s" what m

(* One step of a plan-cache run: an invocation, or a catalog mutation
   between invocations. *)
type pc_step =
  | Invoke of string * string * (string * string) list * Alg_exec.mode
  | Redefine of int  (** redefine view "vip" as [vip_defs.(i)] *)
  | Analyze  (** refresh the optimizer's statistics *)

(* A stream of invocations with fresh parameter values and varying
   execution engines, interleaved with catalog mutations; the warm
   server reuses cached parses, the cold server re-parses every
   time. *)
let gen_steps =
  let open QCheck2.Gen in
  let invoke =
    let* lens, query =
      oneofl
        [
          ("sales", "by_region");
          ("sales", "big_orders");
          ("catalog", "all");
          ("vips", "in_region");
        ]
    in
    let* region = oneofl [ "west"; "east"; "north"; "south"; "x&y<z" ] in
    let* min = map string_of_int (int_bound 500) in
    let* exec =
      oneofl
        [
          Alg_exec.Tuple;
          Alg_exec.Parallel { domains = 1; chunk = 3 };
          Alg_exec.Parallel { domains = 2; chunk = 2 };
        ]
    in
    let args = if lens = "vips" then [ ("region", region) ] else [ ("region", region); ("min", min) ] in
    pure (Invoke (lens, query, args, exec))
  in
  let* n = int_range 2 10 in
  list_size (pure n)
    (frequency
       [ (6, invoke); (1, map (fun i -> Redefine i) (int_bound 1)); (1, pure Analyze) ])

let print_steps steps =
  String.concat "; "
    (List.map
       (function
         | Invoke (lens, query, args, exec) ->
           Printf.sprintf "%s.%s %s %s" lens query
             (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) args))
             (Alg_exec.mode_to_string exec)
         | Redefine i -> Printf.sprintf "redefine vip %d" i
         | Analyze -> "analyze")
       steps)

(* Run the steps through a server with the given plan-cache capacity.
   Beside the server, a second cache on the same catalog looks every
   invocation up just before it runs; its plan must be the cold compile
   of the same invocation against the catalog at that moment. *)
let run_with_cache_capacity cap steps =
  let sys = fresh_system () in
  ok_or_fail "add lens" (Nimble.add_lens sys vips_lens);
  ok_or_fail "define vip" (Nimble.define_view sys "vip" vip_defs.(0));
  let cat = Nimble.catalog sys in
  let config = { (roomy 1) with Srv_dispatch.plan_cache_capacity = cap } in
  let srv = Srv_dispatch.create ~config sys in
  let direct = Srv_plancache.create ~capacity:cap cat in
  open_demo_sessions srv;
  let plans_fresh = ref true in
  List.iter
    (function
      | Invoke (lens_name, query, args, exec) ->
        let lens = Option.get (Nimble.find_lens sys lens_name) in
        let compiled, _ = Srv_plancache.lookup direct ~lens ~query ~args in
        if compiled <> Med_planner.compile cat (Fe_lens.instantiate lens query args) then
          plans_fresh := false;
        (match
           Srv_dispatch.submit srv ~session:"admin" ~lens:lens_name ~query ~args ~exec ()
         with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "submit: %s" m);
        Srv_dispatch.drain srv
      | Redefine i ->
        ok_or_fail "drop vip" (Nimble.drop_view sys "vip");
        ok_or_fail "redefine vip" (Nimble.define_view sys "vip" vip_defs.(i))
      | Analyze -> ok_or_fail "analyze" (Nimble.analyze_stats sys))
    steps;
  let outs = List.map (fun (id, o) -> (id, essence o)) (Srv_dispatch.outcomes srv) in
  (outs, !plans_fresh, Srv_plancache.stats (Srv_dispatch.plan_cache srv))

let prop_plan_cache_warm_equals_cold =
  QCheck2.Test.make ~name:"warm plan cache == cold compile (all exec modes)"
    ~count:60 ~print:print_steps gen_steps (fun steps ->
      let invocations =
        List.length (List.filter (function Invoke _ -> true | _ -> false) steps)
      in
      let warm, warm_fresh, warm_stats = run_with_cache_capacity 32 steps in
      let cold, cold_fresh, cold_stats = run_with_cache_capacity 0 steps in
      warm = cold && warm_fresh && cold_fresh
      && cold_stats.Srv_plancache.hits = 0
      && warm_stats.Srv_plancache.hits + warm_stats.Srv_plancache.misses = invocations)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let mk_session name =
  {
    Srv_session.ses_name = name;
    ses_role = Fe_auth.Analyst;
    ses_opened_ms = 0.0;
    ses_lenses = [];
    ses_in_flight = 0;
    ses_submitted = 0;
    ses_completed = 0;
    ses_rejected = 0;
  }

let mk_req ?(priority = Srv_request.Normal) ?deadline_ms id session =
  {
    Srv_request.req_id = id;
    req_session = session;
    req_lens = "l";
    req_query = "q";
    req_args = [];
    req_priority = priority;
    req_deadline_ms = deadline_ms;
    req_mode = Strict;
    req_exec = None;
  }

let take_ready q ~now_ms =
  match Srv_admit.take q ~now_ms with
  | Srv_admit.Ready e -> e.Srv_admit.ent_request.Srv_request.req_id
  | Empty -> Alcotest.fail "queue unexpectedly empty"
  | Expired _ -> Alcotest.fail "unexpected expiry"

let test_admit_priority_then_fairness_then_seq () =
  let q = Srv_admit.create { queue_capacity = 16; max_session_in_flight = 16 } in
  let a = mk_session "a" and b = mk_session "b" in
  let offer s r =
    match Srv_admit.offer q s r with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "offer shed unexpectedly"
  in
  (* Same priority: a a b arrive; dequeue must round-robin a b a. *)
  offer a (mk_req 0 "a");
  offer a (mk_req 1 "a");
  offer b (mk_req 2 "b");
  check int_t "first by seq" 0 (take_ready q ~now_ms:0.0);
  check int_t "b before a's second (fairness)" 2 (take_ready q ~now_ms:0.0);
  check int_t "then a again" 1 (take_ready q ~now_ms:0.0);
  (* Priority dominates fairness and arrival order. *)
  offer a (mk_req 3 "a" ~priority:Low);
  offer b (mk_req 4 "b" ~priority:High);
  offer a (mk_req 5 "a" ~priority:Normal);
  check int_t "high first" 4 (take_ready q ~now_ms:0.0);
  check int_t "normal second" 5 (take_ready q ~now_ms:0.0);
  check int_t "low last" 3 (take_ready q ~now_ms:0.0);
  (match Srv_admit.take q ~now_ms:0.0 with
  | Srv_admit.Empty -> ()
  | _ -> Alcotest.fail "expected empty queue")

let test_admit_sheds_deterministically () =
  let q = Srv_admit.create { queue_capacity = 2; max_session_in_flight = 2 } in
  let a = mk_session "a" and b = mk_session "b" in
  check bool_t "1 fits" true (Srv_admit.offer q a (mk_req 0 "a") = Ok ());
  check bool_t "2 fits" true (Srv_admit.offer q a (mk_req 1 "a") = Ok ());
  (* Queue full: overload beats the session-cap check and sheds without
     touching counters. *)
  check bool_t "3 overloaded" true
    (Srv_admit.offer q b (mk_req 2 "b") = Error Srv_request.Overloaded);
  check int_t "b untouched" 0 b.Srv_session.ses_in_flight;
  ignore (take_ready q ~now_ms:0.0);
  (* One slot free but a is at its in-flight cap (take does not
     decrement: the request is still executing). *)
  check bool_t "a saturated" true
    (Srv_admit.offer q a (mk_req 3 "a") = Error Srv_request.Session_saturated);
  check bool_t "b admitted" true (Srv_admit.offer q b (mk_req 4 "b") = Ok ());
  check int_t "a still at cap" 2 a.Srv_session.ses_in_flight

let test_admit_deadline_expiry () =
  (* [offer] stamps enqueue times from the process-wide virtual clock. *)
  Obs_clock.reset_virtual ();
  let q = Srv_admit.create { queue_capacity = 8; max_session_in_flight = 8 } in
  let a = mk_session "a" in
  (match Srv_admit.offer q a (mk_req 0 "a" ~deadline_ms:5.0) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "offer shed");
  (match Srv_admit.offer q a (mk_req 1 "a") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "offer shed");
  (* Past the deadline: the expired entry surfaces exactly once, then
     the live one dispatches. *)
  (match Srv_admit.take q ~now_ms:10.0 with
  | Srv_admit.Expired e -> check int_t "expired id" 0 e.ent_request.Srv_request.req_id
  | _ -> Alcotest.fail "expected expiry");
  check int_t "survivor dispatches" 1 (take_ready q ~now_ms:10.0);
  check bool_t "expiry counted" true
    (contains (Srv_admit.stats_line q) "expired=1")

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let invoke srv lens query args =
  (match Srv_dispatch.submit srv ~session:"admin" ~lens ~query ~args () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "submit: %s" m);
  Srv_dispatch.drain srv

let test_plan_cache_hits_and_shapes () =
  let sys = fresh_system () in
  (* The parameter lands in an attribute the planner pushes into the
     products path ([product[@sku='…']]): the parse is cached all the
     same. *)
  ok_or_fail "add lens"
    (Nimble.add_lens sys
       (Fe_lens.make ~name:"prices"
          ~params:[ Fe_lens.param "sku" Value.TString ]
          [ ( "of_sku",
              {|WHERE <product sku=%sku%><price>$p</price></product> IN "products.catalog"
                CONSTRUCT <price>$p</price>|} ) ]));
  let srv = Srv_dispatch.create sys in
  open_demo_sessions srv;
  let pc = Srv_dispatch.plan_cache srv in
  invoke srv "sales" "by_region" [ ("region", "west") ];
  invoke srv "sales" "by_region" [ ("region", "east") ];
  invoke srv "sales" "by_region" [ ("region", "north") ];
  invoke srv "prices" "of_sku" [ ("sku", "widget") ];
  invoke srv "prices" "of_sku" [ ("sku", "gizmo") ];
  let s = Srv_plancache.stats pc in
  check int_t "one miss per shape" 2 s.misses;
  check int_t "fresh values hit" 3 s.hits;
  check int_t "no fallback" 0 s.fallbacks;
  check int_t "one entry per shape" 2 (Srv_plancache.size pc);
  check bool_t "shape keyed by class" true
    (contains (Srv_plancache.report pc) "sales/by_region?region:str");
  (* Fresh values through the cached parse match a cold system. *)
  let cold = Srv_dispatch.create (fresh_system ()) in
  open_demo_sessions cold;
  invoke cold "sales" "by_region" [ ("region", "north") ];
  let out srv' id =
    match Srv_dispatch.outcome srv' id with
    | Some (Srv_request.Completed r) -> r.Srv_request.rep_output
    | _ -> Alcotest.fail "expected completion"
  in
  check string_t "warm output == cold output" (out cold 0) (out srv 2);
  check bool_t "the fresh sku reaches the path" true (contains (out srv 4) "64")

(* Entries hold parsed queries, which no catalog change makes stale:
   a source invalidation drops nothing, and the next plan is compiled
   against the catalog as it is then. *)
let test_plan_cache_invalidation_and_lru () =
  let sys = fresh_system () in
  let config = { Srv_dispatch.default_config with plan_cache_capacity = 1 } in
  let srv = Srv_dispatch.create ~config sys in
  open_demo_sessions srv;
  let pc = Srv_dispatch.plan_cache srv in
  invoke srv "sales" "by_region" [ ("region", "west") ];
  invoke srv "catalog" "all" [];
  (* Capacity 1: the second shape evicts the first. *)
  let s = Srv_plancache.stats pc in
  check int_t "lru evicted" 1 s.evictions;
  check int_t "size capped" 1 (Srv_plancache.size pc);
  ignore (Nimble.invalidate_source sys "products");
  check int_t "invalidation drops nothing" 1 (Srv_plancache.size pc);
  let cat = Nimble.catalog sys in
  let lens = Option.get (Nimble.find_lens sys "catalog") in
  let compiled, hit = Srv_plancache.lookup pc ~lens ~query:"all" ~args:[] in
  check bool_t "still hits" true hit;
  check bool_t "plan = cold compile" true
    (compiled = Med_planner.compile cat (Fe_lens.instantiate lens "all" []));
  check int_t "no invalidations" 0 (Srv_plancache.stats pc).invalidations

let test_plan_cache_inlines_nonrebindable () =
  (* A negative integer is not rebindable: it must be inlined into the
     shape, giving each value its own entry — and still execute
     correctly. *)
  let srv = Srv_dispatch.create (fresh_system ()) in
  open_demo_sessions srv;
  invoke srv "sales" "big_orders" [ ("min", "-5") ];
  invoke srv "sales" "big_orders" [ ("min", "-5") ];
  invoke srv "sales" "big_orders" [ ("min", "-7") ];
  let s = Srv_plancache.stats (Srv_dispatch.plan_cache srv) in
  check int_t "repeat of same inlined value hits" 1 s.hits;
  check int_t "distinct inlined values miss" 2 s.misses

(* A lens over a two-level view: the parameter lands as a literal the
   composition pushes into the bottom level's SQL, and a fresh value
   reaches it there through the cached parse. *)
let test_plan_cache_rebinds_through_views () =
  let sys = fresh_system () in
  let cat = Nimble.catalog sys in
  Med_catalog.define_view_text cat "cust"
    {|WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "crm.customers"
      CONSTRUCT <cust><cid>$i</cid><name>$n</name><region>$r</region></cust>|};
  Med_catalog.define_view_text cat "regional"
    {|WHERE <cust><cid>$i</cid><name>$n</name><region>$r</region></cust> IN "cust"
      CONSTRUCT <rc><name>$n</name><region>$r</region></rc>|};
  let lens =
    Fe_lens.make ~name:"people"
      ~params:[ Fe_lens.param "region" Value.TString ]
      [ ( "in_region",
          {|WHERE <rc><name>$n</name><region>%region%</region></rc> IN "regional"
            CONSTRUCT <p>$n</p> ORDER BY $n|} ) ]
  in
  let pc = Srv_plancache.create cat in
  let lookup region =
    Srv_plancache.lookup pc ~lens ~query:"in_region" ~args:[ ("region", region) ]
  in
  let cold region =
    Med_planner.compile cat (Fe_lens.instantiate lens "in_region" [ ("region", region) ])
  in
  let _, first_hit = lookup "west" in
  let warm, hit = lookup "east" in
  check bool_t "first parses" false first_hit;
  check bool_t "second hits" true hit;
  let s = Srv_plancache.stats pc in
  check int_t "no fallback" 0 s.fallbacks;
  check bool_t "cached shape" true (contains (Srv_plancache.report pc) "param people/");
  check bool_t "warm plan = cold compile" true (warm = cold "east");
  check bool_t "the value reaches the source" true
    (contains (Med_planner.explain warm) "FROM customers WHERE region = 'east'");
  (* "" is also the text of NULL, so it cannot become [region = '']:
     the planner takes the tree path, from the cached parse too. *)
  let empty, hit = lookup "" in
  check bool_t "empty value hits" true hit;
  check bool_t "empty value plan = cold compile" true (empty = cold "");
  check bool_t "empty value is not pushed" false
    (contains (Med_planner.explain empty) "region = ''")

(* A lens query joining two views: the second view is a bind join on
   the first, and every hit plans the driver's fresh literal and the
   bind exactly as a cold compile does. *)
let test_plan_cache_rebinds_view_bind_join () =
  let sys = fresh_system () in
  let cat = Nimble.catalog sys in
  Med_catalog.define_view_text cat "cust"
    {|WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "crm.customers"
      CONSTRUCT <cust><cid>$i</cid><name>$n</name><region>$r</region></cust>|};
  Med_catalog.define_view_text cat "ord"
    {|WHERE <row><cust_id>$c</cust_id><item>$it</item></row> IN "crm.orders"
      CONSTRUCT <ord><cid>$c</cid><item>$it</item></ord>|};
  let lens =
    Fe_lens.make ~name:"buyers"
      ~params:[ Fe_lens.param "region" Value.TString ]
      [ ( "bought",
          {|WHERE <cust><cid>$c</cid><name>$n</name><region>%region%</region></cust> IN "cust",
                  <ord><cid>$c</cid><item>$it</item></ord> IN "ord"
            CONSTRUCT <p><n>$n</n><it>$it</it></p> ORDER BY $n, $it|} ) ]
  in
  let pc = Srv_plancache.create cat in
  let lookup region =
    Srv_plancache.lookup pc ~lens ~query:"bought" ~args:[ ("region", region) ]
  in
  let render compiled =
    List.map Dtree.to_string (Med_exec.run_compiled cat compiled).Med_exec.trees
  in
  let _, first_hit = lookup "west" in
  check bool_t "first compiles" false first_hit;
  List.iter
    (fun region ->
      let warm, hit = lookup region in
      check bool_t (region ^ " hits") true hit;
      let cold =
        Med_planner.compile cat (Fe_lens.instantiate lens "bought" [ ("region", region) ])
      in
      check bool_t (region ^ ": warm plan = cold compile") true (warm = cold);
      check bool_t (region ^ ": the view is bound") true
        (contains (Med_planner.explain warm) "[narrowed by keys of a0.$c]");
      check (Alcotest.list Alcotest.string) (region ^ ": answers = cold compile")
        (render cold) (render warm))
    [ "east"; "west"; "north" ];
  check int_t "no fallback" 0 (Srv_plancache.stats pc).fallbacks

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let test_dispatch_balances_and_reports () =
  let config =
    { (roomy 2) with Srv_dispatch.service_overhead_ms = 2.0 }
  in
  let srv = Srv_dispatch.create ~config (fresh_system ()) in
  open_demo_sessions srv;
  for _ = 1 to 4 do
    match
      Srv_dispatch.submit srv ~session:"admin" ~lens:"catalog" ~query:"all" ()
    with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "submit: %s" m
  done;
  Srv_dispatch.drain srv;
  (match Srv_dispatch.engine_lines srv with
  | [ e0; e1 ] ->
    check bool_t "engine 0 took half" true (contains e0 "served=2");
    check bool_t "engine 1 took half" true (contains e1 "served=2")
  | lines -> Alcotest.failf "expected 2 engines, got %d" (List.length lines));
  let report = Srv_dispatch.report srv in
  check bool_t "report lists queue" true (contains report "queue: depth=0");
  check bool_t "report lists plan cache" true (contains report "plan cache:");
  check bool_t "report lists sessions" true (contains report "admin (admin)");
  match Srv_dispatch.outcome srv 2 with
  | Some (Srv_request.Completed r) ->
    check bool_t "queued behind busy engines" true
      (Srv_request.queue_wait_ms r > 0.0)
  | _ -> Alcotest.fail "request 2 should complete"

let test_dispatch_denies_by_role () =
  let srv = Srv_dispatch.create (fresh_system ()) in
  open_demo_sessions srv;
  (match
     Srv_dispatch.submit srv ~session:"bob" ~lens:"sales" ~query:"by_region" ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "denial must settle as an outcome, not: %s" m);
  (match Srv_dispatch.outcome srv 0 with
  | Some (Srv_request.Rejected (Srv_request.Denied m)) ->
    check bool_t "names the role gap" true (contains m "viewer")
  | _ -> Alcotest.fail "expected Denied outcome");
  match Srv_dispatch.find_session srv "bob" with
  | Some s -> check int_t "rejection counted" 1 s.Srv_session.ses_rejected
  | None -> Alcotest.fail "bob's session vanished"

(* ------------------------------------------------------------------ *)
(* Workload driver                                                     *)
(* ------------------------------------------------------------------ *)

let run_demo_workload () =
  let srv = Srv_dispatch.create (fresh_system ()) in
  open_demo_sessions srv;
  let summary = Srv_workload.run srv Srv_workload.demo_spec in
  (summary, Srv_workload.summary_line summary)

let test_workload_deterministic () =
  let s1, l1 = run_demo_workload () in
  let s2, l2 = run_demo_workload () in
  check string_t "equal seeds, byte-identical summaries" l1 l2;
  check bool_t "records are equal" true (s1 = s2);
  check int_t "all submissions accounted" s1.Srv_workload.ws_submitted
    (s1.ws_completed + s1.ws_rejected);
  check bool_t "warm shapes hit" true (s1.ws_plan_hits > 0)

let test_workload_seed_changes_stream () =
  let base, _ = run_demo_workload () in
  let srv = Srv_dispatch.create (fresh_system ()) in
  open_demo_sessions srv;
  let other =
    Srv_workload.run srv { Srv_workload.demo_spec with seed = 43 }
  in
  check int_t "same volume" base.Srv_workload.ws_submitted other.Srv_workload.ws_submitted;
  check bool_t "different seed, different timeline" true
    (base.ws_elapsed_ms <> other.ws_elapsed_ms || base <> other)

(* ------------------------------------------------------------------ *)
(* Script driver                                                       *)
(* ------------------------------------------------------------------ *)

let test_script_reports_line_numbers () =
  let out = Buffer.create 64 in
  Obs_clock.reset_virtual ();
  let env =
    Srv_script.create ~print:(fun s -> Buffer.add_string out (s ^ "\n"))
      (Nimble.create ())
  in
  (match Srv_script.run env "demo\nopen alice wonder\nnonsense directive\n" with
  | Error m -> check bool_t "names the line" true (contains m "line 3")
  | Ok () -> Alcotest.fail "expected a script error");
  check bool_t "earlier lines ran" true (contains (Buffer.contents out) "session alice open")

(* ------------------------------------------------------------------ *)
(* Metrics hygiene                                                     *)
(* ------------------------------------------------------------------ *)

let well_formed name =
  let component_ok c =
    String.length c > 0
    && String.for_all
         (fun ch -> (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '_')
         c
  in
  let parts = String.split_on_char '.' name in
  List.length parts >= 2 && List.for_all component_ok parts

let test_metrics_hygiene () =
  (* Drive the full server path once so every srv.* metric registers. *)
  ignore (run_demo_workload ());
  let names = Obs_metrics.names () in
  check int_t "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      if not (well_formed n) then Alcotest.failf "ill-formed metric name: %s" n)
    names;
  let srv_metrics = List.filter (fun n -> String.starts_with ~prefix:"srv." n) names in
  List.iter
    (fun n ->
      if not (List.mem n srv_metrics) then
        Alcotest.failf "server metric missing: %s" n)
    [
      "srv.admit.admitted";
      "srv.admit.shed_overload";
      "srv.admit.shed_saturated";
      "srv.admit.shed_expired";
      "srv.queue.depth";
      "srv.queue.wait_ms";
      "srv.plancache.hits";
      "srv.plancache.misses";
      "srv.plancache.evictions";
      "srv.plancache.size";
      "srv.requests.submitted";
      "srv.requests.completed";
      "srv.requests.rejected";
      "srv.engine.0.requests";
      "srv.engine.1.requests";
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interleaving_serial_equiv; prop_plan_cache_warm_equals_cold ] );
      ( "admission",
        [
          Alcotest.test_case "priority > fairness > arrival" `Quick
            test_admit_priority_then_fairness_then_seq;
          Alcotest.test_case "deterministic shedding" `Quick
            test_admit_sheds_deterministically;
          Alcotest.test_case "deadline expiry" `Quick test_admit_deadline_expiry;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "parametric hits + shapes" `Quick
            test_plan_cache_hits_and_shapes;
          Alcotest.test_case "invalidation + lru" `Quick
            test_plan_cache_invalidation_and_lru;
          Alcotest.test_case "non-rebindable values inline" `Quick
            test_plan_cache_inlines_nonrebindable;
          Alcotest.test_case "rebinds through composed views" `Quick
            test_plan_cache_rebinds_through_views;
          Alcotest.test_case "rebinds a view bind join" `Quick
            test_plan_cache_rebinds_view_bind_join;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "least-loaded balance + report" `Quick
            test_dispatch_balances_and_reports;
          Alcotest.test_case "role denial settles" `Quick test_dispatch_denies_by_role;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic under equal seeds" `Quick
            test_workload_deterministic;
          Alcotest.test_case "seed steers the stream" `Quick
            test_workload_seed_changes_stream;
        ] );
      ( "script",
        [
          Alcotest.test_case "line-numbered errors" `Quick
            test_script_reports_line_numbers;
        ] );
      ( "metrics",
        [ Alcotest.test_case "hygiene" `Quick test_metrics_hygiene ] );
    ]
