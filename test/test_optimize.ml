(* The cost-based optimizer: statistics catalog, cardinality estimation,
   DPsize join-order enumeration, bind joins, and fresh plans after analysis.

   The central property: the DP optimizer (with bind-join conversion)
   returns byte-identical answers to the greedy walk across both
   execution engines (the morsel-driven one at one and two domains) and
   both failure modes, including offline sources. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-9

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Statistics: histogram and estimation edge cases                     *)
(* ------------------------------------------------------------------ *)

let schema_x =
  Dschema.relational "t" [ Dschema.column "x" Value.TInt ~nullable:true ]

let row x = Tuple.make [ ("x", x) ]

let test_stats_empty_table () =
  let ts = Med_stats.of_rows ~schema:schema_x [] in
  check int_t "zero rows" 0 ts.Med_stats.ts_rows;
  check (Alcotest.option float_t) "eq on empty" (Some 0.0)
    (Med_stats.eq_fraction ts "x" (Value.Int 1));
  check (Alcotest.option float_t) "cmp on empty" (Some 0.0)
    (Med_stats.cmp_fraction ts "x" `Lt (Value.Int 1));
  check (Alcotest.option int_t) "no distinct" None (Med_stats.distinct_of ts "x");
  check (Alcotest.option float_t) "unknown column" None
    (Med_stats.eq_fraction ts "y" (Value.Int 1))

let test_stats_all_null_column () =
  let ts = Med_stats.of_rows ~schema:schema_x [ row Value.Null; row Value.Null ] in
  check int_t "rows counted" 2 ts.Med_stats.ts_rows;
  check (Alcotest.option float_t) "eq never matches" (Some 0.0)
    (Med_stats.eq_fraction ts "x" (Value.Int 1));
  check (Alcotest.option float_t) "range never matches" (Some 0.0)
    (Med_stats.cmp_fraction ts "x" `Gt (Value.Int 0));
  check (Alcotest.option int_t) "all-null has no distinct" None
    (Med_stats.distinct_of ts "x")

let test_stats_single_value_domain () =
  let ts = Med_stats.of_rows ~schema:schema_x (List.init 5 (fun _ -> row (Value.Int 7))) in
  check (Alcotest.option float_t) "eq on the value" (Some 1.0)
    (Med_stats.eq_fraction ts "x" (Value.Int 7));
  check (Alcotest.option float_t) "eq outside max" (Some 0.0)
    (Med_stats.eq_fraction ts "x" (Value.Int 8));
  check (Alcotest.option float_t) "eq below min" (Some 0.0)
    (Med_stats.eq_fraction ts "x" (Value.Int 6));
  check (Alcotest.option int_t) "one distinct" (Some 1)
    (Med_stats.distinct_of ts "x");
  check (Alcotest.option float_t) "everything below a high bound" (Some 1.0)
    (Med_stats.cmp_fraction ts "x" `Lt (Value.Int 100));
  check (Alcotest.option float_t) "nothing above it" (Some 0.0)
    (Med_stats.cmp_fraction ts "x" `Gt (Value.Int 100));
  (* NULL probes never match, matching SQL comparison semantics. *)
  check (Alcotest.option float_t) "null probe" (Some 0.0)
    (Med_stats.eq_fraction ts "x" Value.Null)

let test_stats_material_drift () =
  let st = Med_stats.create () in
  let observe rows = Med_stats.observe_rows st ~source:"s" ~export:"t" rows in
  let rows () =
    Option.map (fun ts -> ts.Med_stats.ts_rows) (Med_stats.find st ~source:"s" ~export:"t")
  in
  check (Alcotest.option int_t) "unobserved" None (rows ());
  observe 100;
  check (Alcotest.option int_t) "first observation seeds" (Some 100) (rows ());
  observe 150;
  check (Alcotest.option int_t) "small drift keeps the count" (Some 100) (rows ());
  observe 300;
  check (Alcotest.option int_t) "2x drift moves it" (Some 300) (rows ());
  observe 140;
  check (Alcotest.option int_t) "2x shrink moves it" (Some 140) (rows ())

(* ------------------------------------------------------------------ *)
(* DPsize enumerator                                                   *)
(* ------------------------------------------------------------------ *)

let mk_rel id rows =
  { Med_optimize.r_id = id; r_rows = rows; r_latency_ms = 5.0; r_per_tuple_ms = 0.01 }

let test_dp_too_few_or_too_many () =
  let sel _ _ = 0.1 in
  check bool_t "one relation" true
    (Med_optimize.enumerate ~connected:(fun _ _ -> true) ~join_selectivity:sel
       [| mk_rel "a" 10.0 |]
    = None);
  let rels = Array.init 4 (fun i -> mk_rel (Printf.sprintf "a%d" i) 10.0) in
  check bool_t "past the cap falls back" true
    (Med_optimize.enumerate ~max_relations:3 ~connected:(fun _ _ -> true)
       ~join_selectivity:sel rels
    = None);
  check bool_t "at the cap enumerates" true
    (Med_optimize.enumerate ~max_relations:4 ~connected:(fun _ _ -> true)
       ~join_selectivity:sel rels
    <> None)

let test_dp_cartesian_only_when_disconnected () =
  let rels = [| mk_rel "a" 10.0; mk_rel "b" 20.0 |] in
  match
    Med_optimize.enumerate ~connected:(fun _ _ -> false)
      ~join_selectivity:(fun _ _ -> 1.0) rels
  with
  | None -> Alcotest.fail "disconnected pair should still plan (cartesian)"
  | Some p ->
    check float_t "cartesian output rows" 200.0 p.Med_optimize.p_rows;
    check int_t "covers both leaves" 2 (List.length (Med_optimize.leaves p.p_tree))

let test_dp_order_and_determinism () =
  (* Star: a big fact f connected to two small dims; the chosen tree
     must cover every leaf and repeat runs must agree exactly. *)
  let rels = [| mk_rel "f" 5000.0; mk_rel "d1" 10.0; mk_rel "d2" 20.0 |] in
  let connected i j = i = 0 || j = 0 in
  let sel i j = if i = 0 || j = 0 then 0.01 else 1.0 in
  match
    ( Med_optimize.enumerate ~connected ~join_selectivity:sel rels,
      Med_optimize.enumerate ~connected ~join_selectivity:sel rels )
  with
  | Some p1, Some p2 ->
    check (Alcotest.list int_t) "all leaves, each once" [ 0; 1; 2 ]
      (List.sort compare (Med_optimize.leaves p1.Med_optimize.p_tree));
    check Alcotest.string "deterministic"
      (Med_optimize.to_string rels p1.Med_optimize.p_tree)
      (Med_optimize.to_string rels p2.Med_optimize.p_tree);
    check float_t "same cost" p1.Med_optimize.p_cost p2.Med_optimize.p_cost;
    check bool_t "cost positive" true (p1.Med_optimize.p_cost > 0.0)
  | _ -> Alcotest.fail "expected plans"

let test_mode_of_string () =
  check bool_t "greedy" true (Med_optimize.mode_of_string "greedy" = Some Med_optimize.Greedy);
  check bool_t "dp" true (Med_optimize.mode_of_string "dp" = Some Med_optimize.dp);
  check bool_t "dp:4" true
    (Med_optimize.mode_of_string "dp:4" = Some (Med_optimize.Dp { max_relations = 4 }));
  check bool_t "dp:1 rejected" true (Med_optimize.mode_of_string "dp:1" = None);
  check bool_t "nonsense rejected" true (Med_optimize.mode_of_string "fast" = None)

(* ------------------------------------------------------------------ *)
(* Fixture: two identical federations, one per optimizer mode          *)
(* ------------------------------------------------------------------ *)

let build_catalog ?(analyze = true) ~mode ~seed ~ncust ~norders ~offline () =
  let cat = Med_catalog.create () in
  Med_catalog.set_optimizer cat mode;
  let g = Prng.create seed in
  let crm = Rel_db.create ~name:"crm" () in
  ignore
    (Rel_db.exec crm "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier INT)");
  for i = 1 to ncust do
    ignore
      (Rel_db.exec crm
         (Printf.sprintf "INSERT INTO customers VALUES (%d, 'cust %d', %d)" i i
            (1 + Prng.int g 3)))
  done;
  let sales = Rel_db.create ~name:"sales" () in
  ignore
    (Rel_db.exec sales
       "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, amount FLOAT)");
  for i = 1 to norders do
    (* Some orders carry NULL customer keys: they must never join, and a
       bind join must not ship them as IN-list keys. *)
    let cust =
      if Prng.int g 8 = 0 then "NULL" else string_of_int (1 + Prng.int g ncust)
    in
    ignore
      (Rel_db.exec sales
         (Printf.sprintf "INSERT INTO orders VALUES (%d, %s, %g)" i cust
            (float_of_int (10 + Prng.int g 5000) /. 10.0)))
  done;
  let profile =
    { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.02;
      availability = (if offline then 0.0 else 1.0) }
  in
  let wrapped, stats = Net_sim.wrap ~seed:7 profile (Rel_source.make sales) in
  Med_catalog.register_source cat (Rel_source.make crm);
  Med_catalog.register_source cat wrapped;
  if analyze then ignore (Med_catalog.analyze cat);
  (cat, stats)

let queries =
  [|
    (* Fact/dim join with a selective dimension filter — the bind-join
       shape.  ORDER BY a unique key makes answers byte-comparable. *)
    {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id><amount>$a</amount></row> IN "sales.orders",
            <row><id>$c</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
            $t = 1
      CONSTRUCT <r><o>$o</o><n>$n</n><a>$a</a></r> ORDER BY $o|};
    (* Extra range residual on the fact side. *)
    {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id><amount>$a</amount></row> IN "sales.orders",
            <row><id>$c</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
            $t = 2, $a > 100
      CONSTRUCT <r><o>$o</o><n>$n</n></r> ORDER BY $o|};
    (* Single access: DP degenerates to the greedy path. *)
    {|WHERE <row><id>$c</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
            $t = 2
      CONSTRUCT <c><i>$c</i><n>$n</n></c> ORDER BY $c|};
  |]

let render trees = String.concat "\n" (List.map Dtree.to_string trees)

(* ------------------------------------------------------------------ *)
(* QCheck: optimized == greedy, engines x failure modes x offline      *)
(* ------------------------------------------------------------------ *)

let gen_case =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let* ncust = int_range 4 25 in
  let* norders = int_range 10 120 in
  let* offline = bool in
  let* engine = int_bound 2 in
  let* strict = bool in
  let* qidx = int_bound (Array.length queries - 1) in
  pure (seed, ncust, norders, offline, engine, strict, qidx)

let engine_of = function
  | 0 -> Alg_exec.Tuple
  | 1 -> Alg_exec.Parallel { domains = 1; chunk = 4 }
  | _ -> Alg_exec.Parallel { domains = 2; chunk = 3 }

let prop_dp_equals_greedy =
  QCheck2.Test.make ~name:"dp plan = greedy plan (answers byte-identical)"
    ~print:(fun (seed, ncust, norders, offline, engine, strict, qidx) ->
      Printf.sprintf "seed=%d ncust=%d norders=%d offline=%b engine=%d strict=%b qidx=%d"
        seed ncust norders offline engine strict qidx)
    ~count:40 gen_case
    (fun (seed, ncust, norders, offline, engine, strict, qidx) ->
      let cat_g, _ =
        build_catalog ~mode:Med_optimize.Greedy ~seed ~ncust ~norders ~offline ()
      in
      let cat_d, _ =
        build_catalog ~mode:Med_optimize.dp ~seed ~ncust ~norders ~offline ()
      in
      Med_catalog.set_exec_mode cat_g (engine_of engine);
      Med_catalog.set_exec_mode cat_d (engine_of engine);
      let q = Xq_parser.parse_exn queries.(qidx) in
      if strict then begin
        let outcome cat =
          match Med_exec.run cat q with
          | trees -> Ok (render trees)
          | exception Alg_exec.Source_unavailable s -> Error s
          | exception Source.Unavailable s -> Error s
        in
        outcome cat_g = outcome cat_d
      end
      else begin
        let outcome cat =
          let trees, skipped = Med_exec.run_partial cat q in
          (render trees, List.sort compare skipped)
        in
        outcome cat_g = outcome cat_d
      end)

(* ------------------------------------------------------------------ *)
(* Bind joins and EXPLAIN surfaces                                     *)
(* ------------------------------------------------------------------ *)

let test_dp_converts_to_bind_join () =
  let cat, stats =
    build_catalog ~mode:Med_optimize.dp ~seed:3 ~ncust:12 ~norders:200
      ~offline:false ()
  in
  let q = Xq_parser.parse_exn queries.(0) in
  let compiled = Med_planner.compile cat q in
  (match compiled.Med_planner.opt_info with
  | None -> Alcotest.fail "DP compile should carry optimizer info"
  | Some oi ->
    check bool_t "dp mode" true (oi.Med_planner.oi_mode = "dp");
    check bool_t "one bind join" true (oi.Med_planner.oi_binds <> []));
  let explained = Med_planner.explain compiled in
  check bool_t "explain shows the bind" true (contains explained "SQL-BIND");
  check bool_t "explain shows the order" true (contains explained "optimizer: dp");
  (* The bound fetch ships strictly fewer fact rows than the unbound
     scan on the greedy side. *)
  let cat_g, stats_g =
    build_catalog ~mode:Med_optimize.Greedy ~seed:3 ~ncust:12 ~norders:200
      ~offline:false ()
  in
  let s0 = stats.Net_sim.tuples_shipped and g0 = stats_g.Net_sim.tuples_shipped in
  let out_d = render (Med_exec.run cat q) in
  let out_g = render (Med_exec.run cat_g q) in
  check Alcotest.string "answers byte-identical" out_g out_d;
  let shipped_d = stats.Net_sim.tuples_shipped - s0
  and shipped_g = stats_g.Net_sim.tuples_shipped - g0 in
  check bool_t "bind join ships fewer fact rows" true (shipped_d < shipped_g)

let test_explain_analyze_reports_estimates () =
  let cat, _ =
    build_catalog ~mode:Med_optimize.dp ~seed:5 ~ncust:10 ~norders:80
      ~offline:false ()
  in
  let q = Xq_parser.parse_exn queries.(0) in
  let a = Med_exec.run_analyzed cat q in
  let report = Med_exec.analysis_to_string a in
  check bool_t "optimizer cell present" true (contains report "optimizer: dp");
  check bool_t "per-operator estimates" true (contains report "est ");
  check bool_t "per-operator actuals" true (contains report "actual ");
  check bool_t "per-fragment estimates" true (contains report "est=")

(* ------------------------------------------------------------------ *)
(* Plan cache: fresh statistics                                        *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_replans_after_analyze () =
  let cat, _ =
    build_catalog ~analyze:false ~mode:Med_optimize.dp ~seed:5 ~ncust:10 ~norders:80
      ~offline:false ()
  in
  let lens =
    Fe_lens.make ~name:"tiered"
      ~params:[ Fe_lens.param "tier" Value.TInt ]
      [ ( "orders",
          {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id></row> IN "sales.orders",
                  <row><id>$c</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
                  $t = %tier%
            CONSTRUCT <r><o>$o</o><n>$n</n></r> ORDER BY $o|} ) ]
  in
  let pc = Srv_plancache.create cat in
  (* Every plan the cache hands out is the cold compile of the same
     invocation against the catalog as it is at that moment. *)
  let look tier =
    let compiled, hit =
      Srv_plancache.lookup pc ~lens ~query:"orders" ~args:[ ("tier", tier) ]
    in
    let cold = Med_planner.compile cat (Fe_lens.instantiate lens "orders" [ ("tier", tier) ]) in
    check bool_t ("tier " ^ tier ^ ": plan = cold compile") true (compiled = cold);
    (compiled, hit)
  in
  check bool_t "cold miss" false (snd (look "1"));
  let before, hit = look "2" in
  check bool_t "warm hit" true hit;
  (* \analyze refreshes statistics: the next plan is chosen by them,
     and the cached parse still serves it. *)
  ignore (Med_catalog.analyze cat);
  let after, hit = look "2" in
  check bool_t "hit after analyze" true hit;
  check bool_t "refreshed statistics reach the plan" true (before <> after);
  check int_t "one miss total" 1 (Srv_plancache.stats pc).Srv_plancache.misses

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_dp_equals_greedy ] in
  Alcotest.run "optimize"
    [
      ( "stats",
        [
          Alcotest.test_case "empty table" `Quick test_stats_empty_table;
          Alcotest.test_case "all-null column" `Quick test_stats_all_null_column;
          Alcotest.test_case "single-value domain" `Quick test_stats_single_value_domain;
          Alcotest.test_case "row counts: material drift only" `Quick
            test_stats_material_drift;
        ] );
      ( "dpsize",
        [
          Alcotest.test_case "cap and arity fallback" `Quick test_dp_too_few_or_too_many;
          Alcotest.test_case "cartesian only when disconnected" `Quick
            test_dp_cartesian_only_when_disconnected;
          Alcotest.test_case "order choice is deterministic" `Quick
            test_dp_order_and_determinism;
          Alcotest.test_case "mode strings" `Quick test_mode_of_string;
        ] );
      ( "bind-join",
        [
          Alcotest.test_case "dp converts and ships fewer rows" `Quick
            test_dp_converts_to_bind_join;
          Alcotest.test_case "explain analyze reports estimates" `Quick
            test_explain_analyze_reports_estimates;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "analyze re-plans, parse still hits" `Quick
            test_plan_cache_replans_after_analyze;
        ]
        @ props );
    ]
