(* Tests for sources, the registry, the network simulator and the
   mediator (catalog, SQL fragment compiler, planner, executor).

   The central property: for every query, the compiled pipeline
   (decompose -> push down -> join -> construct) returns exactly what the
   reference evaluator computes by brute force. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fixture: a small federation                                         *)
(* ------------------------------------------------------------------ *)

let make_crm () =
  let db = Rel_db.create ~name:"crm" () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT NOT NULL, region TEXT, tier INT)";
      "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, amount FLOAT, item TEXT)";
      "INSERT INTO customers VALUES (1, 'Acme Corp', 'west', 1), (2, 'Globex', 'east', 2), \
       (3, 'Initech', 'west', 2), (4, 'Umbrella', 'south', 3)";
      "INSERT INTO orders VALUES (100, 1, 250.0, 'widget'), (101, 1, 70.0, 'gadget'), \
       (102, 2, 9000.0, 'server'), (103, 3, 120.0, 'widget'), (104, 9, 5.0, 'scrap')";
    ];
  db

let catalog_xml =
  {|<catalog>
      <product sku="widget"><price>25</price><cat>tools</cat></product>
      <product sku="gadget"><price>70</price><cat>tools</cat></product>
      <product sku="server"><price>4500</price><cat>infra</cat></product>
    </catalog>|}

let make_catalog () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make (make_crm ()));
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ]);
  Med_catalog.register_source cat
    (Csv_source.make ~name:"legacy"
       [ ("contacts", "cust,email\nAcme Corp,acme@x.com\nGlobex,info@globex.com\n") ]);
  cat

let q = Xq_parser.parse_exn

(* Compare compiled execution against the reference evaluator. *)
let agree ?opts cat query =
  let compiled = Med_exec.run ?opts cat query in
  let reference = Xq_eval.eval (Med_exec.direct_resolver cat) query in
  let norm trees = List.sort compare (List.map Dtree.to_string trees) in
  norm compiled = norm reference

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let test_rel_source_exports () =
  let src = Rel_source.make (make_crm ()) in
  check (Alcotest.list string_t) "exports" [ "customers"; "orders" ]
    (List.sort String.compare (src.Source.document_names ()));
  let docs = src.Source.documents "customers" in
  check int_t "one doc" 1 (List.length docs);
  check int_t "four rows" 4 (List.length (Dtree.kids (List.hd docs)))

let test_rel_source_sql () =
  let src = Rel_source.make (make_crm ()) in
  match src.Source.execute (Source.Q_sql "SELECT name FROM customers WHERE tier = 2") with
  | Source.R_rows (names, rows) ->
    check (Alcotest.list string_t) "cols" [ "name" ] names;
    check int_t "two tier-2" 2 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows"

let test_rel_source_capability () =
  let cap = { Source.scan_only with Source.can_project = true } in
  let src = Rel_source.make_limited cap (make_crm ()) in
  (try
     ignore (src.Source.execute (Source.Q_sql "SELECT * FROM customers WHERE tier = 2"));
     Alcotest.fail "expected rejection"
   with Source.Query_rejected _ -> ());
  match src.Source.execute (Source.Q_sql "SELECT name FROM customers") with
  | Source.R_rows (_, rows) -> check int_t "plain projection ok" 4 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows"

let test_xml_source_path () =
  let src = Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ] in
  match
    src.Source.execute
      (Source.Q_path ("catalog", Xml_path.parse_exn "//product[cat='tools']", Source.Whole))
  with
  | Source.R_trees trees -> check int_t "two tools" 2 (List.length trees)
  | Source.R_rows _ | Source.R_batch _ -> Alcotest.fail "expected trees"

let test_csv_source_scan () =
  let src =
    Csv_source.make ~name:"legacy" [ ("contacts", "cust,email\nA,a@x\nB,b@x\n") ]
  in
  (match src.Source.execute (Source.Q_scan "contacts") with
  | Source.R_rows (_, rows) -> check int_t "two rows" 2 (List.length rows)
  | Source.R_trees _ | Source.R_batch _ -> Alcotest.fail "expected rows");
  try
    ignore (src.Source.execute (Source.Q_sql "SELECT * FROM contacts"));
    Alcotest.fail "expected rejection"
  with Source.Query_rejected _ -> ()

let test_registry_resolution () =
  let cat = make_catalog () in
  let reg = Med_catalog.registry cat in
  check bool_t "dotted export" true (Src_registry.resolve_export reg "crm.customers" <> None);
  check bool_t "unknown" true (Src_registry.resolve_export reg "nope.t" = None);
  let docs = Src_registry.documents reg "crm.orders" in
  check int_t "orders doc" 1 (List.length docs);
  check bool_t "exports listed" true
    (List.mem "crm.customers" (Src_registry.exports reg))

let test_net_sim_costs () =
  let src = Rel_source.make (make_crm ()) in
  let wrapped, stats =
    Net_sim.wrap { Net_sim.latency_ms = 10.0; per_tuple_ms = 1.0; availability = 1.0 } src
  in
  ignore (wrapped.Source.execute (Source.Q_sql "SELECT * FROM customers"));
  check int_t "one call" 1 stats.Net_sim.calls;
  check int_t "four tuples" 4 stats.Net_sim.tuples_shipped;
  check bool_t "virtual time = 10 + 4" true (abs_float (stats.Net_sim.virtual_ms -. 14.0) < 1e-9)

let test_net_sim_unavailable () =
  let src = Rel_source.make (make_crm ()) in
  let wrapped, stats =
    Net_sim.wrap ~seed:42 { Net_sim.default_profile with Net_sim.availability = 0.0 } src
  in
  (try
     ignore (wrapped.Source.execute (Source.Q_scan "customers"));
     Alcotest.fail "expected Unavailable"
   with Source.Unavailable name -> check string_t "names source" "crm" name);
  check int_t "failure recorded" 1 stats.Net_sim.failed

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let west_view_text =
  {|WHERE <row><id>$i</id><name>$n</name><region>"west"</region></row> IN "crm.customers"
    CONSTRUCT <customer><id>$i</id><name>$n</name></customer>|}

let test_catalog_views () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  check bool_t "registered" true (Med_catalog.find_view cat "west_customers" <> None);
  check int_t "depth 1" 1 (Med_catalog.view_depth cat "west_customers");
  (* hierarchical: a view over the view *)
  Med_catalog.define_view_text cat "west_ids"
    {|WHERE <customer><id>$i</id></customer> IN "west_customers"
      CONSTRUCT <wid>$i</wid>|};
  check int_t "depth 2" 2 (Med_catalog.view_depth cat "west_ids");
  check (Alcotest.list string_t) "deps" [ "west_customers" ]
    (Med_catalog.dependencies cat "west_ids")

let test_catalog_errors () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "v1" west_view_text;
  let expect_err f =
    try
      f ();
      Alcotest.fail "expected Catalog_error"
    with Med_catalog.Catalog_error _ -> ()
  in
  expect_err (fun () -> Med_catalog.define_view_text cat "v1" west_view_text);
  expect_err (fun () ->
      Med_catalog.define_view_text cat "v2"
        {|WHERE <x>$a</x> IN "no_such_source" CONSTRUCT <y>$a</y>|});
  Med_catalog.define_view_text cat "v3"
    {|WHERE <customer><id>$i</id></customer> IN "v1" CONSTRUCT <z>$i</z>|};
  expect_err (fun () -> Med_catalog.drop_view cat "v1");
  Med_catalog.drop_view cat "v3";
  Med_catalog.drop_view cat "v1"

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let test_compile_pushes_sql () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t >= 2
           CONSTRUCT <c>$n</c>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "projected" true (contains fragment.Med_sqlgen.sql_text "SELECT name, tier");
    check bool_t "where pushed" true (contains fragment.Med_sqlgen.sql_text "WHERE");
    check bool_t "condition recorded" true
      (List.length fragment.Med_sqlgen.pushed_conditions = 1);
    check int_t "no residual" 0 (List.length compiled.Med_planner.residual_conditions)
  | _ -> Alcotest.fail "expected one SQL access"

let test_compile_no_pushdown_option () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_pushdown cat
      (q
         {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t >= 2
           CONSTRUCT <c>$n</c>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "star projection" true (contains fragment.Med_sqlgen.sql_text "SELECT *");
    check bool_t "no where" false (contains fragment.Med_sqlgen.sql_text "WHERE");
    check int_t "condition residual" 1 (List.length compiled.Med_planner.residual_conditions)
  | _ -> Alcotest.fail "expected one SQL access"

let test_compile_xml_uses_path () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q {|WHERE <product sku=$s><cat>"tools"</cat></product> IN "products.catalog"
           CONSTRUCT <p>$s</p>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_path { path; _ }) ] ->
    let rendered = Xml_path.to_string path in
    check bool_t "descendant-or-self" true (contains rendered "descendant-or-self::product");
    check bool_t "attr presence" true (contains rendered "[@sku]");
    check bool_t "literal child pushed" true (contains rendered "[cat='tools']")
  | _ -> Alcotest.fail "expected a path access");
  (* pushdown disabled falls back to shipping documents *)
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_pushdown cat
      (q {|WHERE <product sku=$s/> IN "products.catalog" CONSTRUCT <p>$s</p>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected fallback to match");
  (* wildcard tags derive no useful path *)
  let compiled =
    Med_planner.compile cat (q {|WHERE <*>$c</*> IN "products.catalog" CONSTRUCT <x>$c</x>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected match for wildcard"

let test_path_pushdown_ships_fewer_nodes () =
  let xml_src = Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ] in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile xml_src in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q {|WHERE <product sku=$s><cat>"infra"</cat></product> IN "products.catalog"
        CONSTRUCT <p>$s</p>|}
  in
  let r1 = Med_exec.run cat query in
  let pushed = stats.Net_sim.tuples_shipped in
  Net_sim.reset stats;
  let r2 = Med_exec.run ~opts:Med_sqlgen.no_pushdown cat query in
  let shipped = stats.Net_sim.tuples_shipped in
  check int_t "same answers" (List.length r1) (List.length r2);
  check bool_t "path preselection ships fewer nodes" true (pushed < shipped);
  check bool_t "matches reference" true (agree cat query)

let test_compile_nested_pattern_falls_back () =
  let cat = make_catalog () in
  (* content binding under row is not relational: falls back to match *)
  let compiled =
    Med_planner.compile cat (q {|WHERE <row>$c</row> IN "crm.customers" CONSTRUCT <x>$c</x>|})
  in
  match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_match _) ] -> ()
  | _ -> Alcotest.fail "expected fallback to match"

let test_explain_shows_fragments () =
  let cat = make_catalog () in
  let text =
    Med_exec.explain_text cat
      {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c>$n</c>|}
  in
  check bool_t "mentions SQL" true (contains text "SQL @crm");
  check bool_t "mentions scan" true (contains text "SCAN")

(* ------------------------------------------------------------------ *)
(* Execution correctness (vs reference)                                *)
(* ------------------------------------------------------------------ *)

let test_run_select_project () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><name>$n</name><region>$r</region></row> IN "crm.customers", $r = 'west'
        CONSTRUCT <west>$n</west>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two west customers" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_join_two_tables () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
             <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
             $a > 100
        CONSTRUCT <big><who>$n</who><amt>$a</amt></big>|}
  in
  let results = Med_exec.run cat query in
  check int_t "three big orders" 3 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_join_relational_with_xml () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><item>$s</item><amount>$a</amount></row> IN "crm.orders",
             <product sku=$s><price>$p</price></product> IN "products.catalog"
        CONSTRUCT <line><sku>$s</sku><amt>$a</amt><unit>$p</unit></line>|}
  in
  let results = Med_exec.run cat query in
  check int_t "four priced orders" 4 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_csv_source () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><cust>$c</cust><email>$e</email></row> IN "legacy.contacts"
        CONSTRUCT <contact><c>$c</c><e>$e</e></contact>|}
  in
  check int_t "two contacts" 2 (List.length (Med_exec.run cat query));
  check bool_t "matches reference" true (agree cat query)

let test_run_order_limit () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><amount>$a</amount></row> IN "crm.orders"
        CONSTRUCT <o>$a</o> ORDER BY $a DESC LIMIT 2|}
  in
  let results = Med_exec.run cat query in
  check (Alcotest.list string_t) "top amounts" [ "9000.0"; "250.0" ]
    (List.map Dtree.text results)

let test_run_element_as () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><tier>"1"</tier></row> ELEMENT_AS $r IN "crm.customers"
        CONSTRUCT <kept>$r</kept>|}
  in
  let results = Med_exec.run cat query in
  check int_t "one tier-1 row" 1 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_through_view () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  let query =
    q {|WHERE <customer><name>$n</name></customer> IN "west_customers" CONSTRUCT <w>$n</w>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two west" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_run_view_over_view () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "west_customers" west_view_text;
  Med_catalog.define_view_text cat "west_ids"
    {|WHERE <customer><id>$i</id></customer> IN "west_customers" CONSTRUCT <wid>$i</wid>|};
  let query = q {|WHERE <wid>$i</wid> IN "west_ids" CONSTRUCT <x>$i</x>|} in
  let results = Med_exec.run cat query in
  check int_t "two ids through two levels" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_union_view () =
  let cat = make_catalog () in
  (* One mediated schema integrating customers and contacts into a
     single <party> shape — the UNION the merger scenario needs. *)
  Med_catalog.define_view_text cat "parties"
    {|WHERE <row><name>$n</name></row> IN "crm.customers"
      CONSTRUCT <party src="crm">$n</party>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts"
      CONSTRUCT <party src="legacy">$n</party>|};
  (match Med_catalog.find_view cat "parties" with
  | Some v -> check int_t "two definitions" 2 (List.length v.Med_catalog.definitions)
  | None -> Alcotest.fail "expected view");
  let query = q {|WHERE <party>$n</party> IN "parties" CONSTRUCT <p>$n</p>|} in
  let results = Med_exec.run cat query in
  check int_t "4 customers + 2 contacts" 6 (List.length results);
  check bool_t "matches reference" true (agree cat query);
  (* dependencies span both branches *)
  check (Alcotest.list string_t) "deps" [ "crm.customers"; "legacy.contacts" ]
    (Med_catalog.dependencies cat "parties")

let test_union_view_materializes () =
  let cat = make_catalog () in
  Med_catalog.define_view_text cat "parties"
    {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <party>$n</party>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts" CONSTRUCT <party>$n</party>|};
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "parties");
  match Mat_store.lookup store "parties" with
  | Some trees -> check int_t "all six stored" 6 (List.length trees)
  | None -> Alcotest.fail "expected materialized union"

let test_run_correlated_subquery () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers", $i <= 2
        CONSTRUCT <customer><name>$n</name>
          { WHERE <row><cust_id>$i</cust_id><item>$it</item></row> IN "crm.orders"
            CONSTRUCT <bought>$it</bought> }
        </customer>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two customers" 2 (List.length results);
  let acme = List.hd results in
  check int_t "acme bought two items" 2 (List.length (Dtree.kids_named acme "bought"));
  check bool_t "matches reference" true (agree cat query)

let test_capability_fallback_agrees () =
  (* A relational source that rejects WHERE clauses: the mediator must
     fall back to shipping the table and filtering client-side, with the
     same answers. *)
  let cat = Med_catalog.create () in
  let cap = { Source.scan_only with Source.can_project = true } in
  Med_catalog.register_source cat (Rel_source.make_limited cap (make_crm ()));
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 2
        CONSTRUCT <c>$n</c>|}
  in
  let results = Med_exec.run cat query in
  check int_t "two tier-2" 2 (List.length results);
  check bool_t "matches reference" true (agree cat query)

let test_partial_results_mode () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make (make_crm ()));
  let down, _ =
    Net_sim.wrap { Net_sim.default_profile with Net_sim.availability = 0.0 }
      (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ])
  in
  Med_catalog.register_source cat down;
  let query =
    q
      {|WHERE <row><name>$n</name></row> IN "crm.customers"
        CONSTRUCT <c>$n</c>|}
  in
  (* Query touching only the live source is unaffected. *)
  let trees, skipped = Med_exec.run_partial cat query in
  check int_t "full answer" 4 (List.length trees);
  check int_t "nothing skipped" 0 (List.length skipped);
  (* A union-style query over both sources: partial mode answers from
     the live part and reports the dead one. *)
  let mixed =
    q
      {|WHERE <product sku=$s/> IN "products.catalog"
        CONSTRUCT <p>$s</p>|}
  in
  (try
     ignore (Med_exec.run cat mixed);
     Alcotest.fail "strict mode should fail"
   with Source.Unavailable _ | Alg_exec.Source_unavailable _ -> ());
  let trees, skipped = Med_exec.run_partial cat mixed in
  check int_t "empty but answered" 0 (List.length trees);
  check (Alcotest.list string_t) "annotated" [ "products" ] skipped

let test_pushdown_ships_fewer_tuples () =
  (* The mechanism behind experiment E3: with pushdown the source ships
     only matching rows; without it the whole table crosses the wire. *)
  let db = make_crm () in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile (Rel_source.make db) in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 1
        CONSTRUCT <c>$n</c>|}
  in
  let r1 = Med_exec.run cat query in
  let pushed_tuples = stats.Net_sim.tuples_shipped in
  Net_sim.reset stats;
  let r2 = Med_exec.run ~opts:Med_sqlgen.no_pushdown cat query in
  let shipped_tuples = stats.Net_sim.tuples_shipped in
  check int_t "same answers" (List.length r1) (List.length r2);
  check bool_t "pushdown ships fewer" true (pushed_tuples < shipped_tuples);
  check int_t "pushdown ships exactly matches" 1 pushed_tuples

let test_join_pushdown_single_fragment () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
               <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
               $a > 100
           CONSTRUCT <big>$n</big>|})
  in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql_join { fragment; exports; _ }) ] ->
    check bool_t "single join fragment" true
      (contains fragment.Med_sqlgen.jf_sql_text "JOIN");
    check bool_t "join condition present" true
      (contains fragment.Med_sqlgen.jf_sql_text "t0.id = t1.cust_id");
    check bool_t "predicate pushed into fragment" true
      (contains fragment.Med_sqlgen.jf_sql_text "amount > 100");
    check (Alcotest.list string_t) "covers both tables" [ "customers"; "orders" ] exports
  | _ -> Alcotest.fail "expected one A_sql_join access");
  check int_t "no residual conditions" 0
    (List.length compiled.Med_planner.residual_conditions)

let test_join_pushdown_disabled_option () =
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile ~opts:Med_sqlgen.no_join_pushdown cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><cust_id>$i</cust_id></row> IN "crm.orders"
           CONSTRUCT <x>$i</x>|})
  in
  check int_t "two separate accesses" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_cross_product_refused () =
  (* Clauses over the same source with no shared variable must not be
     pushed as a cross product. *)
  let cat = make_catalog () in
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><oid>$o</oid></row> IN "crm.orders"
           CONSTRUCT <x><i>$i</i><o>$o</o></x>|})
  in
  check int_t "kept separate" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_not_for_limited_source () =
  let cat = Med_catalog.create () in
  let cap = { Source.full_capability with Source.can_join = false } in
  Med_catalog.register_source cat (Rel_source.make_limited cap (make_crm ()));
  let compiled =
    Med_planner.compile cat
      (q
         {|WHERE <row><id>$i</id></row> IN "crm.customers",
               <row><cust_id>$i</cust_id></row> IN "crm.orders"
           CONSTRUCT <x>$i</x>|})
  in
  check int_t "capability respected" 2 (List.length compiled.Med_planner.accesses)

let test_join_pushdown_results_agree () =
  let cat = make_catalog () in
  let query =
    q
      {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
             <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
             $a > 100
        CONSTRUCT <big><who>$n</who><amt>$a</amt></big>|}
  in
  check bool_t "pushed join matches reference" true (agree cat query);
  (* and the three-way variant (customers x orders x orders alias is not
     expressible; use element count instead) *)
  let results = Med_exec.run cat query in
  let separate = Med_exec.run ~opts:Med_sqlgen.no_join_pushdown cat query in
  check int_t "same answers with and without join pushdown" (List.length results)
    (List.length separate)

let test_order_limit_pushdown () =
  let db = make_crm () in
  let wrapped, stats = Net_sim.wrap Net_sim.default_profile (Rel_source.make db) in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let query =
    q
      {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers"
        CONSTRUCT <c>$n</c> ORDER BY $t DESC LIMIT 2|}
  in
  let compiled = Med_planner.compile cat query in
  (match compiled.Med_planner.accesses with
  | [ (_, Med_planner.A_sql { fragment; _ }) ] ->
    check bool_t "order shipped" true (contains fragment.Med_sqlgen.sql_text "ORDER BY");
    check bool_t "limit shipped" true (contains fragment.Med_sqlgen.sql_text "LIMIT 2")
  | _ -> Alcotest.fail "expected one SQL access");
  Net_sim.reset stats;
  let results = Med_exec.run cat query in
  check int_t "two results" 2 (List.length results);
  check int_t "only two tuples crossed the wire" 2 stats.Net_sim.tuples_shipped;
  check bool_t "order correct" true
    (List.map Dtree.text results = [ "Umbrella"; "Globex" ]
    || List.map Dtree.text results = [ "Umbrella"; "Initech" ])

(* ------------------------------------------------------------------ *)
(* View composition                                                    *)
(* ------------------------------------------------------------------ *)

(* A shop large enough that pushed constants visibly cut what ships: 30
   customers over three regions and four tiers, 90 orders (some for
   customers that do not exist). *)
let make_shop () =
  let db = Rel_db.create ~name:"shop" () in
  let exec s = ignore (Rel_db.exec db s) in
  exec "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT)";
  exec "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, amount INT, item TEXT)";
  let regions = [| "west"; "east"; "south" |] in
  let items = [| "widget"; "gadget"; "server"; "scrap" |] in
  for i = 1 to 30 do
    exec
      (Printf.sprintf "INSERT INTO customers VALUES (%d, 'cust%02d', '%s', %d)" i i
         regions.(i mod 3) (1 + (i mod 4)))
  done;
  for o = 1 to 90 do
    exec
      (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, '%s')" (1000 + o)
         (1 + (o * 7 mod 31)) (o * 37 mod 500) items.(o mod 4))
  done;
  db

let shop_catalog () =
  let cat = Med_catalog.create () in
  let shop, stats = Net_sim.wrap Net_sim.default_profile (Rel_source.make (make_shop ())) in
  Med_catalog.register_source cat shop;
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ]);
  Med_catalog.register_source cat
    (Csv_source.make ~name:"legacy"
       [ ("contacts", "cust,email\ncust03,c3@x.com\ncust07,c7@x.com\nzeta,z@x.com\n") ]);
  (cat, stats)

let define cat name text = Med_catalog.define_view_text cat name text

(* Level 1 renames customers; level 2 joins west customers (a literal in
   the definition) with their orders. *)
let define_two_levels cat =
  define cat "cust"
    {|WHERE <row><id>$i</id><name>$n</name><region>$r</region><tier>$t</tier></row> IN "shop.customers"
      CONSTRUCT <cust><cid>$i</cid><name>$n</name><region>$r</region><tier>$t</tier></cust>|};
  define cat "west_buys"
    {|WHERE <cust><cid>$i</cid><name>$n</name><region>"west"</region><tier>$t</tier></cust> IN "cust",
            <row><oid>$o</oid><cust_id>$i</cust_id><amount>$a</amount><item>$it</item></row> IN "shop.orders"
      CONSTRUCT <buy><oid>$o</oid><cid>$i</cid><who>$n</who><tier>$t</tier><amount>$a</amount><item>$it</item></buy>|}

(* Answers in order, for queries whose ORDER BY is total. *)
let agree_ordered cat query =
  List.map Dtree.to_string (Med_exec.run cat query)
  = List.map Dtree.to_string (Xq_eval.eval (Med_exec.direct_resolver cat) query)

(* The composition of the access over [view] in a compiled plan, at any
   depth: [Some (Some c)] composed, [Some None] the tree path. *)
let rec find_view_access name (c : Med_planner.compiled) =
  List.find_map
    (fun (_, a) ->
      match a with
      | Med_planner.A_view { view; composed; _ } when view = name -> Some composed
      | Med_planner.A_view { composed = Some { Med_planner.defs; _ }; _ } ->
        List.find_map (fun d -> find_view_access name d.Med_planner.sub) defs
      | _ -> None)
    c.Med_planner.accesses

let explain cat query = Med_planner.explain (Med_planner.compile cat query)

let composed cat query name =
  match find_view_access name (Med_planner.compile cat query) with
  | Some (Some _) -> true
  | Some None -> false
  | None -> Alcotest.failf "no access over view %s" name

let test_compose_two_levels () =
  let cat, stats = shop_catalog () in
  define_two_levels cat;
  let query =
    q
      {|WHERE <buy><oid>$o</oid><cid>$c</cid><who>$w</who><item>"widget"</item><amount>$a</amount></buy> IN "west_buys",
              $c >= 10
        CONSTRUCT <hit><o>$o</o><w>$w</w><a>$a</a></hit>
        ORDER BY $a DESC, $o|}
  in
  check bool_t "composed at both levels" true
    (composed cat query "west_buys" && composed cat query "cust");
  let plan = explain cat query in
  check bool_t "definition literal and range reach the customers fragment" true
    (contains plan "FROM customers WHERE region = 'west' AND id >= 10");
  check bool_t "caller literal reaches the orders fragment" true
    (contains plan "FROM orders WHERE item = 'widget'");
  Net_sim.reset stats;
  let results = Med_exec.run cat query in
  check bool_t "some answers" true (results <> []);
  check bool_t "ships only qualifying rows" true (stats.Net_sim.tuples_shipped < 30);
  check bool_t "matches reference" true (agree cat query);
  check bool_t "matches reference in order" true (agree_ordered cat query)

let test_compose_union_view () =
  let cat, _ = shop_catalog () in
  define cat "parties"
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "shop.customers"
      CONSTRUCT <party><name>$n</name><kind>"customer"</kind></party>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts"
      CONSTRUCT <party><name>$n</name><kind>"contact"</kind></party>|};
  let query =
    q
      {|WHERE <party><name>$n</name><kind>$k</kind></party> IN "parties", $n >= "cust2"
        CONSTRUCT <p><n>$n</n><k>$k</k></p>
        ORDER BY $k, $n|}
  in
  check bool_t "composed" true (composed cat query "parties");
  check bool_t "range absorbed into both definitions" true
    (contains (explain cat query) "WHERE name >= 'cust2'");
  check bool_t "matches reference" true (agree cat query);
  check bool_t "matches reference in order" true (agree_ordered cat query)

let test_compose_definition_order_by () =
  let cat, _ = shop_catalog () in
  define cat "by_name"
    {|WHERE <row><id>$i</id><name>$n</name></row> IN "shop.customers"
      CONSTRUCT <c><id>$i</id><name>$n</name></c>
      ORDER BY $n DESC|};
  (* No ORDER BY in the caller: the answer keeps the definition's order. *)
  let query = q {|WHERE <c><id>$i</id><name>$n</name></c> IN "by_name", $i <= 12 CONSTRUCT <x>$n</x>|} in
  check bool_t "composed" true (composed cat query "by_name");
  check int_t "twelve" 12 (List.length (Med_exec.run cat query));
  check bool_t "matches reference in order" true (agree_ordered cat query)

(* Views the composition cannot reproduce exactly keep the tree path —
   and still answer like the reference. *)
let test_compose_fallbacks () =
  let cat, _ = shop_catalog () in
  let base = {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "shop.customers"|} in
  let flat = "CONSTRUCT <c><id>$i</id><name>$n</name><tier>$t</tier></c>" in
  define cat "flat" (base ^ " " ^ flat);
  List.iter
    (fun (what, construct) -> define cat what (base ^ " " ^ construct))
    [ ("nested", "CONSTRUCT <c><id>$i</id><info><name>$n</name></info></c>");
      ( "aggregate",
        {|CONSTRUCT <c><id>$i</id><name>{COUNT WHERE <row><cust_id>$i</cust_id></row> IN "shop.orders" CONSTRUCT <o/>}</name></c>|}
      );
      ("expression", "CONSTRUCT <c><id>$i</id><name>{$t * 2}</name></c>");
      ("repeated_tag", "CONSTRUCT <c><id>$i</id><id>$t</id><name>$n</name></c>");
      ("child_attr", {|CONSTRUCT <c><id kind="pk">$i</id><name>$n</name></c>|});
      ("root_attr", {|CONSTRUCT <c kind="customer"><id>$i</id><name>$n</name></c>|});
      ("limited", flat ^ " ORDER BY $i LIMIT 3") ];
  let case view pattern =
    let query = q (Printf.sprintf {|WHERE %s IN "%s" CONSTRUCT <x>$i</x>|} pattern view) in
    check bool_t (view ^ " keeps the tree path") false (composed cat query view);
    check bool_t (view ^ " matches reference") true (agree cat query)
  in
  List.iter
    (fun view -> case view "<c><id>$i</id></c>")
    [ "nested"; "aggregate"; "expression"; "repeated_tag"; "child_attr"; "root_attr"; "limited" ];
  (* Caller patterns over the flat view. *)
  case "flat" "<c><id>$i</id></c> ELEMENT_AS $e";
  case "flat" "<*><id>$i</id></*>";
  case "flat" "<c><id>$i</id><tier>$i</tier></c>";
  case "flat" "<other><id>$i</id></other>";
  case "flat" "<c><id>$i</id><id>$j</id></c>";
  (* The same views composed, for contrast. *)
  check bool_t "flat composes" true
    (composed cat (q {|WHERE <c><id>$i</id></c> IN "flat" CONSTRUCT <x>$i</x>|}) "flat")

(* XML-QL compares a literal with the value's text: "014" never equals
   the INT 14, so that literal cannot become the typed equality
   [id = 14]; "14" can. *)
let test_compose_noncanonical_literal () =
  let cat, _ = shop_catalog () in
  define cat "ids"
    {|WHERE <row><id>$i</id><name>$n</name></row> IN "shop.customers"
      CONSTRUCT <c><id>$i</id><name>$n</name></c>|};
  let with_id lit = q (Printf.sprintf {|WHERE <c><id>"%s"</id><name>$n</name></c> IN "ids" CONSTRUCT <x>$n</x>|} lit) in
  check bool_t "014 keeps the tree path" false (composed cat (with_id "014") "ids");
  check int_t "014 matches nothing, as before" 0 (List.length (Med_exec.run cat (with_id "014")));
  check bool_t "014 matches reference" true (agree cat (with_id "014"));
  check bool_t "14 composes" true (composed cat (with_id "14") "ids");
  check int_t "14 matches one" 1 (List.length (Med_exec.run cat (with_id "14")));
  check bool_t "14 matches reference" true (agree cat (with_id "14"))

(* Values with element content: a row whose spliced content holds a
   deeper match yields it, as matching the instantiated tree does. *)
let test_compose_element_content () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"docs"
       [ ( "d",
           {|<d><item sku="a"><price>5</price></item>
                <item sku="b"><price><p><sku>inner</sku><price>7</price></p></price></item></d>|}
         ) ]);
  define cat "priced"
    {|WHERE <item sku=$s><price>$p</price></item> IN "docs.d"
      CONSTRUCT <p><sku>$s</sku><price>$p</price></p>|};
  let query = q {|WHERE <p><sku>$s</sku><price>$x</price></p> IN "priced" CONSTRUCT <r>$s</r>|} in
  check bool_t "composed" true (composed cat query "priced");
  check int_t "two roots and one nested match" 3 (List.length (Med_exec.run cat query));
  check bool_t "matches reference" true (agree cat query);
  (* Values that may be elements never absorb conditions: filtering the
     definition's rows by sku would lose the nested match. *)
  let filtered =
    q {|WHERE <p><sku>$s</sku><price>$x</price></p> IN "priced", $s = "inner" CONSTRUCT <r>$s</r>|}
  in
  check bool_t "condition stays with the caller" true
    (contains (explain cat filtered) "residual conditions");
  check int_t "the nested match survives the filter" 1 (List.length (Med_exec.run cat filtered));
  check bool_t "filtered matches reference" true (agree cat filtered)

let test_compose_partial_offline () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make (make_crm ()));
  let down, _ =
    Net_sim.wrap { Net_sim.default_profile with Net_sim.availability = 0.0 }
      (Xml_source.of_xml_strings ~name:"products" [ ("catalog", catalog_xml) ])
  in
  Med_catalog.register_source cat down;
  define cat "priced"
    {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog"
      CONSTRUCT <pr><sku>$s</sku><price>$p</price></pr>|};
  define cat "bought"
    {|WHERE <row><item>$s</item><oid>$o</oid></row> IN "crm.orders",
            <pr><sku>$s</sku><price>$p</price></pr> IN "priced"
      CONSTRUCT <b><oid>$o</oid><price>$p</price></b>|};
  let query = q {|WHERE <b><oid>$o</oid><price>$p</price></b> IN "bought" CONSTRUCT <x>$o</x>|} in
  check bool_t "composed" true (composed cat query "bought");
  let trees, skipped = Med_exec.run_partial cat query in
  check int_t "nothing answered" 0 (List.length trees);
  check (Alcotest.list string_t) "the source under the view is skipped" [ "products" ] skipped;
  let live =
    q {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <x>$n</x>|}
  in
  let trees, skipped = Med_exec.run_partial cat live in
  check int_t "live part unaffected" 4 (List.length trees);
  check int_t "nothing skipped" 0 (List.length skipped)

let test_compose_materialized () =
  let cat, stats = shop_catalog () in
  define_two_levels cat;
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "west_buys");
  let query =
    q
      {|WHERE <buy><oid>$o</oid><cid>$c</cid><item>"widget"</item></buy> IN "west_buys", $c >= 10
        CONSTRUCT <hit>$o</hit> ORDER BY $o|}
  in
  check bool_t "composed" true (composed cat query "west_buys");
  Net_sim.reset stats;
  let served = Med_exec.run ~view_lookup:(Mat_store.lookup store) cat query in
  check int_t "zero source calls" 0 stats.Net_sim.calls;
  (* The absorbed range applies to the stored copy too. *)
  check (Alcotest.list string_t) "same answer as the sources give"
    (List.map Dtree.to_string (Med_exec.run cat query))
    (List.map Dtree.to_string served)

(* ------------------------------------------------------------------ *)
(* View bind joins                                                     *)
(* ------------------------------------------------------------------ *)

(* Two relational sources behind the network simulator: [crm] holds
   customers (a TEXT [code] like "007" next to the INT id) and regional
   managers, [sales] holds orders, some with NULL or dangling customer
   keys.  Views rename each table, and [cust_mgr] joins two of them, as
   the benchmark's schema does. *)
let order_rows =
  List.init 90 (fun o ->
      let cust = if o mod 9 = 0 then None else Some (1 + (o * 7 mod 33)) in
      (1000 + o, cust, o * 37 mod 500))

let bind_fixture ?(ncust = 30) ?(crm_up = true) ?(sales_up = true) () =
  let crm = Rel_db.create ~name:"crm" () in
  let sales = Rel_db.create ~name:"sales" () in
  let exec db s = ignore (Rel_db.exec db s) in
  exec crm "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, code TEXT, region TEXT, tier INT)";
  exec crm "CREATE TABLE managers (region TEXT, manager TEXT)";
  exec crm "INSERT INTO managers VALUES ('west', 'Ann'), ('east', 'Bo'), ('south', 'Cy')";
  let regions = [| "west"; "east"; "south" |] in
  exec crm
    ("INSERT INTO customers VALUES "
    ^ String.concat ", "
        (List.init ncust (fun k ->
             let i = k + 1 in
             Printf.sprintf "(%d, 'cust%02d', '%03d', '%s', %d)" i i i regions.(i mod 3)
               (1 + (i mod 4)))));
  exec sales "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, amount INT)";
  exec sales
    ("INSERT INTO orders VALUES "
    ^ String.concat ", "
        (List.map
           (fun (o, c, a) ->
             Printf.sprintf "(%d, %s, %d)" o
               (match c with Some c -> string_of_int c | None -> "NULL")
               a)
           order_rows));
  let wrap up db =
    Net_sim.wrap
      { Net_sim.default_profile with Net_sim.availability = (if up then 1.0 else 0.0) }
      (Rel_source.make db)
  in
  let crm_src, crm_stats = wrap crm_up crm in
  let sales_src, sales_stats = wrap sales_up sales in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat crm_src;
  Med_catalog.register_source cat sales_src;
  Med_catalog.register_source cat
    (Csv_source.make ~name:"legacy"
       [ ("contacts", "cust,email\ncust03,c3@x.com\ncust07,c7@x.com\nzeta,z@x.com\n") ]);
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"docs"
       [ ( "d",
           {|<d><item sku="cust02"><price>5</price></item>
                <item sku="cust06"><price><m><who>cust06</who><val>7</val></m></price></item></d>|}
         ) ]);
  define cat "cv"
    {|WHERE <row><id>$i</id><name>$n</name><code>$k</code><region>$r</region><tier>$t</tier></row> IN "crm.customers"
      CONSTRUCT <cu><cid>$i</cid><name>$n</name><code>$k</code><region>$r</region><tier>$t</tier></cu>|};
  define cat "ov"
    {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id><amount>$a</amount></row> IN "sales.orders"
      CONSTRUCT <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob>|};
  define cat "mgr"
    {|WHERE <row><region>$r</region><manager>$m</manager></row> IN "crm.managers"
      CONSTRUCT <mg><region>$r</region><manager>$m</manager></mg>|};
  define cat "cust_mgr"
    {|WHERE <cu><cid>$i</cid><name>$n</name><region>$r</region></cu> IN "cv",
            <mg><region>$r</region><manager>$m</manager></mg> IN "mgr"
      CONSTRUCT <cm><cid>$i</cid><name>$n</name><manager>$m</manager></cm>|};
  (cat, crm_stats, sales_stats)

let engines =
  [
    Alg_exec.Tuple;
    Alg_exec.Parallel { domains = 1; chunk = 4 };
    Alg_exec.Parallel { domains = 2; chunk = 3 };
  ]

(* Answers equal the reference under every engine. *)
let agree_all cat query =
  List.for_all
    (fun mode ->
      Med_catalog.set_exec_mode cat mode;
      let ok = agree cat query && agree_ordered cat query in
      Med_catalog.set_exec_mode cat Alg_exec.Tuple;
      ok)
    engines

let analyze ?view_lookup cat query =
  Med_exec.analysis_to_string (Med_exec.run_analyzed ?view_lookup cat query)

(* A whole [key=value] cell of an EXPLAIN ANALYZE access line. *)
let has_cell report cell = contains report (cell ^ " ") || contains report (cell ^ "]")

(* The customer ⋈ orders shape of the benchmark's [cust_orders]. *)
let cust_orders who =
  q
    (Printf.sprintf
       {|WHERE <cu><cid>$c</cid><name>%s</name></cu> IN "cv",
               <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob> IN "ov"
         CONSTRUCT <r><o>$o</o><c>$c</c><a>$a</a></r> ORDER BY $o|}
       who)

let test_bind_driver_keys () =
  List.iter
    (fun (who, keys, label) ->
      let cat, _, sales = bind_fixture () in
      let query = cust_orders who in
      check bool_t (label ^ ": the view is bound") true
        (contains (explain cat query) "-> VIEW ov (composed): <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob> [narrowed by keys of a0.$c]");
      Net_sim.reset sales;
      let report = analyze cat query in
      check bool_t (label ^ ": keys cell") true (has_cell report ("keys=" ^ keys));
      (match keys with
      | "0" -> check int_t "zero keys make no call" 0 sales.Net_sim.calls
      | _ ->
        check bool_t (label ^ ": ships fewer than the 90 orders") true
          (sales.Net_sim.tuples_shipped < 90));
      check bool_t (label ^ ": matches reference") true (agree_all cat query))
    [ ({|"nobody"|}, "0", "no key"); ({|"cust05"|}, "1", "one key"); ("$n", "30", "many keys") ]

let test_bind_cap () =
  let cat, _, sales = bind_fixture ~ncust:1100 () in
  let query = cust_orders "$n" in
  Net_sim.reset sales;
  let report = analyze cat query in
  check bool_t "unbound past the cap" true (has_cell report "unbound=keys>1024");
  check int_t "the whole table ships" 90 sales.Net_sim.tuples_shipped;
  check bool_t "matches reference" true (agree_all cat query)

(* Orders with a NULL customer key drive the customers view: NULL is
   never a key. *)
let test_bind_null_keys () =
  let cat, _, _ = bind_fixture () in
  let query =
    q
      {|WHERE <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob> IN "ov", $a < 120,
              <cu><cid>$c</cid><name>$n</name></cu> IN "cv"
        CONSTRUCT <r><o>$o</o><n>$n</n></r> ORDER BY $o|}
  in
  let expected =
    List.sort_uniq compare
      (List.filter_map (fun (_, c, a) -> if a < 120 then c else None) order_rows)
  in
  check bool_t "a NULL key is among the driver's rows" true
    (List.exists (fun (_, c, a) -> a < 120 && c = None) order_rows);
  check bool_t "the customers view is bound" true
    (contains (explain cat query) "[narrowed by keys of a0.$c]");
  check bool_t "distinct non-NULL keys" true
    (has_cell (analyze cat query) (Printf.sprintf "keys=%d" (List.length expected)));
  check bool_t "matches reference" true (agree_all cat query)

(* A union view whose second definition reads a CSV export: only the
   relational definition narrows. *)
let test_bind_union_one_narrows () =
  let cat, _, _ = bind_fixture () in
  define cat "party"
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers"
      CONSTRUCT <pt><name>$n</name><src>"crm"</src></pt>
      UNION
      WHERE <row><cust>$n</cust></row> IN "legacy.contacts"
      CONSTRUCT <pt><name>$n</name><src>"csv"</src></pt>|};
  let query =
    q
      {|WHERE <cu><name>$n</name><tier>"4"</tier></cu> IN "cv",
              <pt><name>$n</name><src>$s</src></pt> IN "party"
        CONSTRUCT <r><n>$n</n><s>$s</s></r> ORDER BY $n, $s|}
  in
  let plan = explain cat query in
  check bool_t "bound" true (contains plan "[narrowed by keys of a0.$n]");
  check bool_t "matches reference" true (agree_all cat query);
  check bool_t "csv contact joins" true
    (List.exists (fun t -> contains (Dtree.to_string t) "csv") (Med_exec.run cat query))

(* Definitions that bind the join variable to a literal, or to a value
   that may carry element content, run unnarrowed beside a definition
   that narrows. *)
let test_bind_const_and_element () =
  let cat, _, _ = bind_fixture () in
  define cat "tagged"
    {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers"
      CONSTRUCT <tg><cid>$i</cid><name>$n</name></tg>
      UNION
      WHERE <row><name>$n</name><tier>"4"</tier></row> IN "crm.customers"
      CONSTRUCT <tg><cid>"3"</cid><name>$n</name></tg>|};
  let const_q =
    q
      {|WHERE <cu><cid>$c</cid><tier>"4"</tier></cu> IN "cv",
              <tg><cid>$c</cid><name>$n</name></tg> IN "tagged"
        CONSTRUCT <r><c>$c</c><n>$n</n></r> ORDER BY $c, $n|}
  in
  check bool_t "literal definition: bound" true
    (contains (explain cat const_q) "[narrowed by keys of a0.$c]");
  check bool_t "literal definition: matches reference" true (agree_all cat const_q);
  define cat "mixed"
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers"
      CONSTRUCT <m><who>$n</who><val>$t</val></m>
      UNION
      WHERE <item sku=$s><price>$p</price></item> IN "docs.d"
      CONSTRUCT <m><who>$s</who><val>$p</val></m>|};
  let elem_q =
    q
      {|WHERE <cu><name>$n</name><tier>"3"</tier></cu> IN "cv",
              <m><who>$n</who><val>$v</val></m> IN "mixed"
        CONSTRUCT <r><n>$n</n><v>$v</v></r> ORDER BY $n, $v|}
  in
  check bool_t "element content: bound" true
    (contains (explain cat elem_q) "[narrowed by keys of a0.$n]");
  check bool_t "the nested match survives" true
    (List.exists (fun t -> contains (Dtree.to_string t) "cust06") (Med_exec.run cat elem_q));
  check bool_t "element content: matches reference" true (agree_all cat elem_q)

(* TEXT codes such as "007" drive an INT column: "007" is not the text
   of any INT, so the bound view ships unbound. *)
let test_bind_noncanonical_key () =
  let cat, _, sales = bind_fixture () in
  let query =
    q
      {|WHERE <cu><code>$c</code><tier>"2"</tier></cu> IN "cv",
              <ob><oid>$o</oid><cid>$c</cid></ob> IN "ov"
        CONSTRUCT <r>$o</r>|}
  in
  check bool_t "bound at compile time" true
    (contains (explain cat query) "[narrowed by keys of a0.$c]");
  Net_sim.reset sales;
  check bool_t "unbound at fetch time" true
    (has_cell (analyze cat query) "unbound=non-canonical");
  check int_t "the whole table ships" 90 sales.Net_sim.tuples_shipped;
  check bool_t "matches reference" true (agree_all cat query)

(* Two levels, as in the benchmark's [cust_mgr]: the view of views as the
   driver, and as the bound side narrowed through its inner view. *)
let test_bind_two_levels () =
  let cat, crm, sales = bind_fixture () in
  let driven =
    q
      {|WHERE <cm><cid>$c</cid><name>"cust07"</name><manager>$m</manager></cm> IN "cust_mgr",
              <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob> IN "ov"
        CONSTRUCT <p><o>$o</o><m>$m</m><a>$a</a></p> ORDER BY $a DESC, $o|}
  in
  check bool_t "orders bound to the view of views" true
    (contains (explain cat driven) "[narrowed by keys of a0.$c]");
  Net_sim.reset sales;
  check bool_t "driven: one key" true (has_cell (analyze cat driven) "keys=1");
  check bool_t "driven: a customer's orders ship" true (sales.Net_sim.tuples_shipped < 10);
  check bool_t "driven: matches reference" true (agree_all cat driven);
  let bound =
    q
      {|WHERE <ob><oid>$o</oid><cid>$c</cid><amount>"37"</amount></ob> IN "ov",
              <cm><cid>$c</cid><name>$n</name><manager>$m</manager></cm> IN "cust_mgr"
        CONSTRUCT <p><o>$o</o><n>$n</n><m>$m</m></p> ORDER BY $o|}
  in
  check bool_t "the view of views is bound" true
    (contains (explain cat bound) "-> VIEW cust_mgr (composed): <cm><cid>$c</cid><name>$n</name><manager>$m</manager></cm> [narrowed by keys of a0.$c]");
  Net_sim.reset crm;
  ignore (Med_exec.run cat bound);
  (* One order matches: the inner customers fetch narrows to its
     customer, and the managers view, bound inside [cust_mgr] on the
     region, to that customer's manager. *)
  check int_t "bound: the inner fetches narrow" 2 crm.Net_sim.tuples_shipped;
  check bool_t "bound: matches reference" true (agree_all cat bound)

let test_bind_materialized () =
  let cat, _, sales = bind_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "ov");
  let query = cust_orders {|"cust05"|} in
  let view_lookup = Mat_store.lookup store in
  Net_sim.reset sales;
  let report = analyze ~view_lookup cat query in
  check bool_t "the stored copy serves the view" true (has_cell report "unbound=materialized");
  check int_t "no call to the view's source" 0 sales.Net_sim.calls;
  check (Alcotest.list string_t) "same answer as the sources give"
    (List.map Dtree.to_string (Med_exec.run cat query))
    (List.map Dtree.to_string (Med_exec.run ~view_lookup cat query))

(* The plan without its bind joins, at every level: what the optimizer
   produced before views were bind-join targets. *)
let rec without_binds (c : Med_planner.compiled) =
  let strip (aid, (a : Med_planner.access)) =
    ( aid,
      match a with
      | Med_planner.A_view r ->
        Med_planner.A_view
          { r with
            bind = None;
            composed =
              Option.map
                (fun (cp : Med_planner.composed) ->
                  { cp with
                    Med_planner.defs =
                      List.map
                        (fun (d : Med_planner.composed_def) ->
                          { d with Med_planner.sub = without_binds d.Med_planner.sub })
                        cp.Med_planner.defs })
                r.composed }
      | a -> a )
  in
  { c with Med_planner.accesses = List.map strip c.Med_planner.accesses }

(* An offline driver, or an offline source under the bound view, fails a
   strict query and is skipped in partial mode exactly as the unbound
   plan does. *)
let test_bind_offline () =
  let outcome cat compiled partial =
    if partial then
      let r = Med_exec.run_compiled_partial cat compiled in
      Ok (List.map Dtree.to_string r.Med_exec.trees, r.Med_exec.skipped_sources)
    else
      match Med_exec.run_compiled cat compiled with
      | r -> Ok (List.map Dtree.to_string r.Med_exec.trees, [])
      | exception Alg_exec.Source_unavailable s -> Error s
      | exception Source.Unavailable s -> Error s
  in
  let show = function
    | Ok (trees, skipped) ->
      Printf.sprintf "ok %d trees, skipped [%s]" (List.length trees) (String.concat "; " skipped)
    | Error s -> "unavailable " ^ s
  in
  List.iter
    (fun (crm_up, sales_up, partial, expected) ->
      let cat, _, _ = bind_fixture ~crm_up ~sales_up () in
      let compiled = Med_planner.compile cat (cust_orders {|"cust05"|}) in
      let label =
        Printf.sprintf "crm %s, sales %s, %s" (if crm_up then "up" else "down")
          (if sales_up then "up" else "down") (if partial then "partial" else "strict")
      in
      let bound = outcome cat compiled partial in
      check string_t (label ^ ": as expected") expected (show bound);
      check string_t (label ^ ": as the unbound plan") (show (outcome cat (without_binds compiled) partial))
        (show bound))
    [ (false, true, false, "unavailable crm");
      (false, true, true, "ok 0 trees, skipped [crm]");
      (true, false, false, "unavailable sales");
      (true, false, true, "ok 0 trees, skipped [sales]");
      (false, false, false, "unavailable sales");
      (false, false, true, "ok 0 trees, skipped [sales; crm]") ]

(* Narrowed fetches record feedback under the bound access's own key, so
   recompiling with the feedback they left keeps the same plan. *)
let test_bind_stable () =
  let cat, _, _ = bind_fixture () in
  let query = cust_orders {|"cust05"|} in
  let plans =
    List.init 3 (fun _ ->
        Med_planner.explain (Med_exec.run_analyzed cat query).Med_exec.analyzed_compiled)
  in
  check bool_t "bound" true (contains (List.hd plans) "[narrowed by keys of a0.$c]");
  List.iteri
    (fun i p -> check string_t (Printf.sprintf "compile %d" (i + 2)) (List.hd plans) p)
    (List.tl plans)

(* ------------------------------------------------------------------ *)
(* Path bind joins                                                     *)
(* ------------------------------------------------------------------ *)

(* The benchmark's [store_month] shape at test size: [till] sells lines
   by sku, [shelf] is an XML catalog of six categories of four products
   each (S01..S24, dealt round-robin), both behind the network
   simulator.  Lines reference skus up to S30, so some never join.  The
   [prod] view reads the catalog through a path access; its name and
   price may carry element content.  [extra] adds categories. *)
let path_fixture ?(nlines = 40) ?(shelf_up = true) ?(extra = "") () =
  let till = Rel_db.create ~name:"till" () in
  let exec s = ignore (Rel_db.exec till s) in
  exec "CREATE TABLE sales (sid INT PRIMARY KEY, store INT, sku TEXT, weight FLOAT)";
  exec
    ("INSERT INTO sales VALUES "
    ^ String.concat ", "
        (List.init nlines (fun k ->
             let i = k + 1 in
             let sku = if nlines > 100 then i else 1 + (i * 7 mod 30) in
             Printf.sprintf "(%d, %d, 'S%02d', %s)" i (i mod 5) sku
               (if i mod 4 = 0 then "1234567.5" else "2.5"))));
  let catalog =
    "<catalog>"
    ^ String.concat ""
        (List.init 6 (fun c ->
             Printf.sprintf {|<category name="c%d">%s</category>|} (c + 1)
               (String.concat ""
                  (List.init 4 (fun k ->
                       let p = (k * 6) + c + 1 in
                       Printf.sprintf
                         {|<product sku="S%02d" w="%s"><name>item %d</name><price>%d</price></product>|}
                         p (if p mod 4 = 0 then "2.5" else "1.5") p (p * 3))))))
    ^ extra ^ "</catalog>"
  in
  let till_src, _ = Net_sim.wrap Net_sim.default_profile (Rel_source.make till) in
  let shelf_src, shelf_stats =
    Net_sim.wrap
      { Net_sim.default_profile with Net_sim.availability = (if shelf_up then 1.0 else 0.0) }
      (Xml_source.of_xml_strings ~name:"shelf" [ ("catalog", catalog) ])
  in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat till_src;
  Med_catalog.register_source cat shelf_src;
  define cat "sold"
    {|WHERE <row><sid>$i</sid><store>$st</store><sku>$s</sku><weight>$w</weight></row> IN "till.sales"
      CONSTRUCT <sd><sid>$i</sid><store>$st</store><sku>$s</sku><w>$w</w></sd>|};
  define cat "prod"
    {|WHERE <category name=$c><product sku=$s><name>$n</name><price>$p</price></product></category> IN "shelf.catalog"
      CONSTRUCT <pv><sku>$s</sku><cat>$c</cat><name>$n</name><price>$p</price></pv>|};
  (cat, shelf_stats)

(* Lines of the sales the [driver] pattern's children select, joined to
   the products on sku. *)
let lines driver =
  q
    (Printf.sprintf
       {|WHERE <sd>%s<sku>$s</sku></sd> IN "sold",
               <pv><sku>$s</sku><name>$n</name><price>$p</price></pv> IN "prod"
         CONSTRUCT <line><sid>$i</sid><sku>$s</sku><name>$n</name><price>$p</price></line>
         ORDER BY $i, $n|}
       driver)

let test_path_bind_keys () =
  List.iter
    (fun (driver, keys, label) ->
      let cat, shelf = path_fixture () in
      let query = lines driver in
      let plan = explain cat query in
      check bool_t (label ^ ": the view is bound") true
        (contains plan "-> VIEW prod (composed): <pv><sku>$s</sku><name>$n</name><price>$p</price></pv> [narrowed by keys of a0.$s]");
      check bool_t (label ^ ": the path shows its IN-list") true
        (contains plan "[product/@sku in keys of a0.$s]");
      Net_sim.reset shelf;
      let report = analyze cat query in
      check bool_t (label ^ ": keys cell") true (has_cell report ("keys=" ^ keys));
      let bound_nodes = shelf.Net_sim.tuples_shipped in
      (match keys with
      | "0" ->
        check int_t "zero keys make no call" 0 shelf.Net_sim.calls;
        check bool_t "and no index probe" false (contains report "idx=")
      | _ ->
        check bool_t (label ^ ": the guide answers") true
          (has_cell report "idx=probe:0/guide:1/miss:0");
        Net_sim.reset shelf;
        ignore (Med_exec.run_compiled cat (without_binds (Med_planner.compile cat query)));
        (* Every category holds a product among 30 keys. *)
        let unbound_nodes = shelf.Net_sim.tuples_shipped in
        check bool_t (label ^ ": ships fewer nodes than unbound") true
          (if keys = "30" then bound_nodes = unbound_nodes else bound_nodes < unbound_nodes));
      check bool_t (label ^ ": matches reference") true (agree_all cat query))
    [ ({|<sid>$i</sid><store>"9"</store>|}, "0", "no key");
      ({|<sid>"3"</sid>|}, "1", "one key");
      ({|<sid>$i</sid><store>"2"</store>|}, "6", "several keys");
      ("<sid>$i</sid>", "30", "many keys") ]

let test_path_bind_cap () =
  let cat, shelf = path_fixture ~nlines:1100 () in
  let query = lines "<sid>$i</sid>" in
  Net_sim.reset shelf;
  check bool_t "unbound past the cap" true (has_cell (analyze cat query) "unbound=keys>1024");
  check int_t "one call" 1 shelf.Net_sim.calls;
  check bool_t "matches reference" true (agree_all cat query)

(* A FLOAT key whose text does not parse back to the same float (the
   text of 1234567.5 is "1.23457e+06") could drop rows the join keeps:
   among the weights 2.5 and 1234567.5, the view ships unbound. *)
let test_path_bind_noncanonical_key () =
  let cat, _ = path_fixture () in
  define cat "wprod"
    {|WHERE <category><product sku=$s w=$w/></category> IN "shelf.catalog"
      CONSTRUCT <pw><sku>$s</sku><w>$w</w></pw>|};
  let query =
    q
      {|WHERE <sd><sid>$i</sid><w>$w</w></sd> IN "sold", <pw><sku>$s</sku><w>$w</w></pw> IN "wprod"
        CONSTRUCT <x><i>$i</i><s>$s</s></x> ORDER BY $i, $s|}
  in
  check bool_t "bound at compile time" true
    (contains (explain cat query) "[narrowed by keys of a0.$w]");
  check bool_t "unbound at fetch time" true
    (has_cell (analyze cat query) "unbound=non-canonical");
  check bool_t "2.5 joins" true (Med_exec.run cat query <> []);
  check bool_t "matches reference" true (agree_all cat query)

(* An offline catalog fails a strict query and is skipped in partial
   mode exactly as the unbound plan does, with or without keys. *)
let test_path_bind_offline () =
  let outcome cat compiled partial =
    if partial then
      let r = Med_exec.run_compiled_partial cat compiled in
      Ok (List.length r.Med_exec.trees, r.Med_exec.skipped_sources)
    else
      match Med_exec.run_compiled cat compiled with
      | r -> Ok (List.length r.Med_exec.trees, [])
      | exception Alg_exec.Source_unavailable s -> Error s
      | exception Source.Unavailable s -> Error s
  in
  let show = function
    | Ok (n, skipped) -> Printf.sprintf "ok %d trees, skipped [%s]" n (String.concat "; " skipped)
    | Error s -> "unavailable " ^ s
  in
  List.iter
    (fun (driver, partial, expected) ->
      let cat, _ = path_fixture ~shelf_up:false () in
      let compiled = Med_planner.compile cat (lines driver) in
      let label = Printf.sprintf "%s, %s" driver (if partial then "partial" else "strict") in
      let bound = outcome cat compiled partial in
      check string_t (label ^ ": as expected") expected (show bound);
      check string_t (label ^ ": as the unbound plan")
        (show (outcome cat (without_binds compiled) partial))
        (show bound))
    [ ({|<sid>"3"</sid>|}, false, "unavailable shelf");
      ({|<sid>"3"</sid>|}, true, "ok 0 trees, skipped [shelf]");
      ({|<sid>$i</sid><store>"9"</store>|}, false, "unavailable shelf");
      ({|<sid>$i</sid><store>"9"</store>|}, true, "ok 0 trees, skipped [shelf]") ]

let test_path_bind_materialized () =
  let cat, shelf = path_fixture () in
  let store = Mat_store.create cat in
  ignore (Mat_store.materialize store "prod");
  let query = lines {|<sid>"3"</sid>|} in
  let view_lookup = Mat_store.lookup store in
  Net_sim.reset shelf;
  check bool_t "the stored copy serves the view" true
    (has_cell (analyze ~view_lookup cat query) "unbound=materialized");
  check int_t "no call to the catalog" 0 shelf.Net_sim.calls;
  check (Alcotest.list string_t) "same answer as the sources give"
    (List.map Dtree.to_string (Med_exec.run cat query))
    (List.map Dtree.to_string (Med_exec.run ~view_lookup cat query))

(* A product whose name holds a [<pv>] element: matching the view's
   instantiated tree finds a deeper match there, for a sku the product
   itself does not carry.  Narrowing on the product's own sku would drop
   it, so the view ships unbound — as it must when indexing is off and
   the guide cannot prove the tag absent. *)
let test_path_bind_element_content () =
  let inner = {|<pv><sku>S03</sku><name>inner</name><price>1</price></pv>|} in
  let cat, _ =
    path_fixture
      ~extra:(Printf.sprintf {|<category name="odd"><product sku="S99"><name>%s</name><price>0</price></product></category>|} inner)
      ()
  in
  let query = lines {|<sid>$i</sid><store>"1"</store>|} in
  check bool_t "S03 is among the keys" true
    (List.exists (fun t -> contains (Dtree.to_string t) "S03") (Med_exec.run cat query));
  check bool_t "unbound for element content" true
    (has_cell (analyze cat query) "unbound=element-content");
  check bool_t "the deeper match survives" true
    (List.exists (fun t -> contains (Dtree.to_string t) "inner") (Med_exec.run cat query));
  check bool_t "matches reference" true (agree_all cat query);
  let cat, _ = path_fixture () in
  Idx_manager.set_mode Idx_manager.Off;
  let report = analyze cat query in
  let ok = agree_all cat query in
  Idx_manager.set_mode Idx_manager.Auto;
  check bool_t "indexing off: no proof, unbound" true (has_cell report "unbound=element-content");
  check bool_t "indexing off: matches reference" true ok

(* Definitions that bind the join variable some way no path predicate
   implies stay unbound, and answer like the reference. *)
let test_path_bind_ineligible () =
  let cat, _ = path_fixture () in
  List.iter
    (fun (name, def) ->
      define cat name
        (def ^ {| IN "shelf.catalog" CONSTRUCT <pv><sku>$s</sku><name>$n</name><price>$p</price></pv>|});
      let query =
        q
          (Printf.sprintf
             {|WHERE <sd><sid>$i</sid><store>"2"</store><sku>$s</sku></sd> IN "sold",
                     <pv><sku>$s</sku><name>$n</name><price>$p</price></pv> IN "%s"
               CONSTRUCT <line><sid>$i</sid><name>$n</name></line> ORDER BY $i, $n|}
             name)
      in
      check bool_t (name ^ ": unbound") false (contains (explain cat query) "narrowed by keys");
      check bool_t (name ^ ": matches reference") true (agree_all cat query))
    [ ("element_as", {|WHERE <product><name>$n</name><price>$p</price></product> ELEMENT_AS $s|});
      ("content_as", {|WHERE <product><name>$n</name><price>$p</price>$s</product>|});
      ("repeated_tag", {|WHERE <product><name>$n</name><price>$p</price><product sku=$s/></product>|}) ];
  (* The eligibility test itself, on path accesses compiled from
     patterns: the sites above are refused, and so is a positional path. *)
  let access pattern =
    match (Med_planner.compile cat (q (pattern ^ {| IN "shelf.catalog" CONSTRUCT <x/>|}))).Med_planner.accesses with
    | [ (_, (Med_planner.A_path _ as a)) ] -> a
    | _ -> Alcotest.fail "expected one path access"
  in
  List.iter
    (fun (pattern, v, expected) ->
      check bool_t (pattern ^ " narrows on $" ^ v) expected
        (Med_planner.narrows_on (access pattern) v))
    [ ({|WHERE <category><product sku=$s/></category>|}, "s", true);
      ({|WHERE <category><product><sku>$s</sku></product></category>|}, "s", true);
      ({|WHERE <product sku=$s/>|}, "s", true);
      ({|WHERE <category><product/> ELEMENT_AS $s</category>|}, "s", false);
      ({|WHERE <category><product><sku>$k</sku>$s</product></category>|}, "s", false);
      ({|WHERE <category><category sku=$s/></category>|}, "s", false);
      ({|WHERE <category><*><sku>$s</sku></*></category>|}, "s", false);
      ({|WHERE <category><product sku=$k/></category>|}, "s", false) ];
  match access {|WHERE <category><product sku=$s/></category>|} with
  | Med_planner.A_path r ->
    let positional =
      List.map
        (fun (st : Xml_path.step) -> { st with Xml_path.preds = st.Xml_path.preds @ [ Xml_path.Position 1 ] })
        r.path.Xml_path.steps
    in
    check bool_t "a position() path does not narrow" false
      (Med_planner.narrows_on
         (Med_planner.A_path { r with path = { r.path with Xml_path.steps = positional } })
         "s")
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Projected fetches                                                   *)
(* ------------------------------------------------------------------ *)

(* The store_month-shaped example of test/cram/exec.t: a sales driver
   joined to a product view over an XML shelf behind the network
   simulator. *)
let shelf_fixture () =
  let till = Rel_db.create ~name:"till" () in
  List.iter
    (fun s -> ignore (Rel_db.exec till s))
    [ "CREATE TABLE sales (sid INT PRIMARY KEY, store INT, sku TEXT, revenue INT)";
      "INSERT INTO sales VALUES (1, 7, 'server', 9000), (2, 7, 'widget', 250), (3, 8, 'widget', 120), \
       (4, 7, 'server', 4500), (5, 8, 'bolt', 3)" ];
  let shelf_src, shelf =
    Net_sim.wrap Net_sim.default_profile
      (Xml_source.of_xml_strings ~name:"shelf"
         [ ( "shelf",
             {|<catalog>
                 <category name="tools"><product sku="widget"><name>Widget</name><price>25</price></product><product sku="gadget"><name>Gadget</name><price>70</price></product></category>
                 <category name="infra"><product sku="server"><name>Server</name><price>4500</price></product><product sku="router"><name>Router</name><price>900</price></product></category>
                 <category name="scrap"><product sku="bolt"><name>Bolt</name><price>1</price></product></category>
               </catalog>|} ) ])
  in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make till);
  Med_catalog.register_source cat shelf_src;
  define cat "sold"
    {|WHERE <row><sid>$i</sid><store>$st</store><sku>$s</sku><revenue>$v</revenue></row> IN "till.sales"
      CONSTRUCT <sd><sid>$i</sid><store>$st</store><sku>$s</sku><revenue>$v</revenue></sd>|};
  define cat "prod"
    {|WHERE <category name=$k><product sku=$s><name>$n</name><price>$p</price></product></category> IN "shelf.shelf"
      CONSTRUCT <prod><sku>$s</sku><cat>$k</cat><name>$n</name><price>$p</price></prod>|};
  (cat, shelf)

(* A bound fetch ships, of each matching category, only the products
   whose sku is a key, and of those only what the pattern reads: the
   category, then per product itself, its name and price with their
   text — not the other products of the category. *)
let test_projection_bound_fetch () =
  let cat, shelf = shelf_fixture () in
  let query =
    q
      {|WHERE <sd><sid>$i</sid><store>"7"</store><sku>$s</sku><revenue>$v</revenue></sd> IN "sold",
              <prod><sku>$s</sku><name>$n</name><price>$p</price></prod> IN "prod", $v >= 1000
        CONSTRUCT <line><sid>$i</sid><name>$n</name><price>$p</price><revenue>$v</revenue></line>
        ORDER BY $v DESC, $i|}
  in
  check bool_t "the view is bound" true (contains (explain cat query) "[narrowed by keys of a0.$s]");
  Net_sim.reset shelf;
  let report = analyze cat query in
  check bool_t "one key" true (has_cell report "keys=1");
  check int_t "one call" 1 shelf.Net_sim.calls;
  (* One matching product (server). *)
  check bool_t
    (Printf.sprintf "at most 10 nodes per matching product (shipped %d)" shelf.Net_sim.tuples_shipped)
    true
    (shelf.Net_sim.tuples_shipped <= 10);
  check bool_t "matches reference" true (agree_all cat query)

(* Two clauses whose patterns compile to one path but read different
   children: their fetches ship different projections, so the fragment
   cache must key them apart. *)
let test_projection_cache_key () =
  let cat, _ = shelf_fixture () in
  Med_catalog.configure_frag_cache cat ~capacity:16 ();
  let price = {|<category name=$c><product sku=$s><price>$p</price></product></category>|} in
  let name = {|<category name=$c><product sku=$s><name>$n</name></product></category>|} in
  let path pattern =
    match (Med_planner.compile cat (q ("WHERE " ^ pattern ^ {| IN "shelf.shelf" CONSTRUCT <x/>|}))).Med_planner.accesses with
    | [ (_, Med_planner.A_path r) ] -> Xml_path.to_string r.path
    | _ -> Alcotest.fail "expected one path access"
  in
  check string_t "one path" (path price) (path name);
  List.iter
    (fun text -> check bool_t text true (agree_all cat (q text)))
    [ Printf.sprintf {|WHERE %s IN "shelf.shelf" CONSTRUCT <r><s>$s</s><p>$p</p></r>|} price;
      Printf.sprintf {|WHERE %s IN "shelf.shelf" CONSTRUCT <r><s>$s</s><n>$n</n></r>|} name;
      Printf.sprintf
        {|WHERE %s IN "shelf.shelf", %s IN "shelf.shelf" CONSTRUCT <r><s>$s</s><n>$n</n><p>$p</p></r>|}
        price name ];
  check bool_t "the cache served repeats" true
    ((Frag_cache.stats (Med_catalog.frag_cache cat)).Frag_cache.frag_hits > 0)

(* Each reading the projection cannot bound keeps the subtree whole. *)
let test_projection_refusals () =
  let pattern text =
    match (q ("WHERE " ^ text ^ {| IN "x" CONSTRUCT <x/>|})).Xq_ast.clauses with
    | [ c ] -> c.Xq_ast.clause_pattern
    | _ -> Alcotest.fail "one clause"
  in
  let shape ?bound text =
    let p = pattern text in
    match Med_pathgen.compile_pattern p with
    | Some path -> Source.shape_to_string (Med_pathgen.shape ?bound path p)
    | None -> Alcotest.fail "expected a path"
  in
  let site = ({ Med_pathgen.rel = [ "product" ]; attr = Some "sku" }, [ "a" ]) in
  List.iter
    (fun (label, text, expected) -> check string_t label expected (shape ~bound:site text))
    [ ("projected and filtered", {|<category><product sku=$s><name>$n</name></product><note/></category>|},
       "{note{},product[@sku in ('a')]{name}}");
      ("a * child", {|<category><*><sku>$s</sku></*><product sku=$s/></category>|}, "");
      ("ELEMENT_AS", {|<category><product sku=$s/></category> ELEMENT_AS $e|}, "");
      ("ELEMENT_AS below", {|<category><product sku=$s/> ELEMENT_AS $e</category>|},
       "{product[@sku in ('a')]}");
      ("element content", {|<category><product sku=$s/>$c</category>|}, "");
      ("text content", {|<category><product sku=$s/>"x"</category>|}, "");
      ("a repeated sibling tag, never filtered", {|<category><product sku=$s/><product><name>$n</name></product></category>|},
       "{product}");
      ("a nested element read whole", {|<category><product sku=$s><name>$n</name></product></category>|},
       "{product[@sku in ('a')]{name}}") ];
  (* A positional path ships whole. *)
  let p = pattern {|<category><product sku=$s/></category>|} in
  (match Med_pathgen.compile_pattern p with
  | Some path ->
    let positional =
      { path with
        Xml_path.steps =
          List.map
            (fun (st : Xml_path.step) -> { st with Xml_path.preds = st.Xml_path.preds @ [ Xml_path.Position 1 ] })
            path.Xml_path.steps }
    in
    check string_t "position()" "" (Source.shape_to_string (Med_pathgen.shape ~bound:site positional p))
  | None -> Alcotest.fail "expected a path");
  (* And a whole shape ships the element as it is. *)
  let tree =
    Dtree.node ~attrs:[ ("name", Value.String "c") ] "category"
      [ Dtree.atom (Value.String "mixed");
        Dtree.node ~attrs:[ ("sku", Value.String "b") ] "product" [ Dtree.leaf "name" (Value.String "n") ] ]
  in
  check bool_t "whole is the identity" true (Dtree.equal tree (Xml_source.projector Source.Whole tree))

(* DESIGN §8: a hand-built store with atypically-typed atoms answers a
   PATH access with the types guessed back from its XML rendering, not
   with the stored strings.  Pinned as it stands; the projection leaves
   it unchanged. *)
let test_projection_hand_built_store () =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat
    (Xml_source.make ~name:"hand"
       [ ( "doc",
           Dtree.node "doc"
             [ Dtree.node ~attrs:[ ("code", Value.String "014") ] "item"
                 [ Dtree.leaf "qty" (Value.String "007");
                   Dtree.leaf "price" (Value.String "1.50");
                   Dtree.leaf "note" (Value.String "unread") ] ] ) ]);
  let query =
    q {|WHERE <item code=$c><qty>$q</qty><price>$p</price></item> IN "hand.doc"
        CONSTRUCT <r><c>$c</c><q>$q</q><p>$p</p></r>|}
  in
  check bool_t "a PATH access" true (contains (explain cat query) "PATH @hand.doc");
  match Med_exec.run cat query with
  | [ r ] ->
    let value tag = Option.bind (Dtree.first_named r tag) Dtree.atom_value in
    check bool_t "014 reads 14" true (value "c" = Some (Value.Int 14));
    check bool_t "007 reads 7" true (value "q" = Some (Value.Int 7));
    check bool_t "1.50 reads 1.5" true (value "p" = Some (Value.Float 1.5))
  | trees -> Alcotest.failf "expected one answer, got %d" (List.length trees)

(* Property: compiled pipeline agrees with the reference evaluator on
   random relational data for a fixed query family. *)
let prop_compiled_equals_reference =
  QCheck2.Test.make ~name:"compiled = reference on random data" ~count:40
    QCheck2.Gen.(pair (int_range 0 30) (int_range 0 50))
    (fun (ncust, nord) ->
      let g = Prng.create ((ncust * 131) + nord) in
      let db = Rel_db.create ~name:"crm" () in
      ignore (Rel_db.exec db "CREATE TABLE customers (id INT, name TEXT, tier INT)");
      ignore (Rel_db.exec db "CREATE TABLE orders (cust_id INT, amount INT)");
      for i = 1 to ncust do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO customers VALUES (%d, 'c%d', %d)" i
                (Prng.int g 5) (Prng.int g 4)))
      done;
      for _ = 1 to nord do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO orders VALUES (%d, %d)"
                (Prng.int_in g 1 (max 1 ncust)) (Prng.int g 1000)))
      done;
      let cat = Med_catalog.create () in
      Med_catalog.register_source cat (Rel_source.make db);
      let query =
        q
          {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers",
                 <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
                 $t >= 1, $a < 800
            CONSTRUCT <hit><i>$i</i><a>$a</a></hit>|}
      in
      (* The same join through two levels of views, a literal and a
         range reaching the bottom level. *)
      Med_catalog.define_view_text cat "cust"
        {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers"
          CONSTRUCT <cust><id>$i</id><name>$n</name><tier>$t</tier></cust>|};
      Med_catalog.define_view_text cat "spend"
        {|WHERE <cust><id>$i</id><tier>$t</tier></cust> IN "cust",
                <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders"
          CONSTRUCT <spend><id>$i</id><tier>$t</tier><amount>$a</amount></spend>|};
      let through_views =
        q
          {|WHERE <spend><id>$i</id><tier>"1"</tier><amount>$a</amount></spend> IN "spend",
                 $i >= 3, $a < 800
            CONSTRUCT <hit><i>$i</i><a>$a</a></hit>|}
      in
      (* Two views joined on the customer key: the orders view is a
         bind join whose driver is however many customers hold a random
         tier. *)
      Med_catalog.define_view_text cat "ov"
        {|WHERE <row><cust_id>$c</cust_id><amount>$a</amount></row> IN "crm.orders"
          CONSTRUCT <ob><cid>$c</cid><amount>$a</amount></ob>|};
      let view_join =
        q
          (Printf.sprintf
             {|WHERE <cust><id>$i</id><tier>"%d"</tier></cust> IN "cust",
                     <ob><cid>$i</cid><amount>$a</amount></ob> IN "ov"
               CONSTRUCT <hit><i>$i</i><a>$a</a></hit>|}
             (Prng.int g 4))
      in
      List.for_all
        (fun query ->
          agree cat query
          && agree ~opts:Med_sqlgen.no_pushdown cat query
          && agree ~opts:Med_sqlgen.no_join_pushdown cat query)
        [ query; through_views; view_join ])

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_compiled_equals_reference ] in
  Alcotest.run "mediator"
    [
      ( "sources",
        [
          Alcotest.test_case "relational exports" `Quick test_rel_source_exports;
          Alcotest.test_case "relational sql" `Quick test_rel_source_sql;
          Alcotest.test_case "capability enforcement" `Quick test_rel_source_capability;
          Alcotest.test_case "xml path pushdown" `Quick test_xml_source_path;
          Alcotest.test_case "csv scan only" `Quick test_csv_source_scan;
          Alcotest.test_case "registry resolution" `Quick test_registry_resolution;
          Alcotest.test_case "net sim cost accounting" `Quick test_net_sim_costs;
          Alcotest.test_case "net sim unavailability" `Quick test_net_sim_unavailable;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "views and hierarchy" `Quick test_catalog_views;
          Alcotest.test_case "error cases" `Quick test_catalog_errors;
        ] );
      ( "compile",
        [
          Alcotest.test_case "sql pushdown" `Quick test_compile_pushes_sql;
          Alcotest.test_case "pushdown disabled" `Quick test_compile_no_pushdown_option;
          Alcotest.test_case "xml uses path preselection" `Quick test_compile_xml_uses_path;
          Alcotest.test_case "path pushdown ships fewer nodes" `Quick
            test_path_pushdown_ships_fewer_nodes;
          Alcotest.test_case "non-relational pattern falls back" `Quick
            test_compile_nested_pattern_falls_back;
          Alcotest.test_case "explain" `Quick test_explain_shows_fragments;
        ] );
      ( "execute",
        [
          Alcotest.test_case "select/project" `Quick test_run_select_project;
          Alcotest.test_case "two-table join" `Quick test_run_join_two_tables;
          Alcotest.test_case "relational x xml join" `Quick test_run_join_relational_with_xml;
          Alcotest.test_case "csv" `Quick test_run_csv_source;
          Alcotest.test_case "order/limit" `Quick test_run_order_limit;
          Alcotest.test_case "element_as" `Quick test_run_element_as;
          Alcotest.test_case "through a view" `Quick test_run_through_view;
          Alcotest.test_case "view over view" `Quick test_run_view_over_view;
          Alcotest.test_case "union view" `Quick test_union_view;
          Alcotest.test_case "union view materializes" `Quick test_union_view_materializes;
          Alcotest.test_case "correlated subquery" `Quick test_run_correlated_subquery;
          Alcotest.test_case "capability fallback" `Quick test_capability_fallback_agrees;
          Alcotest.test_case "partial results" `Quick test_partial_results_mode;
          Alcotest.test_case "pushdown ships fewer tuples" `Quick
            test_pushdown_ships_fewer_tuples;
        ] );
      ( "compose",
        [
          Alcotest.test_case "two levels, literals and a range" `Quick test_compose_two_levels;
          Alcotest.test_case "union view" `Quick test_compose_union_view;
          Alcotest.test_case "definition with ORDER BY" `Quick test_compose_definition_order_by;
          Alcotest.test_case "fallbacks keep the tree path" `Quick test_compose_fallbacks;
          Alcotest.test_case "non-canonical literal" `Quick test_compose_noncanonical_literal;
          Alcotest.test_case "element content" `Quick test_compose_element_content;
          Alcotest.test_case "partial mode, offline source" `Quick test_compose_partial_offline;
          Alcotest.test_case "materialized view" `Quick test_compose_materialized;
        ] );
      ( "view-bind",
        [
          Alcotest.test_case "driver with 0, 1 or many keys" `Quick test_bind_driver_keys;
          Alcotest.test_case "more keys than the cap" `Quick test_bind_cap;
          Alcotest.test_case "NULL keys" `Quick test_bind_null_keys;
          Alcotest.test_case "union: one definition narrows" `Quick test_bind_union_one_narrows;
          Alcotest.test_case "literal and element bindings" `Quick test_bind_const_and_element;
          Alcotest.test_case "non-canonical key" `Quick test_bind_noncanonical_key;
          Alcotest.test_case "two levels" `Quick test_bind_two_levels;
          Alcotest.test_case "materialized bound side" `Quick test_bind_materialized;
          Alcotest.test_case "offline sources" `Quick test_bind_offline;
          Alcotest.test_case "stable across compiles" `Quick test_bind_stable;
        ] );
      ( "path-bind",
        [
          Alcotest.test_case "driver with 0, 1 or many keys" `Quick test_path_bind_keys;
          Alcotest.test_case "more keys than the cap" `Quick test_path_bind_cap;
          Alcotest.test_case "non-canonical key" `Quick test_path_bind_noncanonical_key;
          Alcotest.test_case "offline catalog" `Quick test_path_bind_offline;
          Alcotest.test_case "materialized bound side" `Quick test_path_bind_materialized;
          Alcotest.test_case "element content" `Quick test_path_bind_element_content;
          Alcotest.test_case "ineligible bindings" `Quick test_path_bind_ineligible;
        ] );
      ( "projection",
        [
          Alcotest.test_case "bound fetch ships matching products" `Quick test_projection_bound_fetch;
          Alcotest.test_case "one path, two projections" `Quick test_projection_cache_key;
          Alcotest.test_case "refusals keep subtrees whole" `Quick test_projection_refusals;
          Alcotest.test_case "hand-built store (DESIGN 8)" `Quick test_projection_hand_built_store;
        ] );
      ( "join-pushdown",
        [
          Alcotest.test_case "single fragment" `Quick test_join_pushdown_single_fragment;
          Alcotest.test_case "option disables" `Quick test_join_pushdown_disabled_option;
          Alcotest.test_case "cross product refused" `Quick
            test_join_pushdown_cross_product_refused;
          Alcotest.test_case "capability respected" `Quick
            test_join_pushdown_not_for_limited_source;
          Alcotest.test_case "results agree" `Quick test_join_pushdown_results_agree;
          Alcotest.test_case "order/limit pushdown" `Quick test_order_limit_pushdown;
        ]
        @ props );
    ]
