(* End-to-end walkthrough: one federation exercising every subsystem the
   paper describes, with assertions on the cross-subsystem interactions
   (views over cleaned sources, materialized union views, lenses over
   hierarchies, cache vs refresh, partial results mid-scenario). *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

(* The federation: two regional CRMs (one flaky), a product catalog, a
   legacy CSV dump. *)
let build () =
  let west = Rel_db.create ~name:"west" () in
  List.iter
    (fun s -> ignore (Rel_db.exec west s))
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier INT)";
      "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, sku TEXT, amount FLOAT)";
      "INSERT INTO customers VALUES (1, 'Acme Corporation', 1), (2, 'Initech', 2)";
      "INSERT INTO orders VALUES (10, 1, 'W1', 100.0), (11, 1, 'W2', 50.0), (12, 2, 'W1', 75.0)";
    ];
  let east = Rel_db.create ~name:"east" () in
  List.iter
    (fun s -> ignore (Rel_db.exec east s))
    [
      "CREATE TABLE accounts (acct INT PRIMARY KEY, company TEXT, level INT)";
      "INSERT INTO accounts VALUES (501, 'ACME Corp.', 1), (502, 'Globex', 3)";
    ];
  let catalog =
    Xml_source.of_xml_strings ~name:"products"
      [
        ( "catalog",
          {|<catalog><product sku="W1"><price>25</price></product>
            <product sku="W2"><price>10</price></product></catalog>|} );
      ]
  in
  let legacy =
    Csv_source.make ~name:"legacy"
      [ ("notes", "company,note\nAcme Corporation,prefers email\nGlobex,call first\n") ]
  in
  let sys = Nimble.create ~cache_capacity:16 () in
  ok (Nimble.register_source sys (Rel_source.make west));
  ok (Nimble.register_source sys (Rel_source.make east));
  ok (Nimble.register_source sys catalog);
  ok (Nimble.register_source sys legacy);
  (sys, west)

let test_full_walkthrough () =
  let sys, west_db = build () in

  (* 1. A union mediated schema over the two CRMs. *)
  ok
    (Nimble.define_view sys ~description:"both CRMs, one shape" "all_customers"
       {|WHERE <row><id>$k</id><name>$n</name><tier>$t</tier></row> IN "west.customers"
         CONSTRUCT <customer src="west"><key>$k</key><name>$n</name><tier>$t</tier></customer>
         UNION
         WHERE <row><acct>$k</acct><company>$n</company><level>$t</level></row> IN "east.accounts"
         CONSTRUCT <customer src="east"><key>$k</key><name>$n</name><tier>$t</tier></customer>|});

  (* 2. A hierarchical view over the union: premium customers only. *)
  ok
    (Nimble.define_view sys "premium"
       {|WHERE <customer><name>$n</name><tier>$t</tier></customer> IN "all_customers", $t = 1
         CONSTRUCT <vip>$n</vip>|});
  check int_t "view depth" 2 (Med_catalog.view_depth (Nimble.catalog sys) "premium");
  let vips = ok (Nimble.query sys {|WHERE <vip>$n</vip> IN "premium" CONSTRUCT <v>$n</v>|}) in
  check int_t "two tier-1 across CRMs" 2 (List.length vips);

  (* 3. A cleaned source canonicalizing the union (Acme appears twice). *)
  let flow =
    {
      Cl_flow.flow_name = "canon";
      steps =
        [
          Cl_flow.Derive { field = "norm"; from_field = "name"; normalizer = "name" };
          Cl_flow.Dedupe
            {
              match_field = "norm"; blocking_fields = [ "norm" ]; measure = "jaro_winkler";
              same_above = 0.9; different_below = 0.6; window = 4;
            };
        ];
    }
  in
  ok
    (Nimble.register_cleaned_source sys ~name:"entities" ~key_field:"name" ~flow
       ~from_query:
         {|WHERE <customer><name>$n</name></customer> IN "all_customers"
           CONSTRUCT <r><name>$n</name></r>|});
  let entities =
    ok (Nimble.query sys {|WHERE <row><name>$n</name></row> IN "entities" CONSTRUCT <e>$n</e>|})
  in
  check int_t "4 raw customers -> 3 entities" 3 (List.length entities);

  (* 4. A view over the cleaned source (views compose over cleaners). *)
  ok
    (Nimble.define_view sys "entity_names"
       {|WHERE <row><name>$n</name></row> IN "entities" CONSTRUCT <name>$n</name>|});
  check int_t "view over cleaned source" 3
    (List.length (ok (Nimble.query sys {|WHERE <name>$n</name> IN "entity_names" CONSTRUCT <x>$n</x>|})));

  (* 5. Cross-source join: orders x catalog prices, through the engine. *)
  let margin_query =
    {|WHERE <row><cust_id>$c</cust_id><sku>$s</sku><amount>$a</amount></row> IN "west.orders",
           <product sku=$s><price>$p</price></product> IN "products.catalog"
      CONSTRUCT <line><sku>$s</sku><amt>$a</amt><unit>$p</unit></line>|}
  in
  check int_t "three priced orders" 3 (List.length (ok (Nimble.query sys margin_query)));

  (* 6. Materialize the union view with periodic refresh; updates appear
     only after the policy fires. *)
  ok (Nimble.materialize_view sys ~policy:(Mat_store.Every_n_queries 4) "all_customers");
  let count_customers () =
    List.length
      (ok (Nimble.query sys {|WHERE <customer><key>$k</key></customer> IN "all_customers" CONSTRUCT <k>$k</k>|}))
  in
  check int_t "copy serves four" 4 (count_customers ());
  ignore (Rel_db.exec west_db "INSERT INTO customers VALUES (3, 'Hooli', 1)");
  ignore (Nimble.invalidate_source sys "west");
  check bool_t "stale until policy fires" true (count_customers () = 4);
  (* burn queries to trigger the refresh *)
  ignore (Nimble.invalidate_source sys "west");
  for _ = 1 to 4 do
    ignore (count_customers ());
    ignore (Nimble.invalidate_source sys "west")
  done;
  check int_t "fresh after periodic refresh" 5 (count_customers ());

  (* 7. A lens for the support team over the legacy notes. *)
  ok (Nimble.add_user sys ~role:Fe_auth.Analyst "sue" "pw");
  let lens =
    Fe_lens.make ~name:"notes" ~required_role:Fe_auth.Analyst ~device:Fe_format.Text
      ~params:[ Fe_lens.param "who" Value.TString ]
      [
        ( "lookup",
          {|WHERE <row><company>%who%</company><note>$n</note></row> IN "legacy.notes"
            CONSTRUCT <note>$n</note>|} );
      ]
  in
  ok (Nimble.add_lens sys lens);
  let rendered =
    ok
      (Nimble.run_lens sys ~user:"sue" ~password:"pw" ~lens:"notes" ~query:"lookup"
         [ ("who", "Globex") ])
  in
  check bool_t "note found through lens" true (contains rendered "call first");

  (* 8. Save the whole layer and replay it on a fresh system. *)
  let script = Nimble.save_config sys in
  let sys2, _ = build () in
  (* Cleaned sources are code-level; re-register before replay. *)
  ok
    (Nimble.register_cleaned_source sys2 ~name:"entities" ~key_field:"name" ~flow
       ~from_query:
         {|WHERE <customer><name>$n</name></customer> IN "all_customers"
           CONSTRUCT <r><name>$n</name></r>|});
  ok (Nimble.load_config sys2 script);
  check int_t "replayed hierarchy answers" 2
    (List.length (ok (Nimble.query sys2 {|WHERE <vip>$n</vip> IN "premium" CONSTRUCT <v>$n</v>|})));

  (* 9. The management report reflects all of it. *)
  let rep = Nimble.report sys in
  List.iter
    (fun needle -> check bool_t ("report mentions " ^ needle) true (contains rep needle))
    [ "west"; "east"; "products"; "legacy"; "entities"; "all_customers"; "premium"; "result cache" ]

let test_compiled_reference_agreement_whole_scenario () =
  (* The oracle property over the walkthrough federation's views. *)
  let sys, _ = build () in
  ok
    (Nimble.define_view sys "all_customers"
       {|WHERE <row><id>$k</id><name>$n</name><tier>$t</tier></row> IN "west.customers"
         CONSTRUCT <customer><key>$k</key><name>$n</name><tier>$t</tier></customer>
         UNION
         WHERE <row><acct>$k</acct><company>$n</company><level>$t</level></row> IN "east.accounts"
         CONSTRUCT <customer><key>$k</key><name>$n</name><tier>$t</tier></customer>|});
  let cat = Nimble.catalog sys in
  List.iter
    (fun text ->
      let q = Xq_parser.parse_exn text in
      let compiled = Med_exec.run cat q in
      let reference = Xq_eval.eval (Med_exec.direct_resolver cat) q in
      let norm ts = List.sort compare (List.map Dtree.to_string ts) in
      check bool_t ("agrees: " ^ text) true (norm compiled = norm reference))
    [
      {|WHERE <customer><tier>$t</tier><name>$n</name></customer> IN "all_customers", $t < 3 CONSTRUCT <c>$n</c>|};
      {|WHERE <row><sku>$s</sku></row> IN "west.orders", <product sku=$s><price>$p</price></product> IN "products.catalog" CONSTRUCT <x><s>$s</s><p>$p</p></x>|};
      {|WHERE <row><company>$c</company></row> IN "legacy.notes" CONSTRUCT <c>$c</c>|};
      {|WHERE <customer><key>$k</key></customer> IN "all_customers" CONSTRUCT <k>$k</k> ORDER BY $k DESC LIMIT 3|};
    ]

(* The fragment cache keys a pushed path by its rendering.  A literal
   holding quotes and brackets must not print like two predicates: here
   the first query's empty answer would otherwise serve the second. *)
let test_path_literal_cache_identity () =
  let q1 =
    {|WHERE <category name="x'][@id='y"><p>$p</p></category> IN "shelf.doc" CONSTRUCT <p>$p</p>|}
  in
  let q2 = {|WHERE <category name="x" id="y"><p>$p</p></category> IN "shelf.doc" CONSTRUCT <p>$p</p>|} in
  let answers queries =
    let sys = Nimble.create ~frag_capacity:64 () in
    ok
      (Nimble.register_source sys
         (Xml_source.of_xml_strings ~name:"shelf"
            [ ("doc", {|<doc><category name="x" id="y"><p>B</p></category></doc>|}) ]));
    List.map (fun q -> List.map Dtree.to_string (ok (Nimble.query sys q))) queries
  in
  let fresh = answers [ q2 ] in
  check bool_t "a fresh system answers q2" true (List.hd fresh <> []);
  check bool_t "q2 after q1 answers as fresh" true (List.nth (answers [ q1; q2 ]) 1 = List.hd fresh)

let () =
  Alcotest.run "integration"
    [
      ( "walkthrough",
        [
          Alcotest.test_case "full scenario" `Quick test_full_walkthrough;
          Alcotest.test_case "oracle agreement across the federation" `Quick
            test_compiled_reference_agreement_whole_scenario;
          Alcotest.test_case "path literals keep fragment identities apart" `Quick
            test_path_literal_cache_identity;
        ] );
    ]
