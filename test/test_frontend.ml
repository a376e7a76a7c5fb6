(* Tests for the front end (formatting, auth, lenses, admin reports) and
   the Nimble facade that ties the whole system together. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let sample_trees =
  [
    Dtree.node "customer"
      ~attrs:[ ("id", Value.Int 1) ]
      [ Dtree.leaf "name" (Value.String "Acme & Co"); Dtree.leaf "tier" (Value.Int 1) ];
    Dtree.node "customer"
      ~attrs:[ ("id", Value.Int 2) ]
      [ Dtree.leaf "name" (Value.String "Globex") ];
  ]

(* ------------------------------------------------------------------ *)
(* Formatting                                                          *)
(* ------------------------------------------------------------------ *)

let test_format_web_escapes () =
  let html = Fe_format.render Fe_format.Web sample_trees in
  check bool_t "escaped ampersand" true (contains html "Acme &amp; Co");
  check bool_t "dl structure" true (contains html "<dl class=\"customer\">")

let test_format_text () =
  let text = Fe_format.render Fe_format.Text sample_trees in
  check bool_t "has name line" true (contains text "name: Acme & Co");
  check bool_t "has attr" true (contains text "@id=1")

let test_format_wireless_truncates () =
  let long =
    [ Dtree.node "x" [ Dtree.leaf "f" (Value.String (String.make 100 'z')) ] ]
  in
  let card = Fe_format.render Fe_format.Wireless long in
  check bool_t "truncated" true (String.length card <= 110);
  check string_t "truncate helper" "ab..." (Fe_format.truncate 5 "abcdefgh")

let test_format_xml_roundtrip () =
  let xml = Fe_format.render Fe_format.Raw_xml sample_trees in
  check bool_t "parses back" true
    (match Xml_parser.parse_element ("<r>" ^ xml ^ "</r>") with
    | Ok _ -> true
    | Error _ -> false)

let test_device_names () =
  check bool_t "web" true (Fe_format.device_of_string "web" = Some Fe_format.Web);
  check bool_t "unknown" true (Fe_format.device_of_string "fax" = None);
  check string_t "roundtrip" "wireless" (Fe_format.device_to_string Fe_format.Wireless)

(* ------------------------------------------------------------------ *)
(* Auth                                                                *)
(* ------------------------------------------------------------------ *)

let test_auth_lifecycle () =
  let a = Fe_auth.create () in
  Fe_auth.add_user a ~role:Fe_auth.Admin "root" "s3cret";
  Fe_auth.add_user a "bob" "hunter2";
  check bool_t "good login" true (Fe_auth.authenticate a "root" "s3cret" = Some Fe_auth.Admin);
  check bool_t "bad password" true (Fe_auth.authenticate a "root" "wrong" = None);
  check bool_t "unknown user" true (Fe_auth.authenticate a "eve" "x" = None);
  check bool_t "default role" true (Fe_auth.role_of a "bob" = Some Fe_auth.Viewer);
  Fe_auth.set_role a "bob" Fe_auth.Analyst;
  check bool_t "promoted" true (Fe_auth.role_of a "bob" = Some Fe_auth.Analyst);
  check int_t "user list" 2 (List.length (Fe_auth.users a))

let test_auth_role_lattice () =
  check bool_t "admin covers analyst" true (Fe_auth.role_allows Fe_auth.Analyst Fe_auth.Admin);
  check bool_t "viewer below analyst" false (Fe_auth.role_allows Fe_auth.Analyst Fe_auth.Viewer);
  check bool_t "equal ok" true (Fe_auth.role_allows Fe_auth.Viewer Fe_auth.Viewer)

let test_auth_duplicate () =
  let a = Fe_auth.create () in
  Fe_auth.add_user a "x" "p";
  try
    Fe_auth.add_user a "x" "p2";
    Alcotest.fail "expected Auth_error"
  with Fe_auth.Auth_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lenses                                                              *)
(* ------------------------------------------------------------------ *)

let lens_fixture () =
  Fe_lens.make ~name:"customer-lookup"
    ~params:[ Fe_lens.param "region" Value.TString; Fe_lens.param ~default:(Value.Int 0) "min_tier" Value.TInt ]
    ~device:Fe_format.Text
    [
      ( "by-region",
        {|WHERE <row><name>$n</name><region>%region%</region><tier>$t</tier></row> IN "crm.customers",
               $t >= %min_tier%
          CONSTRUCT <hit>$n</hit>|} );
    ]

let test_lens_placeholders () =
  check (Alcotest.list string_t) "found" [ "region"; "min_tier" ]
    (Fe_lens.placeholders "a %region% b %min_tier% c %region%")

let test_lens_instantiate () =
  let lens = lens_fixture () in
  let q = Fe_lens.instantiate lens "by-region" [ ("region", "west") ] in
  let text = Xq_pretty.query_to_string q in
  check bool_t "region substituted" true (contains text "west");
  check bool_t "default applied" true (contains text "0")

let test_lens_errors () =
  let lens = lens_fixture () in
  let expect_err f =
    try
      ignore (f ());
      Alcotest.fail "expected Lens_error"
    with Fe_lens.Lens_error _ -> ()
  in
  expect_err (fun () -> Fe_lens.instantiate lens "nope" []);
  expect_err (fun () -> Fe_lens.instantiate lens "by-region" []);
  expect_err (fun () -> Fe_lens.instantiate lens "by-region" [ ("region", "w"); ("min_tier", "xx") ]);
  expect_err (fun () ->
      Fe_lens.make ~name:"bad" [ ("q", "WHERE <a>%undeclared%</a> IN \"s\" CONSTRUCT <x/>") ])

let test_lens_param_shape () =
  let lens = lens_fixture () in
  let shape args =
    Fe_lens.param_shape lens "by-region" (Fe_lens.resolve_args lens "by-region" args)
  in
  (* Rebindable values contribute their class only: fresh values share
     the cached parse's shape. *)
  check string_t "same shape across values"
    (shape [ ("region", "west") ])
    (shape [ ("region", "east"); ("min_tier", "7") ]);
  check bool_t "classes, not literals" true
    (contains (shape [ ("region", "west") ]) "region:str");
  (* Non-rebindable values (negatives) inline their literal, splitting
     the shape per value. *)
  let neg = shape [ ("region", "w"); ("min_tier", "-3") ] in
  check bool_t "literal inlined" true (contains neg "min_tier=-3");
  check bool_t "distinct from rebindable shape" true
    (neg <> shape [ ("region", "w"); ("min_tier", "3") ])

let test_lens_rebindable_classes () =
  check bool_t "plain string" true (Fe_lens.rebindable (Value.String "west"));
  check bool_t "backslash string" false (Fe_lens.rebindable (Value.String {|a\b|}));
  check bool_t "non-negative int" true (Fe_lens.rebindable (Value.Int 42));
  check bool_t "negative int" false (Fe_lens.rebindable (Value.Int (-1)));
  check bool_t "bool" false (Fe_lens.rebindable (Value.Bool true));
  check bool_t "null" false (Fe_lens.rebindable Value.Null);
  (* Sentinels exist exactly for rebindable classes. *)
  (match Fe_lens.sentinel_for 0 (Value.String "x") with
  | Value.String _ -> ()
  | _ -> Alcotest.fail "string sentinel keeps its class");
  try
    ignore (Fe_lens.sentinel_for 0 (Value.Bool true));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Full system through the Nimble facade                               *)
(* ------------------------------------------------------------------ *)

let make_system () =
  let db = Rel_db.create ~name:"crm" () in
  ignore (Rel_db.exec db "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT)");
  ignore
    (Rel_db.exec db
       "INSERT INTO customers VALUES (1, 'Acme', 'west', 1), (2, 'Globex', 'east', 2), (3, 'Initech', 'west', 3)");
  let sys = Nimble.create ~cache_capacity:8 () in
  (match Nimble.register_source sys (Rel_source.make db) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "register: %s" m);
  (sys, db)

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let test_nimble_query () =
  let sys, _ = make_system () in
  let trees =
    ok
      (Nimble.query sys
         {|WHERE <row><name>$n</name><region>"west"</region></row> IN "crm.customers"
           CONSTRUCT <c>$n</c>|})
  in
  check int_t "two west" 2 (List.length trees)

let test_nimble_error_reporting () =
  let sys, _ = make_system () in
  (match Nimble.query sys "WHERE garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected syntax error");
  match Nimble.query sys {|WHERE <x>$v</x> IN "missing" CONSTRUCT <y>$v</y>|} with
  | Error m -> check bool_t "names the source" true (contains m "missing")
  | Ok _ -> Alcotest.fail "expected unknown-source error"

let test_nimble_cache_serves_repeats () =
  let sys, db = make_system () in
  let text =
    {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c>$n</c>|}
  in
  ignore (ok (Nimble.query sys text));
  (* Mutate the source: the cached (stale) result is served until
     invalidation — the caching trade-off of section 3.3. *)
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (9, 'Hooli', 'west', 1)");
  check int_t "stale cached answer" 3 (List.length (ok (Nimble.query sys text)));
  check int_t "invalidate by source" 1 (Nimble.invalidate_source sys "crm");
  check int_t "fresh after invalidation" 4 (List.length (ok (Nimble.query sys text)))

(* Redefining a view must not leave whole-query answers computed from
   the old definition in the result cache: every catalog change reaches
   it, not only an explicit [invalidate_source]. *)
let test_nimble_redefined_view_flushes_results () =
  let sys, _ = make_system () in
  let define region =
    ok
      (Nimble.define_view sys "v"
         (Printf.sprintf
            {|WHERE <row><name>$n</name><region>"%s"</region></row> IN "crm.customers"
              CONSTRUCT <c><n>$n</n></c>|}
            region))
  in
  let q = {|WHERE <c><n>$n</n></c> IN "v" CONSTRUCT <r>$n</r>|} in
  define "west";
  check int_t "west customers" 2 (List.length (ok (Nimble.query sys q)));
  ok (Nimble.drop_view sys "v");
  define "east";
  check int_t "east customers after redefinition" 1 (List.length (ok (Nimble.query sys q)));
  check int_t "same text with a trailing space" 1 (List.length (ok (Nimble.query sys (q ^ " "))))

let test_nimble_views_and_materialization () =
  let sys, db = make_system () in
  ok
    (Nimble.define_view sys "west"
       {|WHERE <row><name>$n</name><region>"west"</region></row> IN "crm.customers"
         CONSTRUCT <customer><name>$n</name></customer>|});
  ok (Nimble.materialize_view sys "west");
  let q = {|WHERE <customer><name>$n</name></customer> IN "west" CONSTRUCT <w>$n</w>|} in
  check int_t "answered from copy" 2 (List.length (ok (Nimble.query sys q)));
  (* The copy hides source updates until refreshed. *)
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (9, 'Hooli', 'west', 1)");
  ignore (Nimble.invalidate_source sys "crm");
  check int_t "still from stale copy" 2 (List.length (ok (Nimble.query sys q)));
  ok (Nimble.refresh_view sys "west");
  ignore (Nimble.invalidate_source sys "crm");
  check int_t "fresh after view refresh" 3 (List.length (ok (Nimble.query sys q)))

let test_nimble_partial () =
  let sys, _ = make_system () in
  let down, _ =
    Net_sim.wrap { Net_sim.default_profile with Net_sim.availability = 0.0 }
      (Xml_source.of_xml_strings ~name:"ext" [ ("doc", "<d><v>1</v></d>") ])
  in
  ok (Nimble.register_source sys down);
  let text = {|WHERE <v>$x</v> IN "ext.doc" CONSTRUCT <o>$x</o>|} in
  (match Nimble.query sys text with
  | Error m -> check bool_t "strict fails naming source" true (contains m "ext")
  | Ok _ -> Alcotest.fail "expected failure");
  let trees, skipped = ok (Nimble.query_partial sys text) in
  check int_t "empty partial answer" 0 (List.length trees);
  check (Alcotest.list string_t) "skip annotation" [ "ext" ] skipped

let test_nimble_lens_end_to_end () =
  let sys, _ = make_system () in
  ok (Nimble.add_user sys ~role:Fe_auth.Analyst "ann" "pw");
  ok (Nimble.add_user sys "bob" "pw");
  let lens =
    Fe_lens.make ~name:"west-lookup" ~required_role:Fe_auth.Analyst
      ~params:[ Fe_lens.param "region" Value.TString ]
      ~device:Fe_format.Text
      [
        ( "go",
          {|WHERE <row><name>$n</name><region>%region%</region></row> IN "crm.customers"
            CONSTRUCT <hit>$n</hit>|} );
      ]
  in
  ok (Nimble.add_lens sys lens);
  check (Alcotest.list string_t) "lens listed" [ "west-lookup" ] (Nimble.lens_names sys);
  (match
     Nimble.run_lens sys ~user:"ann" ~password:"pw" ~lens:"west-lookup" ~query:"go"
       [ ("region", "west") ]
   with
  | Ok rendered ->
    check bool_t "rendered contains hit" true (contains rendered "Acme")
  | Error m -> Alcotest.failf "lens run failed: %s" m);
  (match
     Nimble.run_lens sys ~user:"bob" ~password:"pw" ~lens:"west-lookup" ~query:"go"
       [ ("region", "west") ]
   with
  | Error m -> check bool_t "role denied" true (contains m "role")
  | Ok _ -> Alcotest.fail "viewer must be denied");
  match
    Nimble.run_lens sys ~user:"ann" ~password:"wrong" ~lens:"west-lookup" ~query:"go" []
  with
  | Error m -> check bool_t "auth denied" true (contains m "authentication")
  | Ok _ -> Alcotest.fail "bad password must be denied"

let test_nimble_explain_and_report () =
  let sys, _ = make_system () in
  ok (Nimble.define_view sys "v" {|WHERE <row><id>$i</id></row> IN "crm.customers" CONSTRUCT <x>$i</x>|});
  ok (Nimble.materialize_view sys "v");
  let plan =
    ok (Nimble.explain sys {|WHERE <row><id>$i</id></row> IN "crm.customers" CONSTRUCT <x>$i</x>|})
  in
  check bool_t "plan mentions SQL" true (contains plan "SQL @crm");
  let rep = Nimble.report sys in
  check bool_t "report sources" true (contains rep "crm");
  check bool_t "report views" true (contains rep "mediated schemas");
  check bool_t "report materialized" true (contains rep "materialized views");
  check bool_t "report cache" true (contains rep "result cache")

let test_nimble_formatted_query () =
  let sys, _ = make_system () in
  let html =
    ok
      (Nimble.query_formatted sys ~device:Fe_format.Web
         {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c><name>$n</name></c>|})
  in
  check bool_t "html rendered" true (contains html "<dl class=\"c\">")

(* ------------------------------------------------------------------ *)
(* Cleaned sources: dynamic cleaning in the query path                  *)
(* ------------------------------------------------------------------ *)

let make_dirty_system () =
  let db = Rel_db.create ~name:"crm" () in
  ignore (Rel_db.exec db "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, city TEXT)");
  ignore
    (Rel_db.exec db
       "INSERT INTO customers VALUES \
        (1, 'Acme Corporation', 'Seattle'), (2, 'ACME Corp.', NULL), \
        (3, 'Globex', 'NYC'), (4, 'Initech', 'Austin')");
  let sys = Nimble.create ~cache_capacity:0 () in
  ok (Nimble.register_source sys (Rel_source.make db));
  (sys, db)

let dedupe_flow =
  {
    Cl_flow.flow_name = "dedupe";
    steps =
      [
        Cl_flow.Derive { field = "norm"; from_field = "name"; normalizer = "name" };
        Cl_flow.Dedupe
          {
            match_field = "norm";
            blocking_fields = [ "norm" ];
            measure = "jaro_winkler";
            same_above = 0.9;
            different_below = 0.6;
            window = 4;
          };
      ];
  }

let test_cleaned_source_dedupes_at_query_time () =
  let sys, db = make_dirty_system () in
  ok
    (Nimble.register_cleaned_source sys ~name:"clean_customers" ~key_field:"id"
       ~flow:dedupe_flow
       ~from_query:
         {|WHERE <row><id>$i</id><name>$n</name><city>$c</city></row> IN "crm.customers"
           CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city></r>|});
  let q = {|WHERE <row><name>$n</name></row> IN "clean_customers" CONSTRUCT <c>$n</c>|} in
  let trees = ok (Nimble.query sys q) in
  check int_t "duplicates merged away" 3 (List.length trees);
  (* Dynamic: a new duplicate in the source is cleaned on the next query
     without any reload step. *)
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (5, 'GLOBEX', 'New York')");
  let trees = ok (Nimble.query sys q) in
  check int_t "fresh duplicate also merged" 3 (List.length trees)

let test_cleaned_source_merge_unions_fields () =
  let sys, _ = make_dirty_system () in
  ok
    (Nimble.register_cleaned_source sys ~name:"clean_customers" ~key_field:"id"
       ~flow:dedupe_flow
       ~from_query:
         {|WHERE <row><id>$i</id><name>$n</name><city>$c</city></row> IN "crm.customers"
           CONSTRUCT <r><id>$i</id><name>$n</name><city>$c</city></r>|});
  let trees =
    ok
      (Nimble.query sys
         {|WHERE <row><name>$n</name><city>$c</city></row> IN "clean_customers",
               $n LIKE '%Acme%'
           CONSTRUCT <acme><city>$c</city></acme>|})
  in
  (* The merged Acme record keeps the non-null Seattle city. *)
  check int_t "one acme entity" 1 (List.length trees);
  check bool_t "field union kept the city" true
    (contains (Dtree.text (List.hd trees)) "Seattle")

let test_cleaned_source_lineage_and_resolution () =
  let sys, _ = make_dirty_system () in
  ok
    (Nimble.register_cleaned_source sys ~name:"clean_customers" ~key_field:"id"
       ~flow:dedupe_flow
       ~from_query:
         {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers"
           CONSTRUCT <r><id>$i</id><name>$n</name></r>|});
  ignore (ok (Nimble.query sys {|WHERE <row><name>$n</name></row> IN "clean_customers" CONSTRUCT <c>$n</c>|}));
  (match Nimble.cleaning_lineage sys "clean_customers" with
  | Some lin -> check bool_t "merge recorded" true (Cl_lineage.size lin >= 1)
  | None -> Alcotest.fail "expected lineage store");
  (* Force a human decision: split the Acme pair apart and re-query. *)
  ok (Nimble.resolve_match sys "clean_customers" Cl_concordance.Different "1" "2");
  let trees =
    ok (Nimble.query sys {|WHERE <row><name>$n</name></row> IN "clean_customers" CONSTRUCT <c>$n</c>|})
  in
  check int_t "human decision splits the merge" 4 (List.length trees)

let test_cleaned_source_cache_invalidation () =
  (* Regression: invalidate_source on a base source must drop cached
     results over cleaned sources that read it. *)
  let db = Rel_db.create ~name:"crm" () in
  ignore (Rel_db.exec db "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, city TEXT)");
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (1, 'Acme', 'SEA')");
  let sys = Nimble.create ~cache_capacity:8 () in
  ok (Nimble.register_source sys (Rel_source.make db));
  ok
    (Nimble.register_cleaned_source sys ~name:"clean" ~key_field:"id" ~flow:dedupe_flow
       ~from_query:
         {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers"
           CONSTRUCT <r><id>$i</id><name>$n</name></r>|});
  let q = {|WHERE <row><name>$n</name></row> IN "clean" CONSTRUCT <c>$n</c>|} in
  check int_t "one entity cached" 1 (List.length (ok (Nimble.query sys q)));
  ignore (Rel_db.exec db "INSERT INTO customers VALUES (2, 'Globex', 'NYC')");
  check bool_t "invalidation reaches through the cleaner" true
    (Nimble.invalidate_source sys "crm" >= 1);
  check int_t "fresh after invalidation" 2 (List.length (ok (Nimble.query sys q)))

let test_drop_view_refused_keeps_materialization () =
  (* Regression: a drop refused for dependents must not dematerialize. *)
  let sys, _ = make_system () in
  ok
    (Nimble.define_view sys "base"
       {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <b>$n</b>|});
  ok
    (Nimble.define_view sys "derived"
       {|WHERE <b>$n</b> IN "base" CONSTRUCT <d>$n</d>|});
  ok (Nimble.materialize_view sys "base");
  (match Nimble.drop_view sys "base" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "drop must be refused (dependent view)");
  check bool_t "copy survives refused drop" true
    (Mat_store.peek (Nimble.store sys) "base" <> None)

let test_cleaned_source_unknown () =
  let sys, _ = make_dirty_system () in
  check (Alcotest.list (Alcotest.pair string_t string_t)) "no exceptions for unknown" []
    (Nimble.cleaning_exceptions sys "nope");
  match Nimble.resolve_match sys "nope" Cl_concordance.Same "a" "b" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected error for unknown cleaned source"

(* ------------------------------------------------------------------ *)
(* Configuration scripts                                                *)
(* ------------------------------------------------------------------ *)

(* A non-default value for every knob in [Nimble.knobs]; the roundtrip
   fails when a knob joins the table without one. *)
let non_default_knobs =
  [
    ("fetch-mode", "gather");
    ("fetch-fanout", "2");
    ("frag-cache", "16");
    ("sem-cache", "65536");
    ("retry", "2");
    ("retry-deadline", "50");
    ("breaker", "on");
    ("retry-stale", "on");
    ("chunk-size", "256");
    ("parallel", "2");
    ("optimize", "dp:3");
    ("index", "eager");
  ]

let knob_values sys = List.map (fun (k : Nimble.t Nimble.knob) -> (k.name, k.get sys)) Nimble.knobs

let test_config_roundtrip () =
  (* The index mode is process-wide: put the default back however the
     test ends. *)
  Fun.protect ~finally:(fun () -> Idx_manager.set_mode Idx_manager.Auto) @@ fun () ->
  let sys, _ = make_system () in
  List.iter
    (fun (k : Nimble.t Nimble.knob) ->
      match List.assoc_opt k.name non_default_knobs with
      | Some v -> ok (k.set sys v)
      | None -> Alcotest.failf "knob %s has no non-default test value" k.name)
    Nimble.knobs;
  List.iter
    (fun (k : Nimble.t Nimble.knob) ->
      check bool_t (k.name ^ " is off its default") true (k.get sys <> Nimble.knob_default k))
    Nimble.knobs;
  ok
    (Nimble.define_view sys ~description:"west side" "west"
       {|WHERE <row><name>$n</name><region>"west"</region></row> IN "crm.customers"
         CONSTRUCT <customer><name>$n</name></customer>|});
  ok
    (Nimble.define_view sys "west_names"
       {|WHERE <customer><name>$n</name></customer> IN "west" CONSTRUCT <n>$n</n>|});
  ok (Nimble.materialize_view sys ~policy:(Mat_store.Every_n_queries 10) "west");
  let script = Nimble.save_config sys in
  check bool_t "script has view" true (contains script "view west :=");
  check bool_t "script has description" true (contains script "describe west west side");
  check bool_t "script has policy" true (contains script "materialize west every:10");
  check bool_t "script has knob" true (contains script "set index eager\n");
  let before_views needle =
    let rec first i = if String.sub script i (String.length needle) = needle then i else first (i + 1) in
    first 0
  in
  check bool_t "knobs precede views" true (before_views "set " < before_views "view ");
  (* Replay into a fresh system with the same sources, the process-wide
     index mode back at its default first. *)
  Idx_manager.set_mode Idx_manager.Auto;
  let sys2, _ = make_system () in
  ok (Nimble.load_config sys2 script);
  check (Alcotest.list (Alcotest.pair string_t string_t)) "every knob restored"
    (knob_values sys) (knob_values sys2);
  check bool_t "views recreated" true
    (Med_catalog.find_view (Nimble.catalog sys2) "west_names" <> None);
  (match Med_catalog.find_view (Nimble.catalog sys2) "west" with
  | Some v -> check string_t "description restored" "west side" v.Med_catalog.description
  | None -> Alcotest.fail "expected view");
  (match Mat_store.peek (Nimble.store sys2) "west" with
  | Some e ->
    check bool_t "policy restored" true (e.Mat_store.policy = Mat_store.Every_n_queries 10)
  | None -> Alcotest.fail "expected materialization");
  let q = {|WHERE <n>$x</n> IN "west_names" CONSTRUCT <o>$x</o>|} in
  check int_t "replayed system answers" (List.length (ok (Nimble.query sys q)))
    (List.length (ok (Nimble.query sys2 q)))

(* Setting a knob to the value it reads on a fresh system succeeds and
   changes no knob, in both tables. *)
let test_knob_defaults_are_noops () =
  let sys = Nimble.create () in
  let fresh = knob_values sys in
  List.iter
    (fun (k : Nimble.t Nimble.knob) ->
      check string_t (k.name ^ " reads its default") (Nimble.knob_default k) (k.get sys);
      ok (k.set sys (k.get sys));
      check (Alcotest.list (Alcotest.pair string_t string_t)) (k.name ^ " set is a no-op") fresh
        (knob_values sys))
    Nimble.knobs;
  (* Warmed: with both caches holding an entry, setting every knob to
     its current value keeps their entries and counters. *)
  let sys, _ = make_system () in
  ok (Nimble.set_knob sys "frag-cache" "8");
  ok (Nimble.set_knob sys "sem-cache" "100000");
  ignore
    (ok
       (Nimble.query sys
          {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t > 1
            CONSTRUCT <c>$n</c>|}));
  check bool_t "fragment cache warmed" true
    (Frag_cache.size (Med_catalog.frag_cache (Nimble.catalog sys)) > 0);
  check bool_t "semantic cache warmed" true (Sem_cache.entry_count (Nimble.sem_cache sys) > 0);
  let caches () = (Nimble.fetch_report sys, Nimble.sem_report sys) in
  let warm = caches () in
  List.iter
    (fun (k : Nimble.t Nimble.knob) ->
      ok (k.set sys (k.get sys));
      check (Alcotest.pair string_t string_t) (k.name ^ " keeps warm caches") warm (caches ()))
    Nimble.knobs;
  let cfg = ref Srv_dispatch.default_config in
  List.iter
    (fun (k : Srv_dispatch.config ref Nimble.knob) ->
      ok (k.set cfg (k.get cfg));
      check bool_t (k.name ^ " config set is a no-op") true (!cfg = Srv_dispatch.default_config))
    Srv_script.config_knobs

let test_knob_errors () =
  let sys = Nimble.create () in
  let err name v expected =
    match Nimble.set_knob sys name v with
    | Error m -> check string_t (name ^ " " ^ v) expected m
    | Ok () -> Alcotest.failf "%s %s should be rejected" name v
  in
  err "fetch-mode" "turbo" {|unknown fetch mode "turbo" (seq, gather)|};
  err "chunk-size" "0" "chunk size must be positive";
  err "parallel" "-1" "parallelism must be non-negative";
  err "breaker" "maybe" {|unknown breaker mode "maybe" (on, off)|};
  err "index" "sometimes" {|unknown index mode "sometimes" (expected auto, off or eager)|};
  err "optimize" "fast" {|unknown optimizer mode "fast" (greedy, dp, dp:N)|};
  (match Nimble.set_knob sys "turbo" "on" with
  | Error m -> check bool_t "unknown knob named" true (contains m {|unknown knob "turbo"|})
  | Ok () -> Alcotest.fail "unknown knob accepted");
  check (Alcotest.list (Alcotest.pair string_t string_t)) "rejections change nothing"
    (knob_values (Nimble.create ())) (knob_values sys)

let test_config_union_view_roundtrip () =
  let sys, _ = make_system () in
  ok
    (Nimble.define_view sys "both"
       {|WHERE <row><name>$n</name><region>"west"</region></row> IN "crm.customers"
         CONSTRUCT <p>$n</p>
         UNION
         WHERE <row><name>$n</name><region>"east"</region></row> IN "crm.customers"
         CONSTRUCT <p>$n</p>|});
  let script = Nimble.save_config sys in
  let sys2, _ = make_system () in
  ok (Nimble.load_config sys2 script);
  match Med_catalog.find_view (Nimble.catalog sys2) "both" with
  | Some v -> check int_t "union survives roundtrip" 2 (List.length v.Med_catalog.definitions)
  | None -> Alcotest.fail "expected union view"

let test_config_errors () =
  let sys, _ = make_system () in
  (match Nimble.load_config sys "bogus directive" with
  | Error m -> check bool_t "reports directive" true (contains m "bogus")
  | Ok () -> Alcotest.fail "expected error");
  (match Nimble.load_config sys "view broken := WHERE nope" with
  | Error m -> check bool_t "reports view name" true (contains m "broken")
  | Ok () -> Alcotest.fail "expected error");
  match Nimble.load_config sys "# just a comment\n\n" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "comments should be fine: %s" m

let () =
  Alcotest.run "frontend"
    [
      ( "format",
        [
          Alcotest.test_case "web escaping" `Quick test_format_web_escapes;
          Alcotest.test_case "text" `Quick test_format_text;
          Alcotest.test_case "wireless truncation" `Quick test_format_wireless_truncates;
          Alcotest.test_case "xml roundtrip" `Quick test_format_xml_roundtrip;
          Alcotest.test_case "device names" `Quick test_device_names;
        ] );
      ( "auth",
        [
          Alcotest.test_case "lifecycle" `Quick test_auth_lifecycle;
          Alcotest.test_case "role lattice" `Quick test_auth_role_lattice;
          Alcotest.test_case "duplicates" `Quick test_auth_duplicate;
        ] );
      ( "lens",
        [
          Alcotest.test_case "placeholders" `Quick test_lens_placeholders;
          Alcotest.test_case "instantiate" `Quick test_lens_instantiate;
          Alcotest.test_case "errors" `Quick test_lens_errors;
          Alcotest.test_case "param shapes" `Quick test_lens_param_shape;
          Alcotest.test_case "rebindable classes" `Quick test_lens_rebindable_classes;
        ] );
      ( "nimble",
        [
          Alcotest.test_case "query" `Quick test_nimble_query;
          Alcotest.test_case "error reporting" `Quick test_nimble_error_reporting;
          Alcotest.test_case "cache + invalidation" `Quick test_nimble_cache_serves_repeats;
          Alcotest.test_case "redefined view flushes results" `Quick
            test_nimble_redefined_view_flushes_results;
          Alcotest.test_case "views + materialization" `Quick test_nimble_views_and_materialization;
          Alcotest.test_case "partial results" `Quick test_nimble_partial;
          Alcotest.test_case "lens end to end" `Quick test_nimble_lens_end_to_end;
          Alcotest.test_case "explain + report" `Quick test_nimble_explain_and_report;
          Alcotest.test_case "formatted query" `Quick test_nimble_formatted_query;
        ] );
      ( "cleaned-sources",
        [
          Alcotest.test_case "dedupes at query time" `Quick
            test_cleaned_source_dedupes_at_query_time;
          Alcotest.test_case "merge unions fields" `Quick
            test_cleaned_source_merge_unions_fields;
          Alcotest.test_case "lineage + human resolution" `Quick
            test_cleaned_source_lineage_and_resolution;
          Alcotest.test_case "unknown source handling" `Quick test_cleaned_source_unknown;
          Alcotest.test_case "cache invalidation through cleaner" `Quick
            test_cleaned_source_cache_invalidation;
          Alcotest.test_case "refused drop keeps materialization" `Quick
            test_drop_view_refused_keeps_materialization;
        ] );
      ( "config",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "union view roundtrip" `Quick test_config_union_view_roundtrip;
          Alcotest.test_case "error reporting" `Quick test_config_errors;
          Alcotest.test_case "knob defaults are no-ops" `Quick test_knob_defaults_are_noops;
          Alcotest.test_case "knob errors" `Quick test_knob_errors;
        ] );
    ]
