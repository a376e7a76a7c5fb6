(* Tests for the observability subsystem: the metrics registry, the
   trace sink, the shared report formatting, the observed-cardinality
   store, and the end-to-end cost-model feedback loop through
   Med_exec.run_analyzed. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Obs_metrics                                                         *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Obs_metrics.reset_all ();
  let c = Obs_metrics.counter "test.hits" in
  check bool_t "same handle" true (Obs_metrics.counter "test.hits" == c);
  Obs_metrics.inc c;
  Obs_metrics.inc ~by:4 c;
  check int_t "value" 5 (Obs_metrics.value c);
  check bool_t "lookup by name" true
    (Obs_metrics.counter_value "test.hits" = Some 5);
  check bool_t "unknown name" true (Obs_metrics.counter_value "test.nope" = None)

let test_gauges_histograms () =
  Obs_metrics.reset_all ();
  let g = Obs_metrics.gauge "test.depth" in
  Obs_metrics.set_gauge g 3.5;
  check bool_t "gauge value" true (Obs_metrics.gauge_value g = 3.5);
  let h = Obs_metrics.histogram ~buckets:[ 10.0; 100.0 ] "test.lat" in
  List.iter (Obs_metrics.observe h) [ 4.0; 40.0; 400.0 ];
  check int_t "histogram count" 3 (Obs_metrics.histogram_count h);
  check bool_t "histogram sum" true (Obs_metrics.histogram_sum h = 444.0);
  (match Obs_metrics.histogram_buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3) ] ->
    check bool_t "bucket bounds" true (b1 = 10.0 && b2 = 100.0 && b3 = infinity);
    check int_t "le 10" 1 c1;
    check int_t "le 100" 1 c2;
    check int_t "overflow" 1 c3
  | _ -> Alcotest.fail "expected three buckets")

let test_kind_clash_and_reset () =
  Obs_metrics.reset_all ();
  let c = Obs_metrics.counter "test.kind" in
  Obs_metrics.inc c;
  check bool_t "kind clash rejected" true
    (try
       ignore (Obs_metrics.gauge "test.kind");
       false
     with Invalid_argument _ -> true);
  Obs_metrics.reset_all ();
  (* Handles survive a reset and start from zero again. *)
  check int_t "zeroed in place" 0 (Obs_metrics.value c);
  Obs_metrics.inc c;
  check int_t "still usable" 1 (Obs_metrics.value c)

(* ------------------------------------------------------------------ *)
(* Obs_trace / Obs_span                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_is_null () =
  Obs_trace.set_enabled false;
  Obs_trace.clear ();
  let got =
    Obs_trace.with_span "outer" (fun sp ->
        check bool_t "null span" true (Obs_span.is_null sp);
        Obs_span.set sp "k" "v";
        (* no-op *)
        17)
  in
  check int_t "value passes through" 17 got;
  check int_t "nothing recorded" 0 (List.length (Obs_trace.roots ()))

let test_trace_nesting () =
  Obs_trace.set_enabled true;
  Obs_trace.clear ();
  let got =
    Obs_trace.with_span "query" (fun q ->
        Obs_span.set q "text" "demo";
        let first =
          Obs_trace.with_span "access" (fun a ->
              Obs_span.set_int a "rows" 3;
              1)
        in
        let second = Obs_trace.with_span "access" (fun _ -> 2) in
        first + second)
  in
  Obs_trace.set_enabled false;
  check int_t "body result" 3 got;
  match Obs_trace.roots () with
  | [ root ] ->
    check string_t "root name" "query" (Obs_span.name root);
    check bool_t "root attr" true (Obs_span.attrs root = [ ("text", "demo") ]);
    let kids = Obs_span.children root in
    check int_t "two children" 2 (List.length kids);
    check bool_t "child attr" true
      (Obs_span.attrs (List.hd kids) = [ ("rows", "3") ])
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_trace_exception_recorded () =
  Obs_trace.set_enabled true;
  Obs_trace.clear ();
  (try Obs_trace.with_span "boom" (fun _ -> failwith "nope") with Failure _ -> ());
  Obs_trace.set_enabled false;
  match Obs_trace.roots () with
  | [ root ] ->
    check bool_t "error attr" true
      (List.mem_assoc "error" (Obs_span.attrs root))
  | _ -> Alcotest.fail "expected the failed span as a root"

(* ------------------------------------------------------------------ *)
(* Obs_report                                                          *)
(* ------------------------------------------------------------------ *)

let test_report_cells () =
  check string_t "cells"
    "calls=3 virtual_ms=14.00"
    (Obs_report.cells [ Obs_report.int_cell "calls" 3; Obs_report.ms_cell "virtual_ms" 14.0 ])

(* Net_sim's legacy one-line summary must keep its exact shape now that
   it renders through the shared Obs_report path. *)
let test_netsim_shares_format () =
  let src =
    Csv_source.make ~name:"little" [ ("rows", "a,b\n1,2\n3,4\n") ]
  in
  let wrapped, stats =
    Net_sim.wrap { Net_sim.latency_ms = 7.0; per_tuple_ms = 0.0; availability = 1.0 } src
  in
  ignore (wrapped.Source.documents "rows");
  let line = Net_sim.stats_to_string stats in
  check bool_t "legacy shape" true
    (contains line "calls=1 rejected=0 failed=0 tuples=")

(* ------------------------------------------------------------------ *)
(* Obs_feedback                                                        *)
(* ------------------------------------------------------------------ *)

let test_feedback_store () =
  let fb = Obs_feedback.create () in
  check bool_t "empty" true (Obs_feedback.observed fb "k" = None);
  Obs_feedback.record fb "k" 10;
  Obs_feedback.record fb "k" 42;
  check bool_t "last value wins" true (Obs_feedback.observed fb "k" = Some 42.0);
  check int_t "samples" 2 (Obs_feedback.samples fb "k");
  check int_t "size" 1 (Obs_feedback.size fb);
  Obs_feedback.reset fb;
  check int_t "reset" 0 (Obs_feedback.size fb)

(* ------------------------------------------------------------------ *)
(* The feedback loop, end to end                                       *)
(* ------------------------------------------------------------------ *)

let make_catalog () =
  let db = Rel_db.create ~name:"crm" () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)";
      "INSERT INTO customers VALUES (1, 'Acme'), (2, 'Globex'), (3, 'Initech')";
    ];
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  cat

let feedback_query =
  Xq_parser.parse_exn
    {|WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c>$n</c>|}

let test_run_analyzed_feedback () =
  let cat = make_catalog () in
  let a1 = Med_exec.run_analyzed cat feedback_query in
  check int_t "three answers" 3 (List.length a1.Med_exec.analyzed_result.Med_exec.trees);
  (match a1.Med_exec.analyzed_accesses with
  | [ st ] ->
    check bool_t "first run uses the default estimate" true
      (st.Med_exec.stat_est_rows = Alg_cost.default_scan_rows);
    check int_t "observed rows" 3 st.Med_exec.stat_rows;
    check int_t "one call" 1 st.Med_exec.stat_calls
  | _ -> Alcotest.fail "expected exactly one access");
  (* The run recorded its cardinality: the next one plans with it. *)
  let a2 = Med_exec.run_analyzed cat feedback_query in
  (match a2.Med_exec.analyzed_accesses with
  | [ st ] ->
    check bool_t "second run uses the observed estimate" true
      (st.Med_exec.stat_est_rows = 3.0)
  | _ -> Alcotest.fail "expected exactly one access");
  let report = Med_exec.analysis_to_string a2 in
  check bool_t "report shows actuals" true (contains report "actual 3 rows");
  check bool_t "report shows the access" true (contains report "SQL @crm")

let test_analysis_report_shape () =
  let cat = make_catalog () in
  let a = Med_exec.run_analyzed cat feedback_query in
  let report = Med_exec.analysis_to_string a in
  check bool_t "has operator estimates" true (contains report "(est ");
  check bool_t "has access table" true (contains report "accesses:");
  check bool_t "has per-access cells" true (contains report "calls=1 rows=3");
  check bool_t "has total footer" true (contains report "-- 3 rows in")

(* Analysis is execution: EXPLAIN ANALYZE runs the executor [run] runs,
   so on a fresh federation it returns the same trees and bindings, in
   the same order, under both engines.  The queries cover a pushed
   selection, a relational x XML join over an indexed store, a composed
   view joined on a key (a view bind join) and ORDER BY with LIMIT. *)
let federation mode =
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
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  Med_catalog.register_source cat
    (Xml_source.of_xml_strings ~name:"products"
       [
         ( "catalog",
           {|<catalog>
               <product sku="widget"><price>25</price></product>
               <product sku="gadget"><price>70</price></product>
               <product sku="server"><price>4500</price></product>
             </catalog>|} );
       ]);
  Med_catalog.define_view_text cat "big"
    {|WHERE <row><cust_id>$c</cust_id><amount>$a</amount></row> IN "crm.orders", $a > 100
      CONSTRUCT <big><c>$c</c><a>$a</a></big>|};
  Med_catalog.set_exec_mode cat mode;
  cat

let analysis_queries =
  [
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t >= 2
      CONSTRUCT <c>$n</c>|};
    {|WHERE <row><cust_id>$c</cust_id><item>$i</item></row> IN "crm.orders",
            <product sku=$i><price>$p</price></product> IN "products"
      CONSTRUCT <o><c>$c</c><p>$p</p></o>|};
    {|WHERE <row><id>$i</id><name>$n</name><region>"west"</region></row> IN "crm.customers",
            <big><c>$i</c><a>$a</a></big> IN "big"
      CONSTRUCT <r><n>$n</n><a>$a</a></r>|};
    {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers"
      CONSTRUCT <c><n>$n</n><t>$t</t></c> ORDER BY $t DESC, $n LIMIT 3|};
  ]

let test_analysis_is_execution () =
  let show (r : Med_exec.result) =
    List.map Dtree.to_string r.Med_exec.trees
    @ List.map Alg_env.to_string r.Med_exec.bindings
  in
  List.iter
    (fun mode ->
      List.iter
        (fun text ->
          let query = Xq_parser.parse_exn text in
          let analyzed = Med_exec.run_analyzed (federation mode) query in
          let cat = federation mode in
          let run =
            Med_exec.run_compiled cat
              (Med_exec.compile ~feedback:(Med_catalog.feedback cat) cat query)
          in
          check (Alcotest.list string_t)
            (Alg_exec.mode_to_string mode ^ ": " ^ text)
            (show run) (show analyzed.Med_exec.analyzed_result))
        analysis_queries)
    [ Alg_exec.Tuple; Alg_exec.Parallel { domains = 2; chunk = Alg_exec.default_chunk } ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges + histograms" `Quick test_gauges_histograms;
          Alcotest.test_case "kind clash + reset" `Quick test_kind_clash_and_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled = null span" `Quick test_trace_disabled_is_null;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "exception recorded" `Quick test_trace_exception_recorded;
        ] );
      ( "report",
        [
          Alcotest.test_case "cells" `Quick test_report_cells;
          Alcotest.test_case "net_sim shares the format" `Quick test_netsim_shares_format;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "store" `Quick test_feedback_store;
          Alcotest.test_case "run_analyzed feeds the planner" `Quick test_run_analyzed_feedback;
          Alcotest.test_case "analysis report shape" `Quick test_analysis_report_shape;
          Alcotest.test_case "analysis is execution" `Quick test_analysis_is_execution;
        ] );
    ]
