(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe            -- all experiments + micro-benches
     dune exec bench/main.exe -- E3 E6   -- selected experiments
     dune exec bench/main.exe -- micro   -- only the Bechamel micro suite
     dune exec bench/main.exe -- --quick E11 E12   -- shrunk workloads

   Each experiment (E1..E12) regenerates one table of EXPERIMENTS.md and
   writes a machine-readable BENCH_E<N>.json summary; the Bechamel suite
   gives per-operation timings for the core engine paths. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("E1", Experiments.e1);
    ("E2", Experiments.e2);
    ("E3", Experiments.e3);
    ("E3b", Experiments.e3b);
    ("E4", Experiments.e4);
    ("E4b", Experiments.e4b);
    ("E5", Experiments.e5);
    ("E5b", Experiments.e5b);
    ("E6", Experiments.e6);
    ("E7", Experiments.e7);
    ("E8", Experiments.e8);
    ("E9", Experiments.e9);
    ("E10", Experiments.e10);
    ("E11", Experiments.e11);
    ("E12", Experiments.e12);
    ("E13", Experiments.e13);
    ("E14", Experiments.e14);
    ("E15", Experiments.e15);
    ("E16", Experiments.e16);
    ("E17", Experiments.e17);
    ("E18", Experiments.e18);
    ("E19", Experiments.e19);
    ("E20", Experiments.e20);
  ]

(* Experiments run behind this wrapper so every one of them emits its
   BENCH_E<N>.json record: wall time around the whole experiment, the
   the virtual (simulated-network) time it advanced, summed across any
   clock resets, and
   whatever rows/params the experiment noted while running. *)
let run_experiment id f =
  Bench_json.reset ();
  let v0 = Obs_clock.virtual_ms () in
  let (), wall_ms = Workloads.time_ms f in
  Bench_json.emit ~name:id ~virtual_ms:(Bench_json.virtual_since v0) ~wall_ms

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per core engine path       *)
(* ------------------------------------------------------------------ *)

let micro_fixtures () =
  let g = Prng.create 5 in
  let xml_text = Workloads.xml_catalog g ~nodes:2000 in
  let doc = Xml_parser.parse_element_exn xml_text in
  let db = Workloads.customer_db (Prng.create 6) ~name:"crm" ~rows:2000 in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  let query_text =
    {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 1
      CONSTRUCT <c><id>$i</id><name>$n</name></c>|}
  in
  let parsed = Xq_parser.parse_exn query_text in
  let dirty = Workloads.dirty_customers (Prng.create 8) ~n:300 ~dup_rate:0.2 in
  (xml_text, doc, db, cat, query_text, parsed, dirty)

(* A star schema at the benchmark's warehouse sizes: 5,000 facts over
   365 days and 50 stores. *)
let star_db () =
  let g = Prng.create 9 in
  let db = Rel_db.create ~name:"dw" () in
  List.iter
    (fun stmt -> ignore (Rel_db.exec db stmt))
    [ "CREATE TABLE fact (fid INT PRIMARY KEY, day_id INT, store_id INT, product_id INT, revenue INT)";
      "CREATE TABLE days (day_id INT PRIMARY KEY, month INT)";
      "CREATE TABLE stores (store_id INT PRIMARY KEY, city TEXT)" ];
  let row fields = Tuple.make fields in
  Rel_db.insert_many db "days"
    (List.init 365 (fun i ->
         row [ ("day_id", Value.Int (i + 1)); ("month", Value.Int (min 12 (1 + (i / 31)))) ]));
  Rel_db.insert_many db "stores"
    (List.init 50 (fun i ->
         row [ ("store_id", Value.Int (i + 1)); ("city", Value.String (Printf.sprintf "city%d" (i mod 7))) ]));
  Rel_db.insert_many db "fact"
    (List.init 5000 (fun i ->
         row
           [ ("fid", Value.Int (i + 1)); ("day_id", Value.Int (1 + Prng.int g 365));
             ("store_id", Value.Int (1 + Prng.int g 50)); ("product_id", Value.Int (1 + Prng.int g 400));
             ("revenue", Value.Int (10 + Prng.int g 2000)) ]));
  db

(* Two composed views over 2,000 customers and 8,000 orders, joined on
   the customer key, with one customer selected: the orders view is a
   bind join on that one key. *)
let view_join_fixture db =
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  Med_catalog.register_source cat
    (Rel_source.make (Workloads.orders_db (Prng.create 7) ~name:"sales" ~rows:8000 ~customers:2000));
  Med_catalog.define_view_text cat "cv"
    {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers"
      CONSTRUCT <cu><cid>$i</cid><name>$n</name><tier>$t</tier></cu>|};
  Med_catalog.define_view_text cat "ov"
    {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id><amount>$a</amount></row> IN "sales.orders"
      CONSTRUCT <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob>|};
  let query =
    Xq_parser.parse_exn
      {|WHERE <cu><cid>$c</cid><name>$n</name></cu> IN "cv", $c = 999,
              <ob><oid>$o</oid><cid>$c</cid><amount>$a</amount></ob> IN "ov"
        CONSTRUCT <r><n>$n</n><o>$o</o><a>$a</a></r>|}
  in
  (cat, query)

let micro_tests () =
  let xml_text, doc, db, cat, query_text, parsed, dirty = micro_fixtures () in
  let dw = star_db () in
  let vcat, view_join = view_join_fixture db in
  let open Bechamel in
  [
    Test.make ~name:"xml_parse_2k_nodes" (Staged.stage (fun () ->
        ignore (Xml_parser.parse_element_exn xml_text)));
    Test.make ~name:"xml_path_descendants" (Staged.stage (fun () ->
        ignore (Xml_path.select (Xml_path.parse_exn "//product") doc)));
    Test.make ~name:"sql_select_indexed" (Staged.stage (fun () ->
        ignore (Rel_db.query db "SELECT name FROM customers WHERE id = 999")));
    Test.make ~name:"sql_scan_filter_2k" (Staged.stage (fun () ->
        ignore (Rel_db.query db "SELECT name FROM customers WHERE tier = 2")));
    Test.make ~name:"sql_join_3way" (Staged.stage (fun () ->
        ignore
          (Rel_db.query dw
             "SELECT f.fid, f.store_id, s.city, d.month, f.product_id, f.revenue FROM fact f \
              JOIN days d ON f.day_id = d.day_id JOIN stores s ON f.store_id = s.store_id \
              WHERE f.store_id = 7 AND d.month = 3 AND f.revenue > 1500")));
    Test.make ~name:"sql_update_by_pk" (Staged.stage (fun () ->
        ignore (Rel_db.exec db "UPDATE customers SET balance = 12.5 WHERE id = 999")));
    Test.make ~name:"xmlql_parse" (Staged.stage (fun () ->
        ignore (Xq_parser.parse_exn query_text)));
    Test.make ~name:"mediator_compile" (Staged.stage (fun () ->
        ignore (Med_planner.compile cat parsed)));
    Test.make ~name:"mediator_run_pushdown" (Staged.stage (fun () ->
        ignore (Med_exec.run cat parsed)));
    Test.make ~name:"mediator_view_bind_join" (Staged.stage (fun () ->
        ignore (Med_exec.run vcat view_join)));
    Test.make ~name:"jaro_winkler" (Staged.stage (fun () ->
        ignore (Cl_similarity.jaro_winkler "acme corporation" "acme corp")));
    Test.make ~name:"snm_dedupe_300" (Staged.stage (fun () ->
        let matcher =
          Cl_merge_purge.similarity_matcher
            ~measure:Cl_similarity.jaro ~same_above:0.9 ~different_below:0.6 ()
        in
        let key tup = Value.to_string (Tuple.get_exn tup "name") in
        ignore
          (Cl_merge_purge.sorted_neighborhood ~window:8 ~keys:[ key ] matcher
             dirty.Workloads.records)));
  ]

let run_micro () =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline "micro: Bechamel per-operation timings (monotonic clock)";
  print_endline (String.make 72 '=');
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let tests = micro_tests () in
  Printf.printf "%-28s %16s %12s\n" "operation" "ns/run" "r^2";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> e
            | _ -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
          Printf.printf "%-28s %16.1f %12.4f\n" name estimate r2)
        analyzed)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick, args = List.partition (fun a -> a = "--quick") args in
  if quick <> [] then Experiments.quick := true;
  match args with
  | [] ->
    List.iter (fun (id, f) -> run_experiment id f) experiments;
    run_micro ()
  | [ "micro" ] -> run_micro ()
  | "check-json" :: files ->
    (* Validate BENCH_*.json outputs: well-formed JSON with the required
       top-level keys.  Exits non-zero on the first bad file, so the
       bench-smoke alias catches emitter regressions. *)
    if files = [] then begin
      prerr_endline "check-json: no files given";
      exit 1
    end;
    List.iter
      (fun file ->
        match Bench_json.validate_file file with
        | Ok () -> Printf.printf "%s: well-formed\n" file
        | Error msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 1)
      files
  | selected ->
    List.iter
      (fun id ->
        if id = "micro" then run_micro ()
        else
          match List.assoc_opt id experiments with
          | Some f -> run_experiment id f
          | None ->
            Printf.eprintf "unknown experiment %s (known: %s, micro)\n" id
              (String.concat ", " (List.map fst experiments));
            exit 1)
      selected
