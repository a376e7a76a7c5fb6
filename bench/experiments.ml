(* The experiment harness: one function per experiment in EXPERIMENTS.md
   (E1..E10), each printing the table it regenerates.

   Network costs are measured on Net_sim's virtual clock (deterministic);
   computation costs are wall-clock medians via Workloads.bench_ms. *)

let section id title =
  Printf.printf "\n%s\n%s: %s\n%s\n" (String.make 72 '=') id title (String.make 72 '=')

let row fmt = Printf.printf fmt

(* --quick shrinks the workloads so the whole experiment fits in a test
   run (the bench-smoke alias); headline ratios are unaffected. *)
let quick = ref false

(* ------------------------------------------------------------------ *)
(* E1: warehousing vs virtual integration vs hybrid (section 3.3)      *)
(* ------------------------------------------------------------------ *)

type e1_mode =
  | Virtual
  | Warehouse
  | Hybrid of int

let e1_mode_name = function
  | Virtual -> "virtual"
  | Warehouse -> "warehouse"
  | Hybrid n -> Printf.sprintf "hybrid(refresh=%d)" n

let e1_setup mode seed =
  let g = Prng.create seed in
  let sizes = [ 500; 1000; 2000 ] in
  let dbs =
    List.mapi
      (fun i rows -> Workloads.customer_db g ~name:(Printf.sprintf "crm%d" i) ~rows)
      sizes
  in
  let sys = Nimble.create ~cache_capacity:0 () in
  let stats =
    List.map
      (fun db ->
        let wrapped, st =
          Net_sim.wrap ~seed
            { Net_sim.latency_ms = 10.0; per_tuple_ms = 0.02; availability = 1.0 }
            (Rel_source.make db)
        in
        (match Nimble.register_source sys wrapped with
        | Ok () -> ()
        | Error m -> failwith m);
        st)
      dbs
  in
  List.iteri
    (fun i _ ->
      match
        Nimble.define_view sys
          (Printf.sprintf "v%d" i)
          (Printf.sprintf
             {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm%d.customers"
               CONSTRUCT <customer><id>$i</id><name>$n</name></customer>|}
             i)
      with
      | Ok () -> ()
      | Error m -> failwith m)
    dbs;
  (match mode with
  | Virtual -> ()
  | Warehouse ->
    List.iteri
      (fun i _ ->
        match Nimble.materialize_view sys (Printf.sprintf "v%d" i) with
        | Ok () -> ()
        | Error m -> failwith m)
      dbs
  | Hybrid n ->
    List.iteri
      (fun i _ ->
        match
          Nimble.materialize_view sys
            ~policy:(Mat_store.Every_n_queries n)
            (Printf.sprintf "v%d" i)
        with
        | Ok () -> ()
        | Error m -> failwith m)
      dbs);
  (g, dbs, sys, stats)

let e1_run mode =
  let g, dbs, sys, stats = e1_setup mode 42 in
  let nqueries = 60 in
  let next_id = ref 100_000 in
  let missed = ref 0 in
  let answered = ref 0 in
  let _, wall_ms =
    Workloads.time_ms (fun () ->
        for q = 1 to nqueries do
          (* Updates arrive continuously: one new customer per 5 queries. *)
          if q mod 5 = 0 then begin
            incr next_id;
            let db = List.nth dbs (Prng.int g 3) in
            ignore
              (Rel_db.exec db
                 (Printf.sprintf "INSERT INTO customers VALUES (%d, 'new %d', 'west', 1, 0.0)"
                    !next_id !next_id))
          end;
          let v = Prng.int g 3 in
          let trees =
            match
              Nimble.query sys
                (Printf.sprintf
                   {|WHERE <customer><id>$i</id></customer> IN "v%d" CONSTRUCT <r>$i</r>|} v)
            with
            | Ok trees -> trees
            | Error m -> failwith m
          in
          let truth = Rel_table.row_count (Rel_db.table_exn (List.nth dbs v) "customers") in
          answered := !answered + List.length trees;
          missed := !missed + (truth - List.length trees)
        done)
  in
  let virtual_ms = List.fold_left (fun acc st -> acc +. st.Net_sim.virtual_ms) 0.0 stats in
  let calls = List.fold_left (fun acc st -> acc + st.Net_sim.calls) 0 stats in
  let tuples = List.fold_left (fun acc st -> acc + st.Net_sim.tuples_shipped) 0 stats in
  (e1_mode_name mode, virtual_ms, calls, tuples,
   float_of_int !missed /. float_of_int nqueries, wall_ms)

let e1 () =
  section "E1" "virtual vs warehouse vs hybrid materialization (3 remote sources, 60 queries, continuous updates)";
  row "%-22s %14s %8s %10s %14s %10s\n" "mode" "network ms" "calls" "tuples" "missed/query" "wall ms";
  List.iter
    (fun mode ->
      let name, vms, calls, tuples, staleness, wall = e1_run mode in
      Bench_json.note_param name (Printf.sprintf "%.1f network ms" vms);
      Bench_json.note_rows tuples;
      row "%-22s %14.1f %8d %10d %14.2f %10.1f\n" name vms calls tuples staleness wall)
    [ Virtual; Warehouse; Hybrid 15 ]

(* ------------------------------------------------------------------ *)
(* E2: view selection under budget and drifting load (section 3.3)     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "view selection: greedy benefit/storage under a budget, load shift mid-run";
  let g = Prng.create 7 in
  let candidates =
    List.init 12 (fun i ->
        {
          Mat_select.cand_view = Printf.sprintf "v%02d" i;
          storage = 50 + Prng.int g 400;
          virtual_cost = 10.0 +. Prng.float g 90.0;
          local_cost = 1.0 +. Prng.float g 2.0;
        })
  in
  let total_storage = List.fold_left (fun a c -> a + c.Mat_select.storage) 0 candidates in
  let zipf_load g rotate n =
    let counts = Hashtbl.create 16 in
    for _ = 1 to n do
      let r = (Prng.zipf g ~n:12 ~theta:1.1 + rotate) mod 12 in
      let name = Printf.sprintf "v%02d" r in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  in
  let phase_a = zipf_load g 0 1000 in
  let phase_b = zipf_load g 6 1000 in
  row "%-28s %12s %12s %10s\n" "policy" "phaseA cost" "phaseB cost" "storage";
  let print_policy name chosen_a chosen_b =
    let storage sel =
      List.fold_left
        (fun acc c -> if List.mem c.Mat_select.cand_view sel then acc + c.Mat_select.storage else acc)
        0 candidates
    in
    row "%-28s %12.0f %12.0f %10d\n" name
      (Mat_select.evaluate candidates phase_a chosen_a)
      (Mat_select.evaluate candidates phase_b chosen_b)
      (max (storage chosen_a) (storage chosen_b))
  in
  let budget = total_storage * 3 / 10 in
  let all = List.map (fun c -> c.Mat_select.cand_view) candidates in
  let greedy_a = (Mat_select.select ~budget candidates phase_a).Mat_select.chosen in
  let optimal_a = (Mat_select.select_optimal ~budget candidates phase_a).Mat_select.chosen in
  let greedy_b = (Mat_select.select ~budget candidates phase_b).Mat_select.chosen in
  print_policy "materialize nothing" [] [];
  print_policy "materialize everything" all all;
  print_policy (Printf.sprintf "greedy (budget=%d)" budget) greedy_a greedy_a;
  print_policy "greedy + adapt on drift" greedy_a greedy_b;
  print_policy "optimal (phase A, static)" optimal_a optimal_a;
  Bench_json.note_param "budget" (string_of_int budget);
  row "(budget is 30%% of total view storage %d; costs are workload cost units)\n" total_storage

(* ------------------------------------------------------------------ *)
(* E3: predicate/projection pushdown into relational sources           *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "fragment pushdown: compiler-generated SQL vs ship-whole-table (5000-row source)";
  let g = Prng.create 11 in
  let db = Workloads.customer_db g ~name:"crm" ~rows:5000 in
  let wrapped, stats =
    Net_sim.wrap { Net_sim.latency_ms = 10.0; per_tuple_ms = 0.05; availability = 1.0 }
      (Rel_source.make db)
  in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let queries =
    [
      ("id = 37 (1 row)", {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers", $i = 37 CONSTRUCT <r>$n</r>|});
      ("tier = 1 (~33%)", {|WHERE <row><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 1 CONSTRUCT <r>$n</r>|});
      ("balance < 100 (~10%)", {|WHERE <row><name>$n</name><balance>$b</balance></row> IN "crm.customers", $b < 100 CONSTRUCT <r>$n</r>|});
      ("region = 'west' (~20%)", {|WHERE <row><name>$n</name><region>"west"</region></row> IN "crm.customers" CONSTRUCT <r>$n</r>|});
    ]
  in
  row "%-26s %10s | %10s %12s | %10s %12s %8s\n" "query" "answers" "pushdown" "" "no-push" "" "ratio";
  row "%-26s %10s | %10s %12s | %10s %12s %8s\n" "" "" "tuples" "network ms" "tuples" "network ms" "";
  List.iter
    (fun (label, text) ->
      let run opts =
        Net_sim.reset stats;
        let trees = Med_exec.run_text ~opts cat text in
        (List.length trees, stats.Net_sim.tuples_shipped, stats.Net_sim.virtual_ms)
      in
      let n1, t1, v1 = run Med_sqlgen.default_options in
      let n2, t2, v2 = run Med_sqlgen.no_pushdown in
      assert (n1 = n2);
      Bench_json.note_param label (Printf.sprintf "%.1fx" (v2 /. v1));
      Bench_json.note_rows n1;
      row "%-26s %10d | %10d %12.1f | %10d %12.1f %7.1fx\n" label n1 t1 v1 t2 v2 (v2 /. v1))
    queries

let e3b () =
  section "E3b" "join pushdown: one SQL join fragment vs per-table fragments joined at the mediator";
  let g = Prng.create 13 in
  let db = Rel_db.create ~name:"crm" () in
  ignore
    (Rel_db.exec db
       "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT, balance FLOAT)");
  ignore
    (Rel_db.exec db
       "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, item TEXT, amount FLOAT)");
  let ncust = 2000 and nord = 6000 in
  for i = 1 to ncust do
    ignore
      (Rel_db.exec db
         (Printf.sprintf "INSERT INTO customers VALUES (%d, 'c%d', '%s', %d, %g)" i i
            (Prng.pick g Workloads.regions) (1 + Prng.int g 3) (Prng.float g 1000.0)))
  done;
  for i = 1 to nord do
    ignore
      (Rel_db.exec db
         (Printf.sprintf "INSERT INTO orders VALUES (%d, %d, '%s', %g)" i
            (1 + Prng.int g ncust) (Prng.pick g Workloads.items)
            (float_of_int (5 + Prng.int g 5000) /. 10.0)))
  done;
  ignore (Rel_db.exec db "CREATE INDEX ON orders (cust_id) USING HASH");
  let wrapped, stats =
    Net_sim.wrap { Net_sim.latency_ms = 10.0; per_tuple_ms = 0.05; availability = 1.0 }
      (Rel_source.make db)
  in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat wrapped;
  let text =
    {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
           <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
           $t = 1, $a > 400
      CONSTRUCT <big><n>$n</n><a>$a</a></big>|}
  in
  row "%-26s %10s %12s %12s %10s\n" "mode" "answers" "tuples" "network ms" "wall ms";
  let run label opts =
    Net_sim.reset stats;
    let trees = ref [] in
    let wall = Workloads.bench_ms ~runs:3 (fun () -> trees := Med_exec.run_text ~opts cat text) in
    (* bench_ms runs the query 4 times total; report per-run stats *)
    Net_sim.reset stats;
    let trees2 = Med_exec.run_text ~opts cat text in
    assert (List.length !trees = List.length trees2);
    Bench_json.note_param label (Printf.sprintf "%.1f network ms" stats.Net_sim.virtual_ms);
    Bench_json.note_rows (List.length trees2);
    row "%-26s %10d %12d %12.1f %10.1f\n" label (List.length trees2)
      stats.Net_sim.tuples_shipped stats.Net_sim.virtual_ms wall
  in
  run "join pushed (1 fragment)" Med_sqlgen.default_options;
  run "select-only pushdown" Med_sqlgen.no_join_pushdown;
  run "no pushdown at all" Med_sqlgen.no_pushdown

(* ------------------------------------------------------------------ *)
(* E4: dynamic data cleaning                                           *)
(* ------------------------------------------------------------------ *)

let e4_matcher () =
  let measure a b =
    Cl_similarity.jaro_winkler (Cl_normalize.normalize_name a) (Cl_normalize.normalize_name b)
  in
  Cl_merge_purge.similarity_matcher ~measure ~same_above:0.93 ~different_below:0.75 ()

let pairs_of_clusters clusters =
  List.concat_map
    (fun cluster ->
      let rec pairs = function
        | [] -> []
        | x :: rest -> List.map (fun y -> if x < y then (x, y) else (y, x)) rest @ pairs rest
      in
      pairs cluster)
    clusters

let e4_quality (outcome : Cl_merge_purge.outcome) true_pairs =
  let found = pairs_of_clusters outcome.Cl_merge_purge.clusters in
  let truth = List.map (fun (a, b) -> if a < b then (a, b) else (b, a)) true_pairs in
  let tp = List.length (List.filter (fun p -> List.mem p truth) found) in
  let recall = if truth = [] then 1.0 else float_of_int tp /. float_of_int (List.length truth) in
  let precision =
    if found = [] then 1.0 else float_of_int tp /. float_of_int (List.length found)
  in
  (recall, precision)

let e4 () =
  section "E4" "merge/purge: naive all-pairs vs multi-pass sorted neighborhood (20% injected duplicates)";
  row "%-8s %12s | %12s %8s %8s %8s | %12s %8s %8s %8s\n" "n" "true dups" "naive cmp" "ms"
    "recall" "prec" "snm cmp" "ms" "recall" "prec";
  List.iter
    (fun n ->
      let g = Prng.create (1000 + n) in
      let data = Workloads.dirty_customers g ~n ~dup_rate:0.2 in
      let blocking =
        [
          (fun tup -> Cl_normalize.normalize_name (Value.to_string (Tuple.get_exn tup "name")));
          (fun tup ->
            (* second pass: sorted token set defeats word-order noise *)
            let toks = Cl_similarity.tokens (Value.to_string (Tuple.get_exn tup "name")) in
            String.concat " " (List.sort String.compare toks));
        ]
      in
      let naive = ref None and snm = ref None in
      let naive_ms =
        Workloads.bench_ms ~runs:3 (fun () ->
            naive := Some (Cl_merge_purge.naive_pairs (e4_matcher ()) data.Workloads.records))
      in
      let snm_ms =
        Workloads.bench_ms ~runs:3 (fun () ->
            snm :=
              Some
                (Cl_merge_purge.sorted_neighborhood ~window:10 ~keys:blocking (e4_matcher ())
                   data.Workloads.records))
      in
      let naive = Option.get !naive and snm = Option.get !snm in
      let nrec, nprec = e4_quality naive data.Workloads.true_pairs in
      let srec, sprec = e4_quality snm data.Workloads.true_pairs in
      Bench_json.note_param (string_of_int n) (Printf.sprintf "snm recall %.2f" srec);
      Bench_json.note_rows n;
      row "%-8d %12d | %12d %8.1f %8.2f %8.2f | %12d %8.1f %8.2f %8.2f\n" n
        (List.length data.Workloads.true_pairs)
        naive.Cl_merge_purge.comparisons naive_ms nrec nprec snm.Cl_merge_purge.comparisons
        snm_ms srec sprec)
    [ 250; 500; 1000; 2000 ]

let e4b () =
  section "E4b" "concordance database: cold vs warm extraction runs (cost of re-deciding)";
  row "%-8s %14s %14s %16s\n" "n" "cold matcher" "warm matcher" "determinations";
  List.iter
    (fun n ->
      let g = Prng.create (2000 + n) in
      let data = Workloads.dirty_customers g ~n ~dup_rate:0.2 in
      let conc = Cl_concordance.create () in
      let calls = ref 0 in
      let base = e4_matcher () in
      let counting a b =
        incr calls;
        base a b
      in
      let key_of tup = Value.to_string (Tuple.get_exn tup "name") in
      let matcher = Cl_merge_purge.with_concordance_keys conc ~key_of counting in
      let block tup = Cl_normalize.normalize_name (Value.to_string (Tuple.get_exn tup "name")) in
      let run () =
        ignore
          (Cl_merge_purge.sorted_neighborhood ~window:10 ~keys:[ block ] matcher
             data.Workloads.records)
      in
      run ();
      let cold = !calls in
      run ();
      let warm = !calls - cold in
      Bench_json.note_param (string_of_int n) (Printf.sprintf "%d determinations" (Cl_concordance.size conc));
      row "%-8d %14d %14d %16d\n" n cold warm (Cl_concordance.size conc))
    [ 500; 1000; 2000 ]

(* ------------------------------------------------------------------ *)
(* E5: partial results under source unavailability (section 3.4)       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5" "partial results: strict vs partial answers as sources go offline (100 trials each)";
  Bench_json.note_param "trials" "100";
  row "%-10s %-14s %16s %16s %16s\n" "sources" "availability" "P(all up)" "strict ok" "partial answer";
  List.iter
    (fun k ->
      List.iter
        (fun p ->
          let g = Prng.create ((k * 100) + int_of_float (p *. 100.0)) in
          let trials = 100 in
          let strict_ok = ref 0 and completeness = ref 0.0 in
          for _ = 1 to trials do
            (* Each source answers independently with probability p. *)
            let up = List.init k (fun _ -> Prng.bernoulli g p) in
            let live = List.length (List.filter (fun b -> b) up) in
            if live = k then incr strict_ok;
            completeness := !completeness +. (float_of_int live /. float_of_int k)
          done;
          row "%-10d %-14.2f %16.2f %16.2f %16.2f\n" k p
            (Float.pow p (float_of_int k))
            (float_of_int !strict_ok /. float_of_int trials)
            (!completeness /. float_of_int trials))
        [ 0.5; 0.9; 0.99 ])
    [ 2; 4; 8; 16 ]

let e5b () =
  section "E5b" "partial results through the engine: a 6-source federation at 0.9 availability";
  let k = 6 in
  let sys = Nimble.create ~cache_capacity:0 () in
  let g = Prng.create 99 in
  for i = 0 to k - 1 do
    let db = Workloads.customer_db g ~name:(Printf.sprintf "s%d" i) ~rows:20 in
    let wrapped, _ =
      Net_sim.wrap ~seed:(500 + i)
        { Net_sim.default_profile with Net_sim.availability = 0.9 }
        (Rel_source.make db)
    in
    match Nimble.register_source sys wrapped with
    | Ok () -> ()
    | Error m -> failwith m
  done;
  let trials = 50 in
  let strict_ok = ref 0 and partial_complete = ref 0 and rows_seen = ref 0 in
  for _ = 1 to trials do
    let all_ok = ref true and skipped_any = ref false in
    for i = 0 to k - 1 do
      let text =
        Printf.sprintf
          {|WHERE <row><id>$x</id></row> IN "s%d.customers" CONSTRUCT <r>$x</r>|} i
      in
      match Nimble.query_partial sys text with
      | Ok (trees, skipped) ->
        rows_seen := !rows_seen + List.length trees;
        if skipped <> [] then begin
          all_ok := false;
          skipped_any := true
        end
      | Error _ -> all_ok := false
    done;
    if !all_ok then incr strict_ok;
    if not !skipped_any then incr partial_complete
  done;
  Bench_json.note_rows !rows_seen;
  row "trials with every source reachable: %d/%d\n" !strict_ok trials;
  row "total rows delivered across trials (partial mode never errors): %d\n" !rows_seen;
  row "expected all-up rate at 0.9^%d: %.2f\n" k (Float.pow 0.9 (float_of_int k))

(* ------------------------------------------------------------------ *)
(* E6: physical join operators (section 3.1)                           *)
(* ------------------------------------------------------------------ *)

let e6_relation g var n distinct_keys =
  Alg_plan.Const_envs
    (List.init n (fun i ->
         Alg_env.of_bindings
           [
             ( var,
               Dtree.of_tuple var
                 (Tuple.make
                    [ ("k", Value.Int (Prng.int g distinct_keys)); ("v", Value.Int i) ]) );
           ]))

let e6 () =
  section "E6" "join operators of the physical algebra (equi-join, |keys| = n/10)";
  row "%-10s %14s %14s %14s %10s\n" "n x n" "nested ms" "hash ms" "merge ms" "rows out";
  let no_sources _ _ = Seq.empty in
  List.iter
    (fun n ->
      let g = Prng.create (31 + n) in
      let left = e6_relation g "l" n (max 1 (n / 10)) in
      let right = e6_relation g "r" n (max 1 (n / 10)) in
      let lk = Alg_expr.Child (Alg_expr.Var "l", "k") in
      let rk = Alg_expr.Child (Alg_expr.Var "r", "k") in
      let nl_plan = Alg_plan.Nl_join { left; right; pred = Some (Alg_expr.Binop (Alg_expr.Eq, lk, rk)) } in
      let hash_plan = Alg_plan.Hash_join { left; right; left_key = lk; right_key = rk; residual = None } in
      let merge_plan = Alg_plan.Merge_join { left; right; left_key = lk; right_key = rk } in
      let count plan = List.length (Alg_exec.run_list no_sources plan) in
      let rows_out = count hash_plan in
      let nl_ms =
        if n <= 1000 then
          Printf.sprintf "%.1f" (Workloads.bench_ms ~runs:3 (fun () -> count nl_plan))
        else "(skipped)"
      in
      let hash_ms = Workloads.bench_ms ~runs:3 (fun () -> count hash_plan) in
      let merge_ms = Workloads.bench_ms ~runs:3 (fun () -> count merge_plan) in
      Bench_json.note_rows rows_out;
      row "%-10s %14s %14.1f %14.1f %10d\n"
        (Printf.sprintf "%dx%d" n n)
        nl_ms hash_ms merge_ms rows_out)
    [ 300; 1000; 3000 ]

(* ------------------------------------------------------------------ *)
(* E7: XML features — parse, navigate, document order (section 4)      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7" "XML substrate scaling: parse, path query, navigation (document order preserved)";
  row "%-10s %12s %12s %14s %14s %10s\n" "nodes" "parse ms" "path ms" "navigate ms" "order check" "products";
  List.iter
    (fun nodes ->
      let g = Prng.create (17 + nodes) in
      let text = Workloads.xml_catalog g ~nodes in
      let doc = ref None in
      let parse_ms =
        Workloads.bench_ms ~runs:3 (fun () -> doc := Some (Xml_parser.parse_element_exn text))
      in
      let doc = Option.get !doc in
      let path = Xml_path.parse_exn "//product[stock>'50']" in
      let matches = ref [] in
      let path_ms =
        Workloads.bench_ms ~runs:3 (fun () -> matches := Xml_path.select path doc)
      in
      let nav_ms =
        Workloads.bench_ms ~runs:3 (fun () ->
            (* down to every product, then sideways and up *)
            let cursor = Xml_cursor.of_root doc in
            List.iter
              (fun c ->
                ignore (Xml_cursor.next_sibling c);
                ignore (Xml_cursor.parent c))
              (Xml_cursor.descendants cursor))
      in
      (* Document order: path results must be sorted by cursor order. *)
      let cursors = Xml_path.eval path (Xml_cursor.of_root doc) in
      let in_order =
        let rec sorted = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) -> Xml_cursor.compare_order a b < 0 && sorted rest
        in
        sorted cursors
      in
      Bench_json.note_rows (List.length !matches);
      row "%-10d %12.1f %12.1f %14.1f %14s %10d\n" nodes parse_ms path_ms nav_ms
        (if in_order then "ok" else "VIOLATED")
        (List.length !matches))
    [ 1_000; 10_000; 50_000 ]

(* ------------------------------------------------------------------ *)
(* E8: hierarchical mediated schemas (section 2.1)                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8" "hierarchical mediated schemas: view-over-view chains (200-row base source)";
  row "%-8s %14s %12s %12s %12s\n" "depth" "plan ms" "run ms" "rows" "matches ref";
  let g = Prng.create 23 in
  let db = Workloads.customer_db g ~name:"crm" ~rows:200 in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make db);
  Med_catalog.define_view_text cat "level1"
    {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers"
      CONSTRUCT <c1><id>$i</id><name>$n</name></c1>|};
  for d = 2 to 6 do
    Med_catalog.define_view_text cat
      (Printf.sprintf "level%d" d)
      (Printf.sprintf
         {|WHERE <c%d><id>$i</id><name>$n</name></c%d> IN "level%d"
           CONSTRUCT <c%d><id>$i</id><name>$n</name></c%d>|}
         (d - 1) (d - 1) (d - 1) d d)
  done;
  for d = 1 to 6 do
    let text =
      Printf.sprintf
        {|WHERE <c%d><id>$i</id></c%d> IN "level%d", $i <= 50 CONSTRUCT <out>$i</out>|} d d d
    in
    let q = Xq_parser.parse_exn text in
    let plan_ms = Workloads.bench_ms ~runs:3 (fun () -> Med_planner.compile cat q) in
    let result = ref [] in
    let run_ms = Workloads.bench_ms ~runs:3 (fun () -> result := Med_exec.run cat q) in
    let reference = Xq_eval.eval (Med_exec.direct_resolver cat) q in
    let norm trees = List.sort compare (List.map Dtree.to_string trees) in
    Bench_json.note_rows (List.length !result);
    row "%-8d %14.2f %12.1f %12d %12s\n" d plan_ms run_ms (List.length !result)
      (if norm !result = norm reference then "yes" else "NO")
  done

(* ------------------------------------------------------------------ *)
(* E9: refresh policy — freshness vs remote cost (section 3.3)         *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9" "refresh interval: staleness vs network cost (one view, 120 queries, update every 4)";
  row "%-22s %12s %14s %14s\n" "policy" "calls" "network ms" "missed/query";
  let run policy_label policy =
    let g = Prng.create 77 in
    let db = Workloads.customer_db g ~name:"crm" ~rows:300 in
    let wrapped, stats =
      Net_sim.wrap { Net_sim.latency_ms = 10.0; per_tuple_ms = 0.02; availability = 1.0 }
        (Rel_source.make db)
    in
    let sys = Nimble.create ~cache_capacity:0 () in
    (match Nimble.register_source sys wrapped with Ok () -> () | Error m -> failwith m);
    (match
       Nimble.define_view sys "v"
         {|WHERE <row><id>$i</id></row> IN "crm.customers" CONSTRUCT <customer><id>$i</id></customer>|}
     with
    | Ok () -> ()
    | Error m -> failwith m);
    (match policy with
    | None -> ()
    | Some p -> (
      match Nimble.materialize_view sys ~policy:p "v" with
      | Ok () -> ()
      | Error m -> failwith m));
    let nqueries = 120 in
    let next_id = ref 50_000 in
    let missed = ref 0 in
    for q = 1 to nqueries do
      if q mod 4 = 0 then begin
        incr next_id;
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO customers VALUES (%d, 'n%d', 'west', 1, 0.0)"
                !next_id !next_id))
      end;
      let trees =
        match
          Nimble.query sys {|WHERE <customer><id>$i</id></customer> IN "v" CONSTRUCT <r>$i</r>|}
        with
        | Ok trees -> trees
        | Error m -> failwith m
      in
      let truth = Rel_table.row_count (Rel_db.table_exn db "customers") in
      missed := !missed + (truth - List.length trees)
    done;
    Bench_json.note_param policy_label (Printf.sprintf "%.1f network ms" stats.Net_sim.virtual_ms);
    row "%-22s %12d %14.1f %14.2f\n" policy_label stats.Net_sim.calls stats.Net_sim.virtual_ms
      (float_of_int !missed /. float_of_int nqueries)
  in
  run "virtual (no copy)" None;
  run "refresh every 1" (Some Mat_store.On_access);
  run "refresh every 5" (Some (Mat_store.Every_n_queries 5));
  run "refresh every 20" (Some (Mat_store.Every_n_queries 20));
  run "refresh every 60" (Some (Mat_store.Every_n_queries 60));
  run "never refresh" (Some Mat_store.Manual)

(* ------------------------------------------------------------------ *)
(* E10: result caching under a skewed lens workload (section 4)        *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "query-result cache: 400 Zipf-distributed lens queries over 40 templates";
  row "%-12s %-8s %12s %12s %14s\n" "cache size" "theta" "hit rate" "calls" "network ms";
  List.iter
    (fun theta ->
      List.iter
        (fun capacity ->
          let g = Prng.create (int_of_float (theta *. 10.0) + capacity) in
          let db = Workloads.customer_db (Prng.create 3) ~name:"crm" ~rows:500 in
          let wrapped, stats =
            Net_sim.wrap { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.02; availability = 1.0 }
              (Rel_source.make db)
          in
          let sys = Nimble.create ~cache_capacity:capacity () in
          (match Nimble.register_source sys wrapped with Ok () -> () | Error m -> failwith m);
          for _ = 1 to 400 do
            let which = Prng.zipf g ~n:40 ~theta in
            let text =
              Printf.sprintf
                {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers", $i <= %d
                  CONSTRUCT <r>$i</r>|}
                ((which + 1) * 10)
            in
            match Nimble.query sys text with
            | Ok _ -> ()
            | Error m -> failwith m
          done;
          Bench_json.note_param
            (Printf.sprintf "cap=%d theta=%.1f" capacity theta)
            (Printf.sprintf "hit %.2f" (Mat_cache.hit_rate (Nimble.cache sys)));
          row "%-12d %-8.1f %12.2f %12d %14.1f\n" capacity theta
            (Mat_cache.hit_rate (Nimble.cache sys))
            stats.Net_sim.calls stats.Net_sim.virtual_ms)
        [ 0; 4; 16; 64 ])
    [ 0.5; 1.2 ]

(* ------------------------------------------------------------------ *)
(* E11: observability — EXPLAIN ANALYZE and cost-model feedback        *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "explain-analyze on a federated join: default vs observed cardinalities";
  Obs_metrics.reset_all ();
  let g = Prng.create 11 in
  let ncust = if !quick then 120 else 300 in
  let customers = Workloads.customer_db g ~name:"crm" ~rows:ncust in
  let orders = Workloads.orders_db g ~name:"sales" ~rows:(3 * ncust) ~customers:ncust in
  let cat = Med_catalog.create () in
  List.iter
    (fun db ->
      let wrapped, _ =
        Net_sim.wrap ~seed:11
          { Net_sim.latency_ms = 8.0; per_tuple_ms = 0.05; availability = 1.0 }
          (Rel_source.make db)
      in
      Med_catalog.register_source cat wrapped)
    [ customers; orders ];
  let q =
    match
      Xq_parser.parse
        {|WHERE <row><id>$i</id><name>$n</name></row> IN "crm.customers",
                <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "sales.orders",
                $a >= 450
          CONSTRUCT <big><who>$n</who><amount>$a</amount></big>|}
    with
    | Ok q -> q
    | Error m -> failwith m
  in
  (* Run 1 plans blind (every scan estimated at the 1000-row default);
     run 2 replans with the cardinalities run 1 observed. *)
  List.iter
    (fun label ->
      row "---- %s ----\n" label;
      let a = Med_exec.run_analyzed cat q in
      Bench_json.note_rows (List.length a.Med_exec.analyzed_result.Med_exec.trees);
      print_string (Med_exec.analysis_to_string a))
    [ "run 1 (default estimates)"; "run 2 (observed estimates)" ];
  print_string (Obs_report.source_breakdown ())

(* ------------------------------------------------------------------ *)
(* E12: scatter-gather fetching and the fragment cache                 *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12"
    "scatter-gather fetch: 4-source join, sequential vs overlapped rounds, cold vs warm fragment cache";
  let nrows = if !quick then 60 else 200 in
  let nsources = 4 in
  let g = Prng.create 12 in
  let cat = Med_catalog.create () in
  for i = 0 to nsources - 1 do
    let db = Workloads.customer_db g ~name:(Printf.sprintf "s%d" i) ~rows:nrows in
    let wrapped, _ =
      Net_sim.wrap ~seed:(120 + i) Net_sim.default_profile (Rel_source.make db)
    in
    Med_catalog.register_source cat wrapped
  done;
  let q =
    Xq_parser.parse_exn
      (Printf.sprintf
         {|WHERE <row><id>$i</id><name>$n0</name></row> IN "s0.customers",
                 <row><id>$i</id><name>$n1</name></row> IN "s1.customers",
                 <row><id>$i</id><name>$n2</name></row> IN "s2.customers",
                 <row><id>$i</id><name>$n3</name></row> IN "s3.customers",
                 $i <= %d
           CONSTRUCT <r><id>$i</id><a>$n0</a><b>$n3</b></r>|}
         (nrows / 2))
  in
  row "%-24s %12s %12s %10s\n" "mode" "virtual ms" "wall ms" "rows";
  let run label =
    let v0 = Obs_clock.virtual_ms () in
    let trees = ref [] in
    let (), wall = Workloads.time_ms (fun () -> trees := Med_exec.run cat q) in
    let dv = Obs_clock.virtual_ms () -. v0 in
    row "%-24s %12.1f %12.1f %10d\n" label dv wall (List.length !trees);
    (List.length !trees, dv)
  in
  Med_catalog.set_fetch_options cat Fetch_sched.default_options;
  let n_seq, v_seq = run "sequential" in
  Med_catalog.set_fetch_options cat (Fetch_sched.gather_options ());
  Med_catalog.configure_frag_cache cat ~capacity:64 ();
  let n_cold, v_cold = run "gather(4), cold cache" in
  let n_warm, v_warm = run "gather(4), warm cache" in
  assert (n_seq = n_cold && n_cold = n_warm);
  let pct a b = if b <= 0.0 then 0.0 else 100.0 *. a /. b in
  row "gather/sequential virtual: %.0f%%   warm/cold: %.0f%%\n" (pct v_cold v_seq)
    (pct v_warm v_cold);
  Bench_json.note_param "sources" (string_of_int nsources);
  Bench_json.note_param "rows_per_source" (string_of_int nrows);
  Bench_json.note_param "fanout" (string_of_int Fetch_sched.default_fanout);
  Bench_json.note_param "sequential_virtual_ms" (Printf.sprintf "%.1f" v_seq);
  Bench_json.note_param "gather_cold_virtual_ms" (Printf.sprintf "%.1f" v_cold);
  Bench_json.note_param "gather_warm_virtual_ms" (Printf.sprintf "%.1f" v_warm);
  Bench_json.note_param "gather_vs_sequential" (Printf.sprintf "%.0f%%" (pct v_cold v_seq));
  Bench_json.note_param "warm_vs_cold" (Printf.sprintf "%.0f%%" (pct v_warm v_cold));
  Bench_json.note_rows n_seq

(* ------------------------------------------------------------------ *)
(* E13: chunked (one-domain morsel) vs tuple-at-a-time execution      *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13"
    "chunked vs tuple execution: 10k x 10k hash join and a 4-source federated query";
  let no_sources _ _ = Seq.empty in
  (* Part 1: the E6 hash-join workload over both engines; the chunked
     side is the morsel-driven engine at one domain, which runs every
     region inline.  The plan stacks select+project on the join so the
     fused select+project pass is on the hot path too. *)
  let n = if !quick then 2_000 else 10_000 in
  let g = Prng.create 131 in
  let left = e6_relation g "l" n (max 1 (n / 10)) in
  let right = e6_relation g "r" n (max 1 (n / 10)) in
  let lk = Alg_expr.Child (Alg_expr.Var "l", "k") in
  let rk = Alg_expr.Child (Alg_expr.Var "r", "k") in
  let lv = Alg_expr.Child (Alg_expr.Var "l", "v") in
  let plan =
    Alg_plan.Project
      ( Alg_plan.Select
          ( Alg_plan.Hash_join
              { left; right; left_key = lk; right_key = rk; residual = None },
            Alg_expr.Binop (Alg_expr.Ge, lv, Alg_expr.Const (Value.Int 0)) ),
        [ "l"; "r" ] )
  in
  let chunked () = fst (Alg_exec.run_parallel ~domains:1 no_sources plan) in
  let tuple_envs = Alg_exec.run_list no_sources plan in
  let chunked_envs = chunked () in
  let identical =
    List.length tuple_envs = List.length chunked_envs
    && List.for_all2 Alg_env.equal tuple_envs chunked_envs
  in
  if not identical then failwith "E13: chunked and tuple results differ";
  let rows_out = List.length tuple_envs in
  let tuple_ms =
    Workloads.bench_ms ~runs:3 (fun () -> ignore (Alg_exec.run_list no_sources plan))
  in
  let chunked_ms = Workloads.bench_ms ~runs:3 (fun () -> ignore (chunked ())) in
  let speedup = if chunked_ms > 0.0 then tuple_ms /. chunked_ms else 0.0 in
  row "%-28s %14s %14s %10s %10s\n" "join workload" "tuple ms" "par1 ms" "speedup" "rows";
  row "%-28s %14.1f %14.1f %9.2fx %10d\n"
    (Printf.sprintf "%dx%d, |keys|=%d" n n (max 1 (n / 10)))
    tuple_ms chunked_ms speedup rows_out;
  row "results identical (ordered): %s\n" (if identical then "yes" else "NO");
  Bench_json.note_param "join_n" (string_of_int n);
  Bench_json.note_param "join_tuple_ms" (Printf.sprintf "%.1f" tuple_ms);
  Bench_json.note_param "join_par1_ms" (Printf.sprintf "%.1f" chunked_ms);
  Bench_json.note_param "join_speedup" (Printf.sprintf "%.2fx" speedup);
  Bench_json.note_rows rows_out;
  (* Part 2: an E12-style 4-source federated join, whole pipeline
     (planner + fetch + execution), under both exec modes. *)
  let nrows = if !quick then 60 else 200 in
  let nsources = 4 in
  let g = Prng.create 13 in
  let cat = Med_catalog.create () in
  for i = 0 to nsources - 1 do
    let db = Workloads.customer_db g ~name:(Printf.sprintf "s%d" i) ~rows:nrows in
    let wrapped, _ =
      Net_sim.wrap ~seed:(130 + i) Net_sim.default_profile (Rel_source.make db)
    in
    Med_catalog.register_source cat wrapped
  done;
  let q =
    Xq_parser.parse_exn
      (Printf.sprintf
         {|WHERE <row><id>$i</id><name>$n0</name></row> IN "s0.customers",
                 <row><id>$i</id><name>$n1</name></row> IN "s1.customers",
                 <row><id>$i</id><name>$n2</name></row> IN "s2.customers",
                 <row><id>$i</id><name>$n3</name></row> IN "s3.customers",
                 $i <= %d
           CONSTRUCT <r><id>$i</id><a>$n0</a><b>$n3</b></r>|}
         (nrows / 2))
  in
  row "%-28s %12s %10s\n" "federated mode" "wall ms" "rows";
  let run_fed label mode =
    Med_catalog.set_exec_mode cat mode;
    let trees = ref [] in
    let wall = Workloads.bench_ms ~runs:3 (fun () -> trees := Med_exec.run cat q) in
    row "%-28s %12.1f %10d\n" label wall (List.length !trees);
    (List.map Dtree.to_string !trees, wall)
  in
  let fed_tuple, fed_tuple_ms = run_fed "tuple" Alg_exec.Tuple in
  let fed_par1, fed_par1_ms =
    run_fed "parallel (domains=1)"
      (Alg_exec.Parallel { domains = 1; chunk = Alg_exec.default_chunk })
  in
  Med_catalog.set_exec_mode cat Alg_exec.Tuple;
  if fed_tuple <> fed_par1 then failwith "E13: federated results differ across engines";
  row "federated results identical: yes\n";
  Bench_json.note_param "fed_sources" (string_of_int nsources);
  Bench_json.note_param "fed_rows_per_source" (string_of_int nrows);
  Bench_json.note_param "fed_tuple_ms" (Printf.sprintf "%.1f" fed_tuple_ms);
  Bench_json.note_param "fed_par1_ms" (Printf.sprintf "%.1f" fed_par1_ms);
  Bench_json.note_rows (List.length fed_tuple)

(* ------------------------------------------------------------------ *)
(* E14: morsel-driven parallel execution scaling                       *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14"
    "parallel execution: domain scaling on the E13 join workload and a federated query";
  let no_sources _ _ = Seq.empty in
  (* Part 1: the E13 join workload (hash join + select + project) under
     the morsel-driven engine at 2 and 4 domains, against one domain
     (the sequential chunked mode) as baseline.  Results must be
     byte-identical at every domain count — that assertion is the hard
     part of the contract; the speedup depends on how many cores the
     host grants. *)
  let n = if !quick then 2_000 else 10_000 in
  let g = Prng.create 141 in
  let left = e6_relation g "l" n (max 1 (n / 10)) in
  let right = e6_relation g "r" n (max 1 (n / 10)) in
  let lk = Alg_expr.Child (Alg_expr.Var "l", "k") in
  let rk = Alg_expr.Child (Alg_expr.Var "r", "k") in
  let lv = Alg_expr.Child (Alg_expr.Var "l", "v") in
  let plan =
    Alg_plan.Project
      ( Alg_plan.Select
          ( Alg_plan.Hash_join
              { left; right; left_key = lk; right_key = rk; residual = None },
            Alg_expr.Binop (Alg_expr.Ge, lv, Alg_expr.Const (Value.Int 0)) ),
        [ "l"; "r" ] )
  in
  let cores = Domain.recommended_domain_count () in
  let base_envs, _ = Alg_exec.run_parallel ~domains:1 no_sources plan in
  let rows_out = List.length base_envs in
  let base_ms =
    Workloads.bench_ms ~runs:3 (fun () ->
        ignore (Alg_exec.run_parallel ~domains:1 no_sources plan))
  in
  row "host cores available: %d\n" cores;
  row "%-28s %14s %10s %10s\n" "join workload" "wall ms" "speedup" "rows";
  row "%-28s %14.1f %10s %10d\n" "parallel (domains=1)" base_ms "1.00x" rows_out;
  Bench_json.note_param "cores" (string_of_int cores);
  Bench_json.note_param "join_n" (string_of_int n);
  Bench_json.note_param "join_par1_ms" (Printf.sprintf "%.1f" base_ms);
  List.iter
    (fun domains ->
      let par_envs, _ = Alg_exec.run_parallel ~domains no_sources plan in
      let identical =
        List.length base_envs = List.length par_envs
        && List.for_all2 Alg_env.equal base_envs par_envs
      in
      if not identical then
        failwith (Printf.sprintf "E14: parallel(domains=%d) differs from domains=1" domains);
      let par_ms =
        Workloads.bench_ms ~runs:3 (fun () ->
            ignore (Alg_exec.run_parallel ~domains no_sources plan))
      in
      let speedup = if par_ms > 0.0 then base_ms /. par_ms else 0.0 in
      row "%-28s %14.1f %9.2fx %10d\n"
        (Printf.sprintf "parallel (domains=%d)" domains)
        par_ms speedup (List.length par_envs);
      Bench_json.note_param
        (Printf.sprintf "join_par%d_ms" domains)
        (Printf.sprintf "%.1f" par_ms);
      Bench_json.note_param
        (Printf.sprintf "join_par%d_speedup" domains)
        (Printf.sprintf "%.2fx" speedup))
    [ 2; 4 ];
  row "results identical at every domain count: yes\n";
  Bench_json.note_rows rows_out;
  (* Part 2: the E13 federated 4-source join, whole pipeline, with the
     catalog switched to the parallel engine.  Scans still run on the
     caller (the network simulator is not shared across domains); only
     the post-fetch algebra is parallelized. *)
  let nrows = if !quick then 60 else 200 in
  let nsources = 4 in
  let g = Prng.create 14 in
  let cat = Med_catalog.create () in
  for i = 0 to nsources - 1 do
    let db = Workloads.customer_db g ~name:(Printf.sprintf "s%d" i) ~rows:nrows in
    let wrapped, _ =
      Net_sim.wrap ~seed:(140 + i) Net_sim.default_profile (Rel_source.make db)
    in
    Med_catalog.register_source cat wrapped
  done;
  let q =
    Xq_parser.parse_exn
      (Printf.sprintf
         {|WHERE <row><id>$i</id><name>$n0</name></row> IN "s0.customers",
                 <row><id>$i</id><name>$n1</name></row> IN "s1.customers",
                 <row><id>$i</id><name>$n2</name></row> IN "s2.customers",
                 <row><id>$i</id><name>$n3</name></row> IN "s3.customers",
                 $i <= %d
           CONSTRUCT <r><id>$i</id><a>$n0</a><b>$n3</b></r>|}
         (nrows / 2))
  in
  row "%-28s %12s %10s\n" "federated mode" "wall ms" "rows";
  let run_fed label mode =
    Med_catalog.set_exec_mode cat mode;
    let trees = ref [] in
    let wall = Workloads.bench_ms ~runs:3 (fun () -> trees := Med_exec.run cat q) in
    row "%-28s %12.1f %10d\n" label wall (List.length !trees);
    (List.map Dtree.to_string !trees, wall)
  in
  let fed_tuple, fed_tuple_ms = run_fed "tuple" Alg_exec.Tuple in
  let fed_par, fed_par_ms =
    run_fed "parallel (domains=2)"
      (Alg_exec.Parallel { domains = 2; chunk = Alg_exec.default_chunk })
  in
  Med_catalog.set_exec_mode cat Alg_exec.Tuple;
  if fed_tuple <> fed_par then failwith "E14: federated results differ across engines";
  row "federated results identical: yes\n";
  Bench_json.note_param "fed_sources" (string_of_int nsources);
  Bench_json.note_param "fed_rows_per_source" (string_of_int nrows);
  Bench_json.note_param "fed_tuple_ms" (Printf.sprintf "%.1f" fed_tuple_ms);
  Bench_json.note_param "fed_par_ms" (Printf.sprintf "%.1f" fed_par_ms)

(* ------------------------------------------------------------------ *)
(* E15: concurrency server — closed-loop workload, plan cache cold vs  *)
(* warm                                                                *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15"
    "concurrency server: closed-loop lens workload, plan cache cold vs warm";
  let requests = if !quick then 48 else 480 in
  let passes = if !quick then 3 else 9 in
  let spec = { Srv_workload.demo_spec with requests } in
  (* One measured pass = fresh federation + server.  Both configurations
     run one untimed pass first — it populates the warm cache, and it
     leaves engines and session counters in the same mid-stream state
     either way, so the measured passes differ only in whether requests
     pay the parse.  Every request is planned in both. *)
  let run_pass ~capacity =
    Bench_json.reset_virtual ();
    let sys = Srv_workload.demo_system () in
    (* A roomy queue: the experiment measures plan-cache economics, so
       requests should reach the planner instead of being shed. *)
    let config =
      {
        Srv_dispatch.default_config with
        plan_cache_capacity = capacity;
        queue = { Srv_admit.queue_capacity = 64; max_session_in_flight = 32 };
      }
    in
    let srv = Srv_dispatch.create ~config sys in
    List.iter
      (fun (user, password) ->
        match Srv_dispatch.open_session srv ~user ~password with
        | Ok _ -> ()
        | Error m -> failwith ("E15: open_session: " ^ m))
      Srv_workload.demo_users;
    ignore (Srv_workload.run srv spec);
    let summary, wall = Workloads.time_ms (fun () -> Srv_workload.run srv spec) in
    (wall, summary)
  in
  (* Cold and warm passes alternate, so drift on a shared host lands on
     both configurations alike. *)
  let pairs =
    List.init passes (fun _ ->
        let cold = run_pass ~capacity:0 in
        (cold, run_pass ~capacity:32))
  in
  (* The cache must change costs, never results: every pass sees the
     same deterministic request stream and must settle it the same
     way. *)
  let _, first = fst (List.hd pairs) in
  List.iter
    (fun ((_, (c : Srv_workload.summary)), (_, (w : Srv_workload.summary))) ->
      List.iter
        (fun (s : Srv_workload.summary) ->
          if
            c.ws_completed <> s.ws_completed
            || c.ws_rejected <> s.ws_rejected
            || c.ws_elapsed_ms <> s.ws_elapsed_ms
          then failwith "E15: warm and cold runs disagree on outcomes")
        [ first; w ])
    pairs;
  let median xs =
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let hit_rate (s : Srv_workload.summary) =
    if s.ws_completed = 0 then 0.0
    else float_of_int s.ws_plan_hits /. float_of_int s.ws_completed
  in
  let completed = first.Srv_workload.ws_completed in
  row "requests per pass: %d (seed %d), %d measured passes per configuration\n" requests
    spec.Srv_workload.seed passes;
  row "%-24s %10s %13s %10s %10s %10s %12s\n" "configuration" "median ms" "range ms"
    "req/ms" "hit rate" "completed" "virtual ms";
  let summarize label pick =
    let walls = List.map (fun p -> fst (pick p)) pairs in
    let summary = snd (pick (List.hd pairs)) in
    let wall = median walls in
    let lo = List.fold_left min infinity walls and hi = List.fold_left max 0.0 walls in
    row "%-24s %10.1f %13s %10.2f %9.0f%% %10d %12.1f\n" label wall
      (Printf.sprintf "%.1f-%.1f" lo hi)
      (if wall > 0.0 then float_of_int completed /. wall else 0.0)
      (100.0 *. hit_rate summary) completed summary.Srv_workload.ws_elapsed_ms;
    (wall, lo, hi, hit_rate summary)
  in
  let cold_ms, cold_lo, cold_hi, cold_hits = summarize "cold (cache off)" fst in
  let warm_ms, warm_lo, warm_hi, warm_hits = summarize "warm (cache 32)" snd in
  let speedup =
    median (List.map (fun ((c, _), (w, _)) -> if w > 0.0 then c /. w else 0.0) pairs)
  in
  row "warm outcomes identical to cold: yes\n";
  row "parse skipped on warm pass: %.0f%% of completions (median %.2fx wall speedup)\n"
    (100.0 *. warm_hits) speedup;
  Bench_json.note_param "requests" (string_of_int requests);
  Bench_json.note_param "passes" (string_of_int passes);
  Bench_json.note_param "cold_ms" (Printf.sprintf "%.1f" cold_ms);
  Bench_json.note_param "cold_range_ms" (Printf.sprintf "%.1f-%.1f" cold_lo cold_hi);
  Bench_json.note_param "warm_ms" (Printf.sprintf "%.1f" warm_ms);
  Bench_json.note_param "warm_range_ms" (Printf.sprintf "%.1f-%.1f" warm_lo warm_hi);
  Bench_json.note_param "speedup" (Printf.sprintf "%.2fx" speedup);
  Bench_json.note_param "cold_hit_rate" (Printf.sprintf "%.2f" cold_hits);
  Bench_json.note_param "warm_hit_rate" (Printf.sprintf "%.2f" warm_hits);
  Bench_json.note_rows (2 * passes * completed)

(* ------------------------------------------------------------------ *)
(* E16: semantic caching — containment hits and remainder shipping     *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16"
    "semantic cache: contained predicates answered locally, overlaps ship only the remainder";
  let nrows = if !quick then 400 else 2_000 in
  (* Two identical federations, semantic cache off vs on; the cache must
     change shipping volume, never answers. *)
  let make_system ~sem_budget_bytes ~seed =
    let cat = Med_catalog.create ~sem_budget_bytes () in
    let db = Workloads.customer_db (Prng.create 16) ~name:"crm" ~rows:nrows in
    let wrapped, stats =
      Net_sim.wrap ~seed Net_sim.default_profile (Rel_source.make db)
    in
    Med_catalog.register_source cat wrapped;
    (cat, stats)
  in
  let cat_off, st_off = make_system ~sem_budget_bytes:0 ~seed:160 in
  let cat_on, st_on = make_system ~sem_budget_bytes:(1 lsl 22) ~seed:160 in
  let q_le k =
    Xq_parser.parse_exn
      (Printf.sprintf
         {|WHERE <row><id>$i</id><name>$n</name><balance>$b</balance></row> IN "crm.customers",
                 $i <= %d
           CONSTRUCT <c><id>$i</id><n>$n</n><b>$b</b></c>|}
         k)
  in
  let q_range a b =
    Xq_parser.parse_exn
      (Printf.sprintf
         {|WHERE <row><id>$i</id><name>$n</name><balance>$b</balance></row> IN "crm.customers",
                 $i > %d, $i <= %d
           CONSTRUCT <c><id>$i</id><n>$n</n><b>$b</b></c>|}
         a b)
  in
  let render trees = String.concat "\n" (List.map Dtree.to_string trees) in
  let total_rows = ref 0 in
  let run_pair q =
    let t_off = Med_exec.run cat_off q in
    let t_on = Med_exec.run cat_on q in
    if render t_off <> render t_on then
      failwith "E16: semantic cache changed answers";
    total_rows := !total_rows + List.length t_on;
    List.length t_on
  in
  let phase label queries =
    let s_off = st_off.Net_sim.tuples_shipped
    and s_on = st_on.Net_sim.tuples_shipped
    and v_off = st_off.Net_sim.virtual_ms
    and v_on = st_on.Net_sim.virtual_ms in
    let out = List.fold_left (fun acc q -> acc + run_pair q) 0 queries in
    let d_off = st_off.Net_sim.tuples_shipped - s_off
    and d_on = st_on.Net_sim.tuples_shipped - s_on in
    row "%-32s %10d %12d %12d %10.1f %10.1f\n" label out d_off d_on
      (st_off.Net_sim.virtual_ms -. v_off)
      (st_on.Net_sim.virtual_ms -. v_on);
    (d_off, d_on)
  in
  row "%-32s %10s %12s %12s %10s %10s\n" "phase" "rows out" "shipped off"
    "shipped on" "net ms off" "net ms on";
  (* Cold: first contact — both systems ship the full extent. *)
  let cold_off, cold_on = phase "cold: id <= n/2" [ q_le (nrows / 2) ] in
  (* Warm: narrower predicates are contained in the cached extent — the
     semantic cache filters locally and ships nothing. *)
  let contained =
    [ q_le (nrows / 3); q_le (nrows / 4); q_le (nrows / 6); q_le (nrows / 8) ]
  in
  let warm_off, warm_on = phase "warm: contained sweeps" contained in
  (* Overlap: the range (n/4, 3n/4] straddles the cached extent's edge —
     the probe answers (n/4, n/2] locally and ships only (n/2, 3n/4]. *)
  let over_off, over_on =
    phase "overlap: n/4 < id <= 3n/4" [ q_range (nrows / 4) (3 * nrows / 4) ]
  in
  (* Repeat: the merged extent admitted by the partial hit now answers
     the same range without shipping at all. *)
  let rep_off, rep_on =
    phase "repeat overlapping range" [ q_range (nrows / 4) (3 * nrows / 4) ]
  in
  let st = Sem_cache.stats (Med_catalog.sem_cache cat_on) in
  row
    "semantic cache: hits=%d partial=%d miss=%d rows local=%d shipped=%d \
     admitted=%d\n"
    st.Sem_cache.sem_hits st.Sem_cache.sem_partials st.Sem_cache.sem_misses
    st.Sem_cache.sem_rows_local st.Sem_cache.sem_rows_shipped
    st.Sem_cache.sem_admissions;
  row "answers identical with cache on and off: yes\n";
  if warm_on >= warm_off then
    failwith "E16: warm sweep did not reduce shipped rows";
  if over_on >= over_off then
    failwith "E16: overlap did not reduce shipped rows";
  if st.Sem_cache.sem_hits = 0 || st.Sem_cache.sem_partials = 0 then
    failwith "E16: expected both full and partial hits";
  Bench_json.note_param "rows" (string_of_int nrows);
  Bench_json.note_param "cold_shipped_off_on"
    (Printf.sprintf "%d/%d" cold_off cold_on);
  Bench_json.note_param "warm_shipped_off_on"
    (Printf.sprintf "%d/%d" warm_off warm_on);
  Bench_json.note_param "overlap_shipped_off_on"
    (Printf.sprintf "%d/%d" over_off over_on);
  Bench_json.note_param "repeat_shipped_off_on"
    (Printf.sprintf "%d/%d" rep_off rep_on);
  Bench_json.note_param "hits" (string_of_int st.Sem_cache.sem_hits);
  Bench_json.note_param "partial_hits" (string_of_int st.Sem_cache.sem_partials);
  Bench_json.note_param "misses" (string_of_int st.Sem_cache.sem_misses);
  Bench_json.note_param "rows_local" (string_of_int st.Sem_cache.sem_rows_local);
  Bench_json.note_param "rows_shipped"
    (string_of_int st.Sem_cache.sem_rows_shipped);
  Bench_json.note_param "identical" "yes";
  Bench_json.note_rows !total_rows

(* ------------------------------------------------------------------ *)
(* E17: cost-based optimizer — DPsize + bind joins vs greedy           *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17"
    "cost-based optimizer: DPsize join order and bind joins vs greedy on a star join";
  let nfact = if !quick then 600 else 5_000 in
  let ncust = 60 and nprod = 40 and nstore = 30 in
  (* One federation per optimizer mode, identical data (same PRNG seed):
     a fact source and three dimension sources, all behind the network
     simulator.  The optimizer must change shipping volume, never
     answers. *)
  let make_system ~mode =
    let cat = Med_catalog.create () in
    Med_catalog.set_optimizer cat mode;
    let g = Prng.create 170 in
    let mk_db name stmts =
      let db = Rel_db.create ~name () in
      List.iter (fun s -> ignore (Rel_db.exec db s)) stmts;
      db
    in
    let cust =
      mk_db "cust"
        ("CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier INT)"
        :: List.init ncust (fun i ->
               Printf.sprintf "INSERT INTO customers VALUES (%d, 'customer %d', %d)"
                 (i + 1) (i + 1) (1 + Prng.int g 3)))
    in
    let prod =
      mk_db "prod"
        ("CREATE TABLE products (pid INT PRIMARY KEY, pname TEXT)"
        :: List.init nprod (fun i ->
               Printf.sprintf "INSERT INTO products VALUES (%d, 'product %d')" (i + 1)
                 (i + 1)))
    in
    let store =
      mk_db "store"
        ("CREATE TABLE stores (stid INT PRIMARY KEY, city TEXT)"
        :: List.init nstore (fun i ->
               Printf.sprintf "INSERT INTO stores VALUES (%d, 'city %d')" (i + 1)
                 (i + 1)))
    in
    let sales =
      mk_db "sales"
        ("CREATE TABLE sales (sid INT PRIMARY KEY, cust_id INT, prod_id INT, \
          store_id INT, amount FLOAT)"
        :: List.init nfact (fun i ->
               Printf.sprintf "INSERT INTO sales VALUES (%d, %d, %d, %d, %g)"
                 (i + 1)
                 (1 + Prng.int g ncust)
                 (1 + Prng.int g nprod)
                 (1 + Prng.int g nstore)
                 (float_of_int (10 + Prng.int g 9_000) /. 10.0)))
    in
    let fact_profile =
      { Net_sim.latency_ms = 8.0; per_tuple_ms = 0.05; availability = 1.0 }
    in
    let dim_profile =
      { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.02; availability = 1.0 }
    in
    let stats =
      List.map
        (fun (db, profile) ->
          let wrapped, st = Net_sim.wrap ~seed:17 profile (Rel_source.make db) in
          Med_catalog.register_source cat wrapped;
          st)
        [
          (sales, fact_profile); (cust, dim_profile); (prod, dim_profile);
          (store, dim_profile);
        ]
    in
    (cat, stats)
  in
  let cat_g, st_g = make_system ~mode:Med_optimize.Greedy in
  let cat_d, st_d = make_system ~mode:Med_optimize.dp in
  (* Exact statistics on both sides: the DP side needs them to tell the
     fact from the dimensions; the greedy side gets the same estimates
     for a fair comparison.  Shipped-row counters are snapshotted after
     this, so the analysis scans are excluded from the measurement. *)
  ignore (Med_catalog.analyze cat_g);
  ignore (Med_catalog.analyze cat_d);
  let q =
    Xq_parser.parse_exn
      {|WHERE <row><sid>$s</sid><cust_id>$c</cust_id><prod_id>$p</prod_id><store_id>$st</store_id><amount>$a</amount></row> IN "sales.sales",
              <row><id>$c</id><name>$cn</name><tier>$t</tier></row> IN "cust.customers",
              <row><pid>$p</pid><pname>$pn</pname></row> IN "prod.products",
              <row><stid>$st</stid><city>$ct</city></row> IN "store.stores",
              $t = 1
        CONSTRUCT <sale><sid>$s</sid><customer>$cn</customer><product>$pn</product><city>$ct</city><amount>$a</amount></sale>
        ORDER BY $s|}
  in
  let render trees = String.concat "\n" (List.map Dtree.to_string trees) in
  let shipped sts = List.fold_left (fun a s -> a + s.Net_sim.tuples_shipped) 0 sts in
  let virt sts = List.fold_left (fun a s -> a +. s.Net_sim.virtual_ms) 0.0 sts in
  let measure cat sts =
    let s0 = shipped sts and v0 = virt sts in
    let trees = Med_exec.run cat q in
    (render trees, List.length trees, shipped sts - s0, virt sts -. v0)
  in
  let ans_g, rows_g, ship_g, ms_g = measure cat_g st_g in
  let ans_d, rows_d, ship_d, ms_d = measure cat_d st_d in
  let compiled_d = Med_planner.compile cat_d q in
  let oi =
    match compiled_d.Med_planner.opt_info with
    | Some oi -> oi
    | None -> failwith "E17: DP compile produced no optimizer info"
  in
  row "%-24s %14s %16s %12s\n" "configuration" "shipped rows" "net virtual ms"
    "answer rows";
  row "%-24s %14d %16.1f %12d\n" "greedy" ship_g ms_g rows_g;
  row "%-24s %14d %16.1f %12d\n" "dp (+bind joins)" ship_d ms_d rows_d;
  row "%s\n" (Med_planner.opt_info_to_string oi);
  if ans_g <> ans_d then failwith "E17: optimizer changed answers";
  if ship_d >= ship_g then
    failwith "E17: DP plan did not ship strictly fewer rows than greedy";
  if ms_d >= ms_g then
    failwith "E17: DP plan did not spend strictly less virtual time than greedy";
  if oi.Med_planner.oi_binds = [] then
    failwith "E17: DP plan converted no access to a bind join";
  (* Same answers from every engine under both optimizers. *)
  let engines =
    [
      ("tuple", Alg_exec.Tuple);
      ("parallel(domains=1)", Alg_exec.Parallel { domains = 1; chunk = 256 });
      ("parallel(domains=2)", Alg_exec.Parallel { domains = 2; chunk = 128 });
    ]
  in
  List.iter
    (fun (label, m) ->
      Med_catalog.set_exec_mode cat_g m;
      Med_catalog.set_exec_mode cat_d m;
      if render (Med_exec.run cat_g q) <> ans_g
         || render (Med_exec.run cat_d q) <> ans_g
      then failwith (Printf.sprintf "E17: answers diverged under %s engine" label))
    engines;
  row "answers identical across greedy/dp and tuple/parallel (1, 2 domains): yes\n";
  Bench_json.note_param "fact_rows" (string_of_int nfact);
  Bench_json.note_param "greedy_shipped" (string_of_int ship_g);
  Bench_json.note_param "dp_shipped" (string_of_int ship_d);
  Bench_json.note_param "greedy_virtual_ms" (Printf.sprintf "%.1f" ms_g);
  Bench_json.note_param "dp_virtual_ms" (Printf.sprintf "%.1f" ms_d);
  Bench_json.note_param "dp_order" oi.Med_planner.oi_order;
  Bench_json.note_param "bind_joins"
    (string_of_int (List.length oi.Med_planner.oi_binds));
  Bench_json.note_param "identical" "yes";
  Bench_json.note_rows (rows_g + rows_d)

(* ------------------------------------------------------------------ *)
(* E18: path & value indexes — structural probes vs walking the store  *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18"
    "path & value indexes: guide/value probes vs tree walking on a deep XML store";
  let nprod = if !quick then 400 else 4_000 in
  let repeat = if !quick then 20 else 60 in
  (* One deep document: products sit under six levels of section
     nesting, so the walker pays the whole tree on every query while a
     guide probe pays only the matching nodes. *)
  let g = Prng.create 180 in
  let xml =
    let buf = Buffer.create (nprod * 96) in
    Buffer.add_string buf "<catalog>";
    for i = 1 to nprod do
      Buffer.add_string buf "<sect><sect><sect><sect><sect>";
      Buffer.add_string buf
        (Printf.sprintf
           {|<product sku="sku%d"><price>%d</price><cat>%s</cat></product>|}
           i
           (10 + Prng.int g 190)
           (if Prng.int g 2 = 0 then "tools" else "infra"));
      Buffer.add_string buf "</sect></sect></sect></sect></sect>"
    done;
    Buffer.add_string buf "</catalog>";
    Buffer.contents buf
  in
  (* The workload: a guide-answered navigation (variable sku) and a
     value-index-answered point lookup (literal sku). *)
  let queries =
    [
      Xq_parser.parse_exn
        {|WHERE <product sku=$s><price>$p</price></product> IN "shop.catalog", $p < 15
          CONSTRUCT <r><s>$s</s><p>$p</p></r>|};
      Xq_parser.parse_exn
        (Printf.sprintf
           {|WHERE <product sku="sku%d"><price>$p</price></product> IN "shop.catalog"
             CONSTRUCT <hit>$p</hit>|}
           (nprod / 2));
    ]
  in
  let make_cat () =
    let cat = Med_catalog.create () in
    Med_catalog.register_source cat
      (Xml_source.of_xml_strings ~name:"shop" [ ("catalog", xml) ]);
    cat
  in
  let render trees = String.concat "\n" (List.map Dtree.to_string trees) in
  let transcript cat = String.concat "\n==\n" (List.map (fun q -> render (Med_exec.run cat q)) queries) in
  (* Steady-state wall time of [repeat] rounds; one warm-up round first
     so the indexed side builds its guide/value indexes outside the
     measured window (builds are a one-time cost the report shows
     separately via the manager's byte accounting). *)
  let measure mode =
    Idx_manager.clear ();
    Idx_manager.reset_stats ();
    Idx_manager.set_mode mode;
    let cat = make_cat () in
    let answer = transcript cat in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeat do ignore (transcript cat) done;
    let ms = (Unix.gettimeofday () -. t0) *. 1_000.0 in
    let guide, value, miss = Idx_manager.counters () in
    (answer, ms, guide, value, miss, Idx_manager.total_bytes ())
  in
  let ans_off, ms_off, _, _, miss_off, _ = measure Idx_manager.Off in
  let ans_on, ms_on, guide_on, value_on, miss_on, bytes_on =
    measure Idx_manager.Auto
  in
  if ans_off <> ans_on then failwith "E18: indexes changed answers";
  if guide_on = 0 || value_on = 0 then
    failwith "E18: workload failed to exercise both guide and value probes";
  row "%-24s %12s %14s %14s %12s\n" "configuration" "wall ms" "guide probes"
    "value probes" "walks";
  row "%-24s %12.1f %14d %14d %12d\n" "indexes off" ms_off 0 0 miss_off;
  row "%-24s %12.1f %14d %14d %12d\n" "indexes auto" ms_on guide_on value_on
    miss_on;
  row "index bytes: %d; speedup: %.1fx over %d rounds\n" bytes_on
    (ms_off /. ms_on) repeat;
  if ms_off < 2.0 *. ms_on then
    failwith
      (Printf.sprintf "E18: expected >= 2x real-time speedup, got %.2fx"
         (ms_off /. ms_on));
  (* Byte-identical answers from every engine, indexed and not. *)
  let engines =
    [
      ("tuple", Alg_exec.Tuple);
      ("parallel(domains=1)", Alg_exec.Parallel { domains = 1; chunk = 256 });
      ("parallel(domains=2)", Alg_exec.Parallel { domains = 2; chunk = 128 });
    ]
  in
  List.iter
    (fun (label, m) ->
      List.iter
        (fun mode ->
          Idx_manager.clear ();
          Idx_manager.set_mode mode;
          let cat = make_cat () in
          Med_catalog.set_exec_mode cat m;
          if transcript cat <> ans_off then
            failwith
              (Printf.sprintf "E18: answers diverged under %s engine (%s)" label
                 (Idx_manager.mode_to_string mode)))
        [ Idx_manager.Off; Idx_manager.Eager ])
    engines;
  row "answers identical across off/auto/eager and tuple/parallel (1, 2 domains): yes\n";
  Idx_manager.clear ();
  Idx_manager.set_mode Idx_manager.Auto;
  Bench_json.note_param "products" (string_of_int nprod);
  Bench_json.note_param "rounds" (string_of_int repeat);
  Bench_json.note_param "off_ms" (Printf.sprintf "%.1f" ms_off);
  Bench_json.note_param "auto_ms" (Printf.sprintf "%.1f" ms_on);
  Bench_json.note_param "speedup" (Printf.sprintf "%.1f" (ms_off /. ms_on));
  Bench_json.note_param "guide_probes" (string_of_int guide_on);
  Bench_json.note_param "value_probes" (string_of_int value_on);
  Bench_json.note_param "index_bytes" (string_of_int bytes_on);
  Bench_json.note_param "identical" "yes";
  Bench_json.note_rows (2 * repeat)

(* ------------------------------------------------------------------ *)
(* E19: fault injection — availability sweep with retries on/off, and  *)
(* breaker fail-fast vs naive per-fragment retry timeouts              *)
(* ------------------------------------------------------------------ *)

let e19 () =
  section "E19"
    "fault injection: completeness & virtual time vs availability, breaker fail-fast";
  let rows = if !quick then 40 else 200 in
  let queries = if !quick then 25 else 100 in
  let q =
    Xq_parser.parse_exn
      {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers", $t = 1
        CONSTRUCT <c>$n</c>|}
  in
  (* Backoff 15/30ms outlasts every transient window the schedule below
     generates at availability >= 0.7 (window <= 12ms per 40ms period). *)
  let retry_policy =
    {
      Src_retry.default_policy with
      max_retries = 2;
      base_backoff_ms = 15.0;
      max_backoff_ms = 60.0;
      jitter = 0.0;
    }
  in
  (* One configuration = fresh federation under a seeded transient
     schedule; [queries] partial-mode queries separated by 13ms of
     think time.  Virtual cost counts only query time (retries,
     backoffs, latencies), not the think time. *)
  let run_config ~availability ~retries =
    Bench_json.reset_virtual ();
    let faults =
      Net_sim.availability_schedule ~seed:7 ~availability ~period_ms:40.0
        ~horizon_ms:1.0e7
    in
    let cat = Med_catalog.create () in
    let src, _ =
      Net_sim.wrap ~seed:7 ~faults Net_sim.default_profile
        (Rel_source.make (Workloads.customer_db (Prng.create 191) ~name:"crm" ~rows))
    in
    Med_catalog.register_source cat src;
    if retries then Med_catalog.set_retry_policy cat retry_policy;
    let compiled = Med_exec.compile cat q in
    let complete = ref 0 and vms = ref 0.0 in
    for _ = 1 to queries do
      let v0 = Obs_clock.virtual_ms () in
      let r = Med_exec.run_compiled_partial cat compiled in
      vms := !vms +. (Obs_clock.virtual_ms () -. v0);
      if r.Med_exec.skipped_sources = [] then incr complete;
      Obs_clock.advance 13.0
    done;
    (100.0 *. float_of_int !complete /. float_of_int queries, !vms)
  in
  row "%-14s %14s %14s %14s %14s\n" "availability" "complete(off)" "vms(off)"
    "complete(on)" "vms(on)";
  List.iter
    (fun availability ->
      let c_off, v_off = run_config ~availability ~retries:false in
      let c_on, v_on = run_config ~availability ~retries:true in
      row "%-14.1f %13.0f%% %14.1f %13.0f%% %14.1f\n" availability c_off v_off c_on
        v_on;
      (* The acceptance bar: a 2-retry budget recovers every fragment of
         every query when windows are short enough to outlast. *)
      if (availability = 0.7 || availability = 0.9) && c_on < 100.0 then
        failwith
          (Printf.sprintf
             "E19: retries-on completeness %.0f%% at availability %.1f (expected \
              100%%)"
             c_on availability);
      Bench_json.note_param
        (Printf.sprintf "a%.1f" availability)
        (Printf.sprintf "off %.0f%%/%.1fms on %.0f%%/%.1fms" c_off v_off c_on v_on))
    [ 1.0; 0.9; 0.7; 0.5 ];
  (* Breaker fail-fast: against a persistently dead source, naive
     per-fragment retry timeouts pay latency plus backoff on every
     query; a breaker pays them once, then fails fast. *)
  let dead_run ~breaker =
    Bench_json.reset_virtual ();
    let cat = Med_catalog.create () in
    let src, _ =
      Net_sim.wrap ~seed:7
        ~faults:[ Net_sim.persistently_offline ]
        Net_sim.default_profile
        (Rel_source.make (Workloads.customer_db (Prng.create 192) ~name:"crm" ~rows))
    in
    Med_catalog.register_source cat src;
    Med_catalog.set_retry_policy cat
      { retry_policy with breaker; breaker_threshold = 3; breaker_cooldown_ms = 1.0e6 };
    let compiled = Med_exec.compile cat q in
    let v0 = Obs_clock.virtual_ms () in
    for _ = 1 to queries do
      ignore (Med_exec.run_compiled_partial cat compiled)
    done;
    Obs_clock.virtual_ms () -. v0
  in
  let v_naive = dead_run ~breaker:false in
  let v_breaker = dead_run ~breaker:true in
  row "dead source, %d queries: naive %.1f virtual ms, breaker %.1f virtual ms (%.0fx)\n"
    queries v_naive v_breaker (v_naive /. Float.max v_breaker 0.001);
  if v_breaker >= v_naive then
    failwith "E19: breaker fail-fast did not cut virtual time";
  Bench_json.note_param "naive_virtual_ms" (Printf.sprintf "%.1f" v_naive);
  Bench_json.note_param "breaker_virtual_ms" (Printf.sprintf "%.1f" v_breaker);
  Bench_json.note_param "queries" (string_of_int queries);
  Bench_json.note_param "retries" (string_of_int retry_policy.Src_retry.max_retries);
  Bench_json.note_rows queries

(* ------------------------------------------------------------------ *)
(* E20: projected XML fetches — what a path access ships               *)
(* ------------------------------------------------------------------ *)

let e20 () =
  section "E20"
    "projected XML fetches: nodes shipped per bound and per unbound catalog fetch";
  let ncat = if !quick then 10 else 40 in
  let per_cat = if !quick then 20 else 50 in
  let nstores = 20 in
  let nsales = if !quick then 80 else 200 in
  let g = Prng.create 200 in
  let sku p = Printf.sprintf "S%05d" p in
  (* The benchmark's catalog shape: products dealt round-robin to
     categories, each with a name and a price the queries read and a
     stock count they never do. *)
  let catalog =
    Dtree.node "catalog"
      (List.init ncat (fun c ->
           Dtree.node
             ~attrs:[ ("name", Value.String (Printf.sprintf "c%d" (c + 1))) ]
             "category"
             (List.init per_cat (fun k ->
                  let p = (k * ncat) + c + 1 in
                  Dtree.node ~attrs:[ ("sku", Value.String (sku p)) ] "product"
                    [ Dtree.leaf "name" (Value.String (Printf.sprintf "item %d" p));
                      Dtree.leaf "price" (Value.Int (1 + Prng.int g 500));
                      Dtree.leaf "stock" (Value.Int (Prng.int g 100)) ]))))
  in
  let sales =
    List.init nsales (fun i ->
        (i + 1, 1 + Prng.int g nstores, 1 + Prng.int g (ncat * per_cat), 10 + Prng.int g 2000))
  in
  let till = Rel_db.create ~name:"till" () in
  ignore (Rel_db.exec till "CREATE TABLE sales (sid INT PRIMARY KEY, store INT, sku TEXT, revenue INT)");
  ignore
    (Rel_db.exec till
       ("INSERT INTO sales VALUES "
       ^ String.concat ", "
           (List.map
              (fun (sid, store, p, revenue) ->
                Printf.sprintf "(%d, %d, '%s', %d)" sid store (sku p) revenue)
              sales)));
  let shelf_src, shelf =
    Net_sim.wrap Net_sim.default_profile (Xml_source.make ~name:"shelf" [ ("catalog", catalog) ])
  in
  let cat = Med_catalog.create () in
  Med_catalog.register_source cat (Rel_source.make till);
  Med_catalog.register_source cat shelf_src;
  Med_catalog.define_view_text cat "sold"
    {|WHERE <row><sid>$i</sid><store>$st</store><sku>$s</sku><revenue>$v</revenue></row> IN "till.sales"
      CONSTRUCT <sd><sid>$i</sid><store>$st</store><sku>$s</sku><revenue>$v</revenue></sd>|};
  Med_catalog.define_view_text cat "prod"
    {|WHERE <category name=$k><product sku=$s><name>$n</name><price>$p</price></product></category> IN "shelf.catalog"
      CONSTRUCT <prod><sku>$s</sku><cat>$k</cat><name>$n</name><price>$p</price></prod>|};
  let norm trees = List.sort compare (List.map Dtree.to_string trees) in
  (* Run one query, returning the nodes and calls it cost the shelf and
     its answer count; the answers must be the reference evaluator's. *)
  let fetch label text =
    let q = Xq_parser.parse_exn text in
    Net_sim.reset shelf;
    let answers = Med_exec.run cat q in
    let nodes = shelf.Net_sim.tuples_shipped and calls = shelf.Net_sim.calls in
    if norm answers <> norm (Xq_eval.eval (Med_exec.direct_resolver cat) q) then
      failwith (Printf.sprintf "E20: %s answers differ from the reference" label);
    (nodes, calls, List.length answers)
  in
  let size_of_category c =
    match List.nth_opt (Dtree.kids catalog) c with Some t -> Dtree.size t | None -> 0
  in
  (* Bound: one store's sales joined to [prod], whose path access ships
     the store's skus as keys.  A whole-subtree fetch would ship every
     category holding a key. *)
  let bound =
    List.init nstores (fun i ->
        let store = i + 1 in
        let text =
          Printf.sprintf
            {|WHERE <sd><sid>$i</sid><store>"%d"</store><sku>$s</sku><revenue>$v</revenue></sd> IN "sold",
                    <prod><sku>$s</sku><name>$n</name><price>$p</price></prod> IN "prod"
              CONSTRUCT <line><sid>$i</sid><name>$n</name><price>$p</price></line>|}
            store
        in
        let plan = Med_planner.compile cat (Xq_parser.parse_exn text) in
        if
          not
            (List.exists
               (function _, Med_planner.A_view { bind = Some _; _ } -> true | _ -> false)
               plan.Med_planner.accesses)
        then failwith "E20: the product view is not bound";
        let keys =
          List.sort_uniq compare
            (List.filter_map (fun (_, st, p, _) -> if st = store then Some p else None) sales)
        in
        let cats = List.sort_uniq compare (List.map (fun p -> (p - 1) mod ncat) keys) in
        let nodes, calls, answers = fetch (Printf.sprintf "store %d" store) text in
        (nodes, calls, answers, List.length keys, List.fold_left (fun acc c -> acc + size_of_category c) 0 cats))
  in
  (* Unbound: one category's products, as the shop lens asks. *)
  let unbound =
    List.init ncat (fun c ->
        let text =
          Printf.sprintf
            {|WHERE <category name="c%d"><product sku=$s><name>$n</name><price>$p</price></product></category> IN "shelf.catalog"
              CONSTRUCT <p><sku>$s</sku><name>$n</name><price>$p</price></p>|}
            (c + 1)
        in
        let nodes, calls, answers = fetch (Printf.sprintf "category c%d" (c + 1)) text in
        (nodes, calls, answers, per_cat, size_of_category c))
  in
  let summarize rows =
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
    let fetches = sum (fun (_, calls, _, _, _) -> calls) in
    let per_fetch n = float_of_int n /. float_of_int (max 1 fetches) in
    ( fetches,
      per_fetch (sum (fun (nodes, _, _, _, _) -> nodes)),
      per_fetch (sum (fun (_, _, _, _, whole) -> whole)),
      float_of_int (sum (fun (nodes, _, _, _, _) -> nodes))
      /. float_of_int (max 1 (sum (fun (_, _, _, products, _) -> products))),
      sum (fun (_, _, answers, _, _) -> answers) )
  in
  let b_fetches, b_nodes, b_whole, b_per_product, b_answers = summarize bound in
  let u_fetches, u_nodes, u_whole, u_per_product, u_answers = summarize unbound in
  row "%-26s %8s %12s %18s %10s %14s\n" "fetch" "fetches" "nodes/fetch" "whole nodes/fetch"
    "shipped" "nodes/product";
  List.iter
    (fun (label, fetches, nodes, whole, per_product) ->
      row "%-26s %8d %12.1f %18.1f %9.0f%% %14.2f\n" label fetches nodes whole
        (100.0 *. nodes /. whole) per_product)
    [ ("bound prod (sku keys)", b_fetches, b_nodes, b_whole, b_per_product);
      ("unbound category", u_fetches, u_nodes, u_whole, u_per_product) ];
  row "answers identical to the reference evaluator: yes (%d bound, %d unbound)\n" b_answers
    u_answers;
  if b_nodes >= b_whole || u_nodes >= u_whole then
    failwith "E20: a projected fetch shipped no fewer nodes than the whole subtree";
  Bench_json.note_param "categories" (string_of_int ncat);
  Bench_json.note_param "products_per_category" (string_of_int per_cat);
  Bench_json.note_param "bound_fetches" (string_of_int b_fetches);
  Bench_json.note_param "bound_nodes_per_fetch" (Printf.sprintf "%.1f" b_nodes);
  Bench_json.note_param "bound_whole_nodes_per_fetch" (Printf.sprintf "%.1f" b_whole);
  Bench_json.note_param "bound_nodes_per_matching_product" (Printf.sprintf "%.2f" b_per_product);
  Bench_json.note_param "category_fetches" (string_of_int u_fetches);
  Bench_json.note_param "category_nodes_per_fetch" (Printf.sprintf "%.1f" u_nodes);
  Bench_json.note_param "category_whole_nodes_per_fetch" (Printf.sprintf "%.1f" u_whole);
  Bench_json.note_param "identical" "yes";
  Bench_json.note_rows (b_answers + u_answers)

let all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e4b ();
  e5 ();
  e5b ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ()
