(* The semantic fragment cache: predicate containment, probe/remainder
   splitting, canonical fragment keys, admission/eviction, two-level
   invalidation — and the headline property that turning the cache on
   never changes an answer, on any execution engine. *)

let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let check = Alcotest.check
let q = Xq_parser.parse_exn
let e s = Sql_parser.parse_expr_exn s
let an s = Sem_pred.analyze (Some (e s))
let contains outer inner = Sem_pred.contains ~outer ~inner

(* ------------------------------------------------------------------ *)
(* Sem_pred: containment, overlap, remainder                           *)
(* ------------------------------------------------------------------ *)

let test_pred_tautology () =
  let top = Sem_pred.analyze None in
  check bool_t "no WHERE contains everything" true (contains top (an "id <= 5"));
  check bool_t "a range does not contain the tautology" false
    (contains (an "id <= 5") top);
  check bool_t "tautology contains itself" true (contains top top)

let test_pred_ranges () =
  check bool_t "narrow within wide" true
    (contains (an "id <= 100") (an "id <= 50"));
  check bool_t "wide not within narrow" false
    (contains (an "id <= 50") (an "id <= 100"));
  check bool_t "strict vs inclusive bound" true
    (contains (an "id <= 50") (an "id < 50"));
  check bool_t "inclusive not within strict" false
    (contains (an "id < 50") (an "id <= 50"));
  check bool_t "two-sided within one-sided" true
    (contains (an "id > 10") (an "id > 20 AND id < 30"));
  check bool_t "between within range" true
    (contains (an "id >= 1 AND id <= 100") (an "id BETWEEN 2 AND 99"));
  check bool_t "IN-list within range" true
    (contains (an "id BETWEEN 1 AND 10") (an "id IN (2, 3)"));
  check bool_t "IN-list escaping the range" false
    (contains (an "id BETWEEN 1 AND 10") (an "id IN (2, 30)"));
  check bool_t "equality within range" true
    (contains (an "tier >= 1") (an "tier = 2"))

let test_pred_disjoint () =
  check bool_t "disjoint ranges do not overlap" false
    (Sem_pred.overlaps (an "id < 5") (an "id > 10"));
  check bool_t "touching closed bounds overlap" true
    (Sem_pred.overlaps (an "id <= 5") (an "id >= 5"));
  check bool_t "different columns always may overlap" true
    (Sem_pred.overlaps (an "id < 5") (an "tier > 10"));
  check bool_t "unsat analyzes as unsat" true (an "id = 1 AND id = 2").Sem_pred.unsat;
  check bool_t "unsat inner is contained in anything" true
    (contains (an "id > 1000") (an "id = 1 AND id = 2"))

let test_pred_opaque () =
  check bool_t "opaque conjunct matches itself" true
    (contains (an "name LIKE 'a%'") (an "name LIKE 'a%' AND id < 5"));
  check bool_t "opaque conjunct missing from inner" false
    (contains (an "name LIKE 'a%'") (an "id < 5"));
  check bool_t "opaque never proves disjointness" true
    (Sem_pred.overlaps (an "name LIKE 'a%'") (an "name LIKE 'b%'"))

let test_pred_remainder () =
  (* remainder = q AND (NOT p OR p-columns NULL): evaluating it with
     Sql_eval against concrete rows partitions correctly. *)
  let p = e "id <= 10" and qq = e "id <= 20" in
  match Sem_pred.remainder ~cached:(Some p) (Some qq) with
  | None -> Alcotest.fail "expected a remainder predicate"
  | Some r ->
    let holds expr row = Sql_eval.eval_pred row expr in
    let row v = Tuple.make [ ("id", v) ] in
    check bool_t "inside the extent: excluded" false (holds r (row (Value.Int 5)));
    check bool_t "outside the extent: included" true (holds r (row (Value.Int 15)));
    check bool_t "outside q: excluded" false (holds r (row (Value.Int 25)));
    (* a null id fails q itself, so neither probe nor remainder keeps it *)
    check bool_t "null row excluded (fails q)" false (holds r (row Value.Null));
    (match Sem_pred.probe_filter ~cached:(Some p) (Some qq) with
    | None -> Alcotest.fail "expected a probe filter"
    | Some pf ->
      (* the probe runs over extent rows (all satisfy p): it keeps those
         satisfying q with non-null p-columns *)
      check bool_t "probe keeps matching cached rows" true (holds pf (row (Value.Int 5)));
      check bool_t "probe drops rows outside q" false (holds pf (row (Value.Int 25)));
      check bool_t "probe drops null p-columns" false (holds pf (row Value.Null)))

(* ------------------------------------------------------------------ *)
(* Canonical fragment keys (satellite)                                 *)
(* ------------------------------------------------------------------ *)

let test_canonical_alias_renaming () =
  let a =
    Sql_parser.parse_select_exn
      "SELECT x.id, x.name FROM customers AS x WHERE x.id < 5 AND x.tier = 1"
  in
  let b =
    Sql_parser.parse_select_exn
      "SELECT y.id, y.name FROM customers AS y WHERE y.tier = 1 AND y.id < 5"
  in
  check string_t "alias-renamed + conjunct-reordered renderings agree"
    (Sql_print.canonical_select a) (Sql_print.canonical_select b);
  let c =
    Sql_parser.parse_select_exn
      "SELECT y.id, y.name FROM customers AS y WHERE y.tier = 2 AND y.id < 5"
  in
  check bool_t "different predicates stay distinct" true
    (Sql_print.canonical_select a <> Sql_print.canonical_select c)

let test_canonical_self_join () =
  let s =
    Sql_parser.parse_select_exn
      "SELECT a.id, b.id FROM customers AS a, customers AS b WHERE a.id = b.id"
  in
  let canon = Sql_print.canonical_select s in
  check bool_t "self-join arms get distinct positions" true
    (let t0 = ref false and t1 = ref false in
     String.iteri
       (fun i ch ->
         if ch = 't' && i + 1 < String.length canon then begin
           if canon.[i + 1] = '0' then t0 := true;
           if canon.[i + 1] = '1' then t1 := true
         end)
       canon;
     !t0 && !t1)

(* ------------------------------------------------------------------ *)
(* Sem_entry / Sem_cache mechanics                                     *)
(* ------------------------------------------------------------------ *)

let entry ?(source = "crm") ?(key = "k") ?(where = Some (e "id <= 10")) nrows =
  let rows =
    List.init nrows (fun i ->
        Tuple.make [ ("id", Value.Int i); ("name", Value.String "x") ])
  in
  Sem_entry.make ~source ~scope:"SELECT * FROM customers" ~exports:[ "crm.customers" ]
    ~where
    ~colmap:[ ((None, "id"), "id"); ((None, "name"), "name") ]
    ~columns:[ "id"; "name" ] ~rows ~key

let test_entry_order_detection () =
  let asc = entry 5 in
  check bool_t "ascending id detected" true (asc.Sem_entry.entry_order_col = Some "id");
  let rows =
    [ Tuple.make [ ("id", Value.Int 3) ]; Tuple.make [ ("id", Value.Int 1) ] ]
  in
  check bool_t "descending column rejected" true
    (Sem_entry.detect_order_col [ "id" ] rows = None);
  let dup =
    [ Tuple.make [ ("id", Value.Int 1) ]; Tuple.make [ ("id", Value.Int 1) ] ]
  in
  check bool_t "ties rejected (strictness)" true
    (Sem_entry.detect_order_col [ "id" ] dup = None)

let test_entry_projection_mismatch () =
  let ent = entry 3 in
  check bool_t "covers its own columns" true
    (Sem_entry.covers ent [ (None, "id"); (None, "name") ]);
  check bool_t "does not cover a missing column" false
    (Sem_entry.covers ent [ (None, "balance") ])

let test_cache_disabled_refuses () =
  let c = Sem_cache.create () in
  check bool_t "disabled cache refuses admission" false (Sem_cache.admit c (entry 3));
  check int_t "nothing resident" 0 (Sem_cache.entry_count c)

let test_cache_eviction_order () =
  let small = entry ~key:"a" 2 and hot = entry ~key:"b" 2 in
  let budget = small.Sem_entry.entry_bytes + hot.Sem_entry.entry_bytes in
  let c = Sem_cache.create ~budget_bytes:budget () in
  check bool_t "admit a" true (Sem_cache.admit c small);
  check bool_t "admit b" true (Sem_cache.admit c hot);
  hot.Sem_entry.entry_hits <- 5;
  (* a third entry must displace the cold resident, not the hot one *)
  let third = entry ~key:"c" 2 in
  check bool_t "admit c evicts someone" true (Sem_cache.admit c third);
  let keys =
    List.map
      (fun en -> en.Sem_entry.entry_key)
      (Sem_cache.entries c ~source:"crm" ~scope:"SELECT * FROM customers")
  in
  check bool_t "hot entry survived" true (List.mem "b" keys);
  check bool_t "cold entry evicted" false (List.mem "a" keys);
  (* a newcomer colder than every resident is refused *)
  hot.Sem_entry.entry_hits <- 50;
  third.Sem_entry.entry_hits <- 50;
  check bool_t "cold newcomer refused against hot residents" false
    (Sem_cache.admit c (entry ~key:"d" 2));
  check bool_t "oversized entry refused outright" false
    (Sem_cache.admit (Sem_cache.create ~budget_bytes:8 ()) (entry ~key:"e" 100))

let test_cache_invalidation () =
  let c = Sem_cache.create ~budget_bytes:1_000_000 () in
  ignore (Sem_cache.admit c (entry ~key:"a" 2));
  ignore (Sem_cache.admit c (entry ~key:"b" ~source:"ext" 2));
  check int_t "invalidate by source name" 1 (Sem_cache.invalidate_name c "ext");
  check int_t "invalidate by export prefix" 1 (Sem_cache.invalidate_name c "crm");
  check int_t "cache emptied" 0 (Sem_cache.entry_count c);
  ignore (Sem_cache.admit c (entry ~key:"a" 2));
  Sem_cache.set_budget c 0;
  check bool_t "budget 0 disables and clears" true
    ((not (Sem_cache.enabled c)) && Sem_cache.entry_count c = 0)

(* ------------------------------------------------------------------ *)
(* Mat_select: exhaustive-search cap (satellite)                       *)
(* ------------------------------------------------------------------ *)

let test_select_optimal_cap () =
  let cand i =
    {
      Mat_select.cand_view = Printf.sprintf "v%02d" i;
      storage = 1 + (i mod 3);
      virtual_cost = 10.0 +. float_of_int i;
      local_cost = 1.0;
    }
  in
  let many = List.init (Mat_select.optimal_candidate_cap + 5) cand in
  let workload = List.map (fun c -> (c.Mat_select.cand_view, 3)) many in
  let t0 = Unix.gettimeofday () in
  let capped = Mat_select.select_optimal ~budget:10 many workload in
  check bool_t "over the cap answers fast (greedy fallback)" true
    (Unix.gettimeofday () -. t0 < 5.0);
  let greedy = Mat_select.select ~budget:10 many workload in
  check bool_t "over the cap matches the greedy selection" true
    (capped.Mat_select.chosen = greedy.Mat_select.chosen);
  (* under the cap the exhaustive search still runs (and can beat greedy) *)
  let few = List.init 6 cand in
  let wl = List.map (fun c -> (c.Mat_select.cand_view, 3)) few in
  let opt = Mat_select.select_optimal ~budget:4 few wl in
  let gre = Mat_select.select ~budget:4 few wl in
  check bool_t "small inputs: optimal at least as good" true
    (opt.Mat_select.total_benefit >= gre.Mat_select.total_benefit)

(* ------------------------------------------------------------------ *)
(* End-to-end fixtures                                                 *)
(* ------------------------------------------------------------------ *)

let make_customer_db ~name ~rows =
  let db = Rel_db.create ~name () in
  ignore
    (Rel_db.exec db
       "CREATE TABLE customers (id INT, name TEXT, tier INT, balance FLOAT)");
  ignore (Rel_db.exec db "CREATE TABLE orders (cust_id INT, amount INT)");
  for i = 1 to rows do
    ignore
      (Rel_db.exec db
         (Printf.sprintf "INSERT INTO customers VALUES (%d, 'c%d', %d, %g)" i i
            (1 + (i mod 3))
            (float_of_int (i * 7))))
  done;
  for i = 1 to rows do
    ignore
      (Rel_db.exec db
         (Printf.sprintf "INSERT INTO orders VALUES (%d, %d)" i ((i * 13) mod 500)))
  done;
  db

let render trees = String.concat "\n" (List.map Dtree.to_string trees)

let q_le k =
  q
    (Printf.sprintf
       {|WHERE <row><id>$i</id><name>$n</name><balance>$b</balance></row> IN "crm.customers",
              $i <= %d
         CONSTRUCT <c><i>$i</i><n>$n</n><b>$b</b></c>|}
       k)

let test_sem_full_hit_ships_nothing () =
  let cat = Med_catalog.create ~sem_budget_bytes:(1 lsl 20) () in
  let wrapped, stats =
    Net_sim.wrap ~seed:3 Net_sim.default_profile
      (Rel_source.make (make_customer_db ~name:"crm" ~rows:40))
  in
  Med_catalog.register_source cat wrapped;
  let cold = Med_exec.run cat (q_le 30) in
  let shipped_cold = stats.Net_sim.tuples_shipped in
  let warm = Med_exec.run cat (q_le 20) in
  check int_t "warm contained query ships nothing" shipped_cold
    stats.Net_sim.tuples_shipped;
  check int_t "cold rows" 30 (List.length cold);
  check int_t "warm rows" 20 (List.length warm);
  let st = Sem_cache.stats (Med_catalog.sem_cache cat) in
  check int_t "one full hit" 1 st.Sem_cache.sem_hits;
  check int_t "one miss" 1 st.Sem_cache.sem_misses

let test_sem_partial_ships_remainder () =
  let cat = Med_catalog.create ~sem_budget_bytes:(1 lsl 20) () in
  let wrapped, stats =
    Net_sim.wrap ~seed:3 Net_sim.default_profile
      (Rel_source.make (make_customer_db ~name:"crm" ~rows:40))
  in
  Med_catalog.register_source cat wrapped;
  ignore (Med_exec.run cat (q_le 20));
  let shipped_cold = stats.Net_sim.tuples_shipped in
  let wide = Med_exec.run cat (q_le 30) in
  check int_t "widened query has the full answer" 30 (List.length wide);
  check int_t "only the remainder shipped" (shipped_cold + 10)
    stats.Net_sim.tuples_shipped;
  let st = Sem_cache.stats (Med_catalog.sem_cache cat) in
  check int_t "one partial hit" 1 st.Sem_cache.sem_partials;
  (* 20 rows shipped by the cold miss + only 10 by the remainder *)
  check int_t "shipped rows accounted" 30 st.Sem_cache.sem_rows_shipped;
  check int_t "probe rows answered locally" 20 st.Sem_cache.sem_rows_local

let test_sem_answers_while_source_offline () =
  (* A warm semantic cache keeps answering a contained query after its
     source goes away — same contract as the exact-key fragment cache. *)
  let cat = Med_catalog.create ~sem_budget_bytes:(1 lsl 20) () in
  Med_catalog.register_source cat
    (Rel_source.make (make_customer_db ~name:"crm" ~rows:30));
  ignore (Med_exec.run cat (q_le 25));
  let reg = Med_catalog.registry cat in
  (match Src_registry.find reg "crm" with
  | None -> Alcotest.fail "source vanished"
  | Some src ->
    Src_registry.remove reg "crm";
    Src_registry.register reg
      {
        src with
        Source.is_available = (fun () -> false);
        execute = (fun _ -> raise (Source.Unavailable "crm"));
        documents = (fun _ -> raise (Source.Unavailable "crm"));
      });
  let warm = Med_exec.run cat (q_le 10) in
  check int_t "contained query answered from the extent" 10 (List.length warm);
  (* ...until invalidation drops the extent; then the outage shows. *)
  Med_catalog.notify_invalidation cat "crm";
  check bool_t "after invalidation the outage is visible" true
    (match Med_exec.run cat (q_le 10) with
    | _ -> false
    | exception Source.Unavailable _ -> true
    | exception Alg_exec.Source_unavailable _ -> true)

(* ------------------------------------------------------------------ *)
(* Property: semantic cache on == off, all engines, strict + partial   *)
(* ------------------------------------------------------------------ *)

let modes =
  [
    Alg_exec.Tuple;
    Alg_exec.Parallel { domains = 1; chunk = 4 };
    Alg_exec.Parallel { domains = 2; chunk = 3 };
  ]

let prop_sem_cache_transparent =
  QCheck2.Test.make ~name:"semantic cache on = off (all engines)" ~count:25
    QCheck2.Gen.(
      triple (int_range 0 25) (int_range 0 20_000) bool)
    (fun (nrows, budget, ext_up) ->
      (* two federations over identical data; only the sem budget differs *)
      let build ~sem_budget_bytes =
        let cat = Med_catalog.create ~sem_budget_bytes () in
        Med_catalog.register_source cat
          (Rel_source.make (make_customer_db ~name:"crm" ~rows:nrows));
        let ext = Rel_db.create ~name:"ext" () in
        ignore (Rel_db.exec ext "CREATE TABLE people (id INT, name TEXT)");
        for i = 1 to nrows do
          ignore
            (Rel_db.exec ext (Printf.sprintf "INSERT INTO people VALUES (%d, 'p%d')" i i))
        done;
        let wrapped, _ =
          Net_sim.wrap ~seed:11
            {
              Net_sim.default_profile with
              Net_sim.availability = (if ext_up then 1.0 else 0.0);
            }
            (Rel_source.make ext)
        in
        Med_catalog.register_source cat wrapped;
        cat
      in
      let cat_off = build ~sem_budget_bytes:0 in
      let cat_on = build ~sem_budget_bytes:budget in
      let q_range a b =
        q
          (Printf.sprintf
             {|WHERE <row><id>$i</id><name>$n</name><balance>$b</balance></row> IN "crm.customers",
                    $i > %d, $i <= %d
               CONSTRUCT <c><i>$i</i><n>$n</n><b>$b</b></c>|}
             a b)
      in
      let q_join =
        q
          {|WHERE <row><id>$i</id><tier>$t</tier></row> IN "crm.customers",
                 <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "crm.orders",
                 $t >= 2, $a < 400
            CONSTRUCT <j><i>$i</i><a>$a</a></j>|}
      in
      let q_ext =
        q
          {|WHERE <row><id>$i</id><name>$n</name></row> IN "ext.people", $i <= 10
            CONSTRUCT <p><n>$n</n></p>|}
      in
      let sweep =
        [
          q_le (2 * nrows / 3);
          q_le (nrows / 2);
          q_range (nrows / 4) (3 * nrows / 4);
          q_range (nrows / 4) (3 * nrows / 4);
          q_le (nrows / 3);
          q_join;
          q_join;
        ]
      in
      let strict cat query =
        match Med_exec.run cat query with
        | trees -> Ok (render trees)
        | exception Source.Unavailable s -> Error ("source:" ^ s)
        | exception Alg_exec.Source_unavailable s -> Error ("plan:" ^ s)
      in
      let partial cat query =
        let trees, skipped = Med_exec.run_partial cat query in
        (render trees, List.sort compare skipped)
      in
      let agree query =
        strict cat_off query = strict cat_on query
        && partial cat_off query = partial cat_on query
      in
      let all_agree () =
        List.for_all
          (fun mode ->
            Med_catalog.set_exec_mode cat_off mode;
            Med_catalog.set_exec_mode cat_on mode;
            List.for_all agree sweep && agree q_ext)
          modes
      in
      let before = all_agree () in
      (* replace the base data identically on both sides, then invalidate:
         the warm side must not serve the stale extent *)
      let re_register cat =
        Src_registry.remove (Med_catalog.registry cat) "crm";
        Src_registry.register (Med_catalog.registry cat)
          (Rel_source.make (make_customer_db ~name:"crm" ~rows:(nrows + 3)));
        Med_catalog.notify_invalidation cat "crm"
      in
      re_register cat_off;
      re_register cat_on;
      let after = all_agree () in
      before && after)

(* ------------------------------------------------------------------ *)
(* Metrics hygiene: semcache.* family                                  *)
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

let test_semcache_metrics_hygiene () =
  (* Drive hit, partial, miss, invalidation so the counters register. *)
  let cat = Med_catalog.create ~sem_budget_bytes:(1 lsl 20) () in
  Med_catalog.register_source cat
    (Rel_source.make (make_customer_db ~name:"crm" ~rows:20));
  ignore (Med_exec.run cat (q_le 15));
  ignore (Med_exec.run cat (q_le 10));
  ignore (Med_exec.run cat (q_le 18));
  Med_catalog.notify_invalidation cat "crm";
  let names = Obs_metrics.names () in
  let sem = List.filter (fun n -> String.starts_with ~prefix:"semcache." n) names in
  List.iter
    (fun n ->
      if not (well_formed n) then Alcotest.failf "ill-formed metric name: %s" n)
    sem;
  List.iter
    (fun n ->
      if not (List.mem n sem) then Alcotest.failf "semcache metric missing: %s" n)
    [
      "semcache.hits";
      "semcache.partial_hits";
      "semcache.misses";
      "semcache.admissions";
      "semcache.evictions";
      "semcache.invalidations";
      "semcache.rows_local";
      "semcache.rows_shipped";
      "semcache.order_fallbacks";
      "semcache.view_hits";
    ]

(* ------------------------------------------------------------------ *)
(* View containment (Mat_contain)                                      *)
(* ------------------------------------------------------------------ *)

let test_view_containment () =
  let sys = Nimble.create ~sem_budget_bytes:(1 lsl 20) () in
  (match
     Nimble.register_source sys (Rel_source.make (make_customer_db ~name:"crm" ~rows:30))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let define name text =
    match Nimble.define_view sys name text with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  define "wide"
    {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
           $i <= 25
      CONSTRUCT <c><i>$i</i><n>$n</n><t>$t</t></c>|};
  define "narrow"
    {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
           $i <= 25, $t = 2
      CONSTRUCT <c><i>$i</i><n>$n</n><t>$t</t></c>|};
  (match Nimble.materialize_view sys "wide" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* the reference answer, computed before the source is cut off *)
  let expected =
    match Nimble.query sys {|WHERE <c><i>$i</i><n>$n</n><t>$t</t></c> IN "narrow"
                             CONSTRUCT <c><i>$i</i><n>$n</n><t>$t</t></c>|} with
    | Ok trees -> render trees
    | Error m -> Alcotest.fail m
  in
  check bool_t "containment produced answers" true (expected <> "");
  let st = Sem_cache.stats (Nimble.sem_cache sys) in
  check bool_t "served by the subsuming materialized view" true
    (st.Sem_cache.sem_view_hits > 0);
  (* the filtered answer matches recomputing the view directly *)
  let direct =
    let cat = Med_catalog.create () in
    Med_catalog.register_source cat
      (Rel_source.make (make_customer_db ~name:"crm" ~rows:30));
    render
      (Med_exec.run_text cat
         {|WHERE <row><id>$i</id><name>$n</name><tier>$t</tier></row> IN "crm.customers",
                $i <= 25, $t = 2
           CONSTRUCT <c><i>$i</i><n>$n</n><t>$t</t></c>|})
  in
  check string_t "filtered extent = recomputed view" direct expected

let () =
  let props = List.map QCheck_alcotest.to_alcotest [ prop_sem_cache_transparent ] in
  Alcotest.run "semantic"
    [
      ( "sem_pred",
        [
          Alcotest.test_case "tautology" `Quick test_pred_tautology;
          Alcotest.test_case "ranges" `Quick test_pred_ranges;
          Alcotest.test_case "disjoint + unsat" `Quick test_pred_disjoint;
          Alcotest.test_case "opaque conjuncts" `Quick test_pred_opaque;
          Alcotest.test_case "remainder partition" `Quick test_pred_remainder;
        ] );
      ( "canonical_keys",
        [
          Alcotest.test_case "alias renaming" `Quick test_canonical_alias_renaming;
          Alcotest.test_case "self join" `Quick test_canonical_self_join;
        ] );
      ( "sem_cache",
        [
          Alcotest.test_case "order detection" `Quick test_entry_order_detection;
          Alcotest.test_case "projection mismatch" `Quick test_entry_projection_mismatch;
          Alcotest.test_case "disabled refuses" `Quick test_cache_disabled_refuses;
          Alcotest.test_case "eviction order" `Quick test_cache_eviction_order;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
        ] );
      ( "mat_select",
        [ Alcotest.test_case "optimal cap" `Quick test_select_optimal_cap ] );
      ( "rewrite",
        [
          Alcotest.test_case "full hit ships nothing" `Quick test_sem_full_hit_ships_nothing;
          Alcotest.test_case "partial ships remainder" `Quick
            test_sem_partial_ships_remainder;
          Alcotest.test_case "answers while offline" `Quick
            test_sem_answers_while_source_offline;
        ] );
      ("equivalence", props);
      ( "metrics",
        [ Alcotest.test_case "semcache.* hygiene" `Quick test_semcache_metrics_hygiene ] );
      ( "views",
        [ Alcotest.test_case "containment lookup" `Quick test_view_containment ] );
    ]
