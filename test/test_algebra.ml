(* Tests for the physical algebra: environments, expressions, and every
   operator of the plan language, including the algebraic laws the
   optimizer relies on. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let value_t = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

(* A fixed source function over small in-memory relations. *)
let people =
  [
    [ ("id", Value.Int 1); ("name", Value.String "Ann"); ("dept", Value.Int 10) ];
    [ ("id", Value.Int 2); ("name", Value.String "Bob"); ("dept", Value.Int 10) ];
    [ ("id", Value.Int 3); ("name", Value.String "Cid"); ("dept", Value.Int 20) ];
    [ ("id", Value.Int 4); ("name", Value.String "Dee"); ("dept", Value.Null) ];
  ]

let depts =
  [
    [ ("did", Value.Int 10); ("dname", Value.String "eng") ];
    [ ("did", Value.Int 20); ("dname", Value.String "sales") ];
    [ ("did", Value.Int 30); ("dname", Value.String "empty") ];
  ]

let xml_doc =
  Dtree.of_xml_element
    (Xml_parser.parse_element_exn
       "<bib><book year=\"1994\"><title>TCP</title><author>Stevens</author>\
        <author>Wright</author></book>\
        <book year=\"2000\"><title>DB</title><author>Ullman</author></book></bib>")

let sources name binding : Alg_env.t Seq.t =
  let rows =
    match name with
    | "people" -> people
    | "depts" -> depts
    | "bib" ->
      [ [] ] |> ignore;
      []
    | _ -> raise (Alg_exec.Source_unavailable name)
  in
  if name = "bib" then Seq.return (Alg_env.of_bindings [ (binding, xml_doc) ])
  else
    List.to_seq
      (List.map (fun fields -> Alg_env.of_bindings [ (binding, Dtree.of_tuple binding (Tuple.make fields)) ]) rows)

let run plan = Alg_exec.run_list sources plan

let open_scan name var = Alg_plan.Scan { source = name; binding = var }

(* $p/id etc. *)
let child var label = Alg_expr.Child (Alg_expr.Var var, label)

(* ------------------------------------------------------------------ *)
(* Env                                                                 *)
(* ------------------------------------------------------------------ *)

let test_env_basics () =
  let env = Alg_env.of_bindings [ ("x", Dtree.atom (Value.Int 1)) ] in
  check (Alcotest.option bool_t) "mem" (Some true) (Some (Alg_env.mem env "x"));
  check value_t "value_of bound" (Value.Int 1) (Alg_env.value_of env "x");
  check value_t "value_of unbound is null" Value.Null (Alg_env.value_of env "nope");
  let env2 = Alg_env.bind_value env "y" (Value.String "s") in
  check int_t "arity" 2 (Alg_env.arity env2);
  let p = Alg_env.project env2 [ "y"; "z" ] in
  check value_t "project pads null" Value.Null (Alg_env.value_of p "z")

let test_env_tuple_roundtrip () =
  let tup = Tuple.make [ ("a", Value.Int 1); ("b", Value.String "x") ] in
  let env = Alg_env.of_tuple tup in
  check bool_t "roundtrip" true (Tuple.equal tup (Alg_env.to_tuple env))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let book_env =
  Alg_env.of_bindings
    [ ("b", List.nth (Dtree.kids xml_doc) 0) ]

let test_expr_tree_access () =
  check value_t "child text" (Value.String "TCP") (Alg_expr.eval book_env (child "b" "title"));
  check value_t "attr" (Value.Int 1994)
    (Alg_expr.eval book_env (Alg_expr.Attr (Alg_expr.Var "b", "year")));
  check value_t "label" (Value.String "book")
    (Alg_expr.eval book_env (Alg_expr.Label (Alg_expr.Var "b")));
  check value_t "text concatenates" (Value.String "TCPStevensWright")
    (Alg_expr.eval book_env (Alg_expr.Text (Alg_expr.Var "b")));
  check value_t "missing child is null" Value.Null
    (Alg_expr.eval book_env (child "b" "publisher"))

let test_expr_three_valued () =
  let env = Alg_env.of_bindings [ ("x", Dtree.atom Value.Null) ] in
  let open Alg_expr in
  check value_t "null = 1 unknown" Value.Null (eval env (v "x" =% ci 1));
  check bool_t "pred drops unknown" false (eval_pred env (v "x" =% ci 1));
  check value_t "is_null" (Value.Bool true) (eval env (Is_null (v "x")))

let test_expr_free_vars () =
  let open Alg_expr in
  let e = (v "a" =% ci 1) &&% (Child (v "b", "x") <% v "a") in
  check (Alcotest.list string_t) "free vars" [ "a"; "b" ] (free_vars e)

(* ------------------------------------------------------------------ *)
(* Operators                                                           *)
(* ------------------------------------------------------------------ *)

let test_scan_select () =
  let open Alg_expr in
  let plan = Alg_plan.Select (open_scan "people" "p", child "p" "dept" =% ci 10) in
  check int_t "two in dept 10" 2 (List.length (run plan))

let test_project_extend () =
  let plan =
    Alg_plan.Project
      (Alg_plan.Extend (open_scan "people" "p", "nm", child "p" "name"), [ "nm" ])
  in
  let envs = run plan in
  check int_t "four rows" 4 (List.length envs);
  check value_t "name extracted" (Value.String "Ann") (Alg_env.value_of (List.hd envs) "nm")

let join_plans () =
  let lk = child "p" "dept" and rk = child "d" "did" in
  let left = open_scan "people" "p" and right = open_scan "depts" "d" in
  let open Alg_expr in
  [
    ("nl", Alg_plan.Nl_join { left; right; pred = Some (lk =% rk) });
    ("hash", Alg_plan.Hash_join { left; right; left_key = lk; right_key = rk; residual = None });
    ("merge", Alg_plan.Merge_join { left; right; left_key = lk; right_key = rk });
  ]

let test_join_algorithms_agree () =
  let results =
    List.map
      (fun (name, plan) ->
        let envs = run plan in
        let tuples =
          List.map (fun e -> Tuple.to_string (Alg_env.to_tuple (Alg_env.project e [ "p"; "d" ]))) envs
        in
        (name, List.sort String.compare tuples))
      (join_plans ())
  in
  match results with
  | [ (_, nl); (_, hash); (_, merge) ] ->
    check int_t "three matches (null dept drops)" 3 (List.length nl);
    check bool_t "hash = nl" true (hash = nl);
    check bool_t "merge = nl" true (merge = nl)
  | _ -> assert false

let test_dep_join () =
  let expand env =
    let dept = Alg_env.value_of env "dept_key" in
    ignore dept;
    Seq.return (Alg_env.of_bindings [ ("extra", Dtree.atom (Value.Int 99)) ])
  in
  let plan =
    Alg_plan.Dep_join
      { left = open_scan "people" "p"; label = "expand-per-row"; expand }
  in
  let envs = run plan in
  check int_t "one expansion per row" 4 (List.length envs);
  check value_t "bound" (Value.Int 99) (Alg_env.value_of (List.hd envs) "extra")

let test_sort_distinct_limit () =
  let key = child "p" "name" in
  let plan = Alg_plan.Sort (open_scan "people" "p", [ { Alg_plan.sort_key = key; ascending = false } ]) in
  let envs = run plan in
  check value_t "desc first" (Value.String "Dee") (Alg_expr.eval (List.hd envs) key);
  let plan = Alg_plan.Limit (plan, 2) in
  check int_t "limit" 2 (List.length (run plan));
  let dup_plan =
    Alg_plan.Distinct
      (Alg_plan.Project
         (Alg_plan.Extend (open_scan "people" "p", "d", child "p" "dept"), [ "d" ]))
  in
  check int_t "distinct depts (incl null)" 3 (List.length (run dup_plan))

let test_group_aggregates () =
  let plan =
    Alg_plan.Group
      {
        input = open_scan "people" "p";
        keys = [ ("dept", child "p" "dept") ];
        aggs =
          [
            ("n", Alg_plan.A_count);
            ("min_name", Alg_plan.A_min (child "p" "name"));
            ("ids", Alg_plan.A_collect (Alg_expr.Child (Alg_expr.Var "p", "id")));
          ];
      }
  in
  let envs = run plan in
  check int_t "three groups" 3 (List.length envs);
  let dept10 = List.find (fun e -> Alg_env.value_of e "dept" = Value.Int 10) envs in
  check value_t "count" (Value.Int 2) (Alg_env.value_of dept10 "n");
  check value_t "min" (Value.String "Ann") (Alg_env.value_of dept10 "min_name");
  match Alg_env.get dept10 "ids" with
  | Some collected -> check int_t "collected 2 ids" 2 (List.length (Dtree.kids collected))
  | None -> Alcotest.fail "expected collection"

let test_union_outer_union () =
  let a = Alg_plan.Extend (Alg_plan.Const_envs [ Alg_env.empty ], "x", Alg_expr.ci 1) in
  let b = Alg_plan.Extend (Alg_plan.Const_envs [ Alg_env.empty ], "y", Alg_expr.ci 2) in
  check int_t "union" 2 (List.length (run (Alg_plan.Union (a, b))));
  let envs = run (Alg_plan.Outer_union (a, b)) in
  check int_t "outer union rows" 2 (List.length envs);
  List.iter
    (fun e ->
      check (Alcotest.list string_t) "padded schema" [ "x"; "y" ] (Alg_env.vars e))
    envs;
  check value_t "missing y is null" Value.Null (Alg_env.value_of (List.hd envs) "y")

let test_navigate () =
  let path = Xml_path.parse_exn "//author" in
  let plan =
    Alg_plan.Navigate
      { input = Alg_plan.Const_envs [ Alg_env.of_bindings [ ("doc", xml_doc) ] ];
        var = "doc"; path; out = "a" }
  in
  let envs = run plan in
  check int_t "three authors" 3 (List.length envs);
  check value_t "first author" (Value.String "Stevens")
    (Alg_expr.eval (List.hd envs) (Alg_expr.Text (Alg_expr.Var "a")))

let test_unnest () =
  let plan =
    Alg_plan.Unnest
      { input = Alg_plan.Const_envs [ Alg_env.of_bindings [ ("doc", xml_doc) ] ];
        var = "doc"; label = Some "book"; out = "b" }
  in
  check int_t "two books" 2 (List.length (run plan))

let test_construct () =
  let template =
    Alg_plan.T_node
      ( "person",
        [ ("id", child "p" "id") ],
        [ Alg_plan.T_node ("who", [], [ Alg_plan.T_value (child "p" "name") ]) ] )
  in
  let plan = Alg_plan.Construct { input = open_scan "people" "p"; binding = "out"; template } in
  let envs = run plan in
  check int_t "four built" 4 (List.length envs);
  match Alg_env.get (List.hd envs) "out" with
  | Some tree ->
    let xml = Xml_print.element_to_string (Dtree.to_xml_element tree) in
    check string_t "rendered" "<person id=\"1\"><who>Ann</who></person>" xml
  | None -> Alcotest.fail "expected constructed tree"

let test_construct_splice () =
  let collected =
    Dtree.node "collection" [ Dtree.atom (Value.Int 1); Dtree.atom (Value.Int 2) ]
  in
  let env = Alg_env.of_bindings [ ("c", collected) ] in
  let template = Alg_plan.T_node ("all", [], [ Alg_plan.T_splice (Alg_expr.Var "c") ]) in
  let built = Alg_exec.build_template env template in
  check int_t "spliced kids" 2 (List.length (Dtree.kids built))

let test_partial_results () =
  let plan =
    Alg_plan.Outer_union (open_scan "people" "p", open_scan "gone_source" "p")
  in
  (* strict mode fails *)
  (try
     ignore (run plan);
     Alcotest.fail "expected Source_unavailable"
   with Alg_exec.Source_unavailable _ -> ());
  (* partial mode answers with annotation *)
  let envs, skipped = Alg_exec.run_partial sources plan in
  check int_t "partial rows" 4 (List.length envs);
  check (Alcotest.list string_t) "skipped sources" [ "gone_source" ] skipped

let test_explain_mentions_operators () =
  let _, plan = List.nth (join_plans ()) 1 in
  let text = Alg_plan.explain (Alg_plan.Select (plan, Alg_expr.ci 1)) in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check bool_t "has SELECT" true (has "SELECT");
  check bool_t "has HASH-JOIN" true (has "HASH-JOIN");
  check bool_t "has SCAN" true (has "SCAN people")

let test_free_sources_output_vars () =
  let _, plan = List.nth (join_plans ()) 2 in
  check (Alcotest.list string_t) "sources" [ "people"; "depts" ] (Alg_plan.free_sources plan);
  check (Alcotest.list string_t) "vars" [ "p"; "d" ] (Alg_plan.output_vars plan)

let test_cost_estimates () =
  let source_rows = function
    | "people" -> 1000.0
    | "depts" -> 50.0
    | _ -> 100.0
  in
  let scan = open_scan "people" "p" in
  let open Alg_expr in
  let filtered = Alg_plan.Select (scan, child "p" "dept" =% ci 10) in
  let e_scan = Alg_cost.estimate ~source_rows scan in
  let e_filter = Alg_cost.estimate ~source_rows filtered in
  check bool_t "scan rows" true (e_scan.Alg_cost.rows = 1000.0);
  check bool_t "selection reduces rows" true (e_filter.Alg_cost.rows < e_scan.Alg_cost.rows);
  check bool_t "selection adds cost" true (e_filter.Alg_cost.cost > e_scan.Alg_cost.cost);
  (* hash join beats nested loop in estimated cost on equal inputs *)
  let lk = child "p" "dept" and rk = child "d" "did" in
  let right = open_scan "depts" "d" in
  let nl = Alg_plan.Nl_join { left = scan; right; pred = Some (lk =% rk) } in
  let hash = Alg_plan.Hash_join { left = scan; right; left_key = lk; right_key = rk; residual = None } in
  let e_nl = Alg_cost.estimate ~source_rows nl in
  let e_hash = Alg_cost.estimate ~source_rows hash in
  check bool_t "hash cheaper than nested loop" true (e_hash.Alg_cost.cost < e_nl.Alg_cost.cost);
  let limited = Alg_plan.Limit (scan, 10) in
  check bool_t "limit caps rows" true ((Alg_cost.estimate ~source_rows limited).Alg_cost.rows = 10.0);
  let annotated = Alg_cost.annotate ~source_rows hash in
  check bool_t "annotation mentions estimate" true
    (let needle = "estimated:" in
     let n = String.length needle and m = String.length annotated in
     let rec go i = i + n <= m && (String.sub annotated i n = needle || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------------ *)
(* Instrumented execution and EXPLAIN ANALYZE                          *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_annotate_per_line () =
  let source_rows = function "people" -> 1000.0 | _ -> 50.0 in
  let open Alg_expr in
  let plan = Alg_plan.Select (open_scan "people" "p", child "p" "dept" =% ci 10) in
  let annotated = Alg_cost.annotate ~source_rows plan in
  let op_lines =
    List.filter
      (fun l -> contains "SCAN" l || contains "SELECT" l)
      (String.split_on_char '\n' annotated)
  in
  check int_t "two operator lines" 2 (List.length op_lines);
  List.iter
    (fun l -> check bool_t "per-line estimate" true (contains "(est " l))
    op_lines;
  check bool_t "keeps total footer" true (contains "estimated:" annotated)

let test_run_instrumented () =
  let open Alg_expr in
  let scan = open_scan "people" "p" in
  let plan = Alg_plan.Select (scan, child "p" "dept" =% ci 10) in
  let envs, stats = Alg_exec.run_instrumented sources plan in
  check int_t "same rows as run_list" (List.length (run plan)) (List.length envs);
  let actual = Alg_ops.actual_of_stats stats in
  (match actual plan with
  | Some (rows, ms) ->
    check int_t "select actual rows" 2 rows;
    check bool_t "time non-negative" true (ms >= 0.0)
  | None -> Alcotest.fail "select node should have been executed");
  match actual scan with
  | Some (rows, _) -> check int_t "scan actual rows" 4 rows
  | None -> Alcotest.fail "scan node should have been executed"

let test_explain_analyze_output () =
  let scan = open_scan "people" "p" in
  let plan = Alg_plan.Limit (scan, 0) in
  let envs, stats = Alg_exec.run_instrumented sources plan in
  check int_t "limit 0 yields nothing" 0 (List.length envs);
  let report =
    Alg_cost.explain_analyze
      ~source_rows:(fun _ -> Alg_cost.default_scan_rows)
      ~actual:(Alg_ops.actual_of_stats stats)
      plan
  in
  check bool_t "limit line has actuals" true (contains "actual 0 rows" report);
  (* LIMIT 0 never pulls from its input: the scan must say so. *)
  check bool_t "scan never executed" true (contains "never executed" report);
  check bool_t "estimates still shown" true (contains "est 1000 rows" report)

(* Property (observability contract): with the trace sink disabled, the
   instrumented executor returns byte-identical results to the plain one
   on random plans, and records no spans. *)
let prop_instrumented_identical =
  QCheck2.Test.make ~name:"instrumented run = plain run (sink disabled)" ~count:60
    QCheck2.Gen.(triple (int_bound 15) (int_bound 15) (int_bound 20))
    (fun (n, m, threshold) ->
      let g = Prng.create ((n * 31) + m + threshold) in
      let mk var count =
        Alg_plan.Const_envs
          (List.init count (fun i ->
               Alg_env.of_bindings
                 [
                   ( var,
                     Dtree.of_tuple var
                       (Tuple.make
                          [ ("k", Value.Int (Prng.int g 6)); ("v", Value.Int i) ]) );
                 ]))
      in
      let left = mk "l" n and right = mk "r" m in
      let lk = child "l" "k" and rk = child "r" "k" in
      let open Alg_expr in
      let join =
        match threshold mod 3 with
        | 0 -> Alg_plan.Nl_join { left; right; pred = Some (lk =% rk) }
        | 1 ->
          Alg_plan.Hash_join
            { left; right; left_key = lk; right_key = rk; residual = None }
        | _ -> Alg_plan.Merge_join { left; right; left_key = lk; right_key = rk }
      in
      let plan =
        Alg_plan.Limit
          (Alg_plan.Select (join, Binop (Alg_expr.Le, child "l" "v", ci threshold)), 10)
      in
      let plain = List.map Alg_env.to_string (run plan) in
      let instrumented, _ = Alg_exec.run_instrumented sources plan in
      plain = List.map Alg_env.to_string instrumented
      && Obs_trace.roots () = [])

(* Property: select pushdown through join preserves results. *)
let prop_select_pushes_through_join =
  QCheck2.Test.make ~name:"select over join = pushed select" ~count:50
    QCheck2.Gen.(int_range 0 25)
    (fun threshold ->
      let open Alg_expr in
      let lk = child "p" "dept" and rk = child "d" "did" in
      let pred = Binop (Alg_expr.Le, child "p" "id", ci threshold) in
      let plain =
        Alg_plan.Select
          ( Alg_plan.Hash_join
              { left = open_scan "people" "p"; right = open_scan "depts" "d";
                left_key = lk; right_key = rk; residual = None },
            pred )
      in
      let pushed =
        Alg_plan.Hash_join
          { left = Alg_plan.Select (open_scan "people" "p", pred);
            right = open_scan "depts" "d"; left_key = lk; right_key = rk; residual = None }
      in
      let norm plan =
        List.sort compare (List.map Alg_env.to_string (run plan))
      in
      norm plain = norm pushed)

(* ------------------------------------------------------------------ *)
(* Group determinism (regressions) and the one-domain chunked mode     *)
(* ------------------------------------------------------------------ *)

(* The morsel-driven engine at one domain: the sequential chunked mode,
   every region inline on the caller. *)
let chunked_run ?(chunk = 4) plan =
  Alg_exec.run_mode (Alg_exec.Parallel { domains = 1; chunk }) sources plan

(* Keyless aggregation over empty input yields exactly one row of
   aggregate identities — in both engines. *)
let test_group_empty_input () =
  let plan =
    Alg_plan.Group
      {
        input = Alg_plan.Const_envs [];
        keys = [];
        aggs =
          [
            ("n", Alg_plan.A_count);
            ("s", Alg_plan.A_sum (child "p" "id"));
            ("a", Alg_plan.A_avg (child "p" "id"));
            ("mn", Alg_plan.A_min (child "p" "id"));
            ("mx", Alg_plan.A_max (child "p" "id"));
            ("c", Alg_plan.A_collect (child "p" "id"));
          ];
      }
  in
  let check_engine label envs =
    check int_t (label ^ ": one identity row") 1 (List.length envs);
    let e = List.hd envs in
    check value_t (label ^ ": count 0") (Value.Int 0) (Alg_env.value_of e "n");
    check value_t (label ^ ": sum null") Value.Null (Alg_env.value_of e "s");
    check value_t (label ^ ": avg null") Value.Null (Alg_env.value_of e "a");
    check value_t (label ^ ": min null") Value.Null (Alg_env.value_of e "mn");
    check value_t (label ^ ": max null") Value.Null (Alg_env.value_of e "mx");
    match Alg_env.get e "c" with
    | Some tree -> check int_t (label ^ ": empty collection") 0 (List.length (Dtree.kids tree))
    | None -> Alcotest.fail (label ^ ": expected collection binding")
  in
  check_engine "tuple" (run plan);
  check_engine "parallel(domains=1)" (chunked_run plan)

(* Null group keys land in one deterministic group; group order is
   first-appearance order in both engines. *)
let test_group_null_keys () =
  let plan =
    Alg_plan.Group
      {
        input = open_scan "people" "p";
        keys = [ ("dept", child "p" "dept") ];
        aggs = [ ("n", Alg_plan.A_count) ];
      }
  in
  let snapshot envs =
    List.map (fun e -> (Alg_env.value_of e "dept", Alg_env.value_of e "n")) envs
  in
  let tuple = snapshot (run plan) in
  let chunked = snapshot (chunked_run ~chunk:3 plan) in
  check int_t "three groups (null keys grouped)" 3 (List.length tuple);
  check bool_t "first-appearance order" true
    (tuple = [ (Value.Int 10, Value.Int 2); (Value.Int 20, Value.Int 1); (Value.Null, Value.Int 1) ]);
  check bool_t "parallel(domains=1) agrees" true (tuple = chunked)

let test_chunked_basic_equivalence () =
  let open Alg_expr in
  let plans =
    [
      open_scan "people" "p";
      Alg_plan.Select (open_scan "people" "p", Binop (Alg_expr.Le, child "p" "id", ci 2));
      Alg_plan.Sort
        ( open_scan "people" "p",
          [ { Alg_plan.sort_key = child "p" "dept"; ascending = false } ] );
      Alg_plan.Limit (open_scan "people" "p", 3);
      Alg_plan.Outer_union (open_scan "people" "p", open_scan "depts" "d");
    ]
  in
  List.iteri
    (fun i plan ->
      List.iter
        (fun chunk ->
          check bool_t
            (Printf.sprintf "plan %d chunk %d" i chunk)
            true
            (List.map Alg_env.to_string (run plan)
            = List.map Alg_env.to_string (chunked_run ~chunk plan)))
        [ 1; 2; 1024 ])
    plans

(* The fused select+project reports the select's rows without morsels
   of its own (it ran inside its parent's pass), and an operator with no
   morsel implementation reports its tuple-engine fallback. *)
let test_chunked_stats_cells () =
  let open Alg_expr in
  let run_stats plan = Alg_exec.run_parallel ~domains:1 ~chunk:2 sources plan in
  let sel = Alg_plan.Select (open_scan "people" "p", Binop (Alg_expr.Le, child "p" "id", ci 3)) in
  let plan = Alg_plan.Project (sel, [ "p" ]) in
  let envs, stats = run_stats plan in
  let root = stats.Alg_par.root in
  check int_t "fused rows" 3 (List.length envs);
  check bool_t "fused select reports its rows" true
    (match Alg_ops.actual_of_stats root sel with Some (3, _) -> true | _ -> false);
  check bool_t "fused select runs no morsels of its own" false
    (List.exists (contains "morsels=") (Alg_ops.cells_of_stats root sel));
  check bool_t "project reports morsels" true
    (List.exists (contains "morsels=") (Alg_ops.cells_of_stats root plan));
  let distinct = Alg_plan.Distinct (open_scan "people" "p") in
  let envs, stats = run_stats distinct in
  check int_t "distinct rows" 4 (List.length envs);
  check bool_t "distinct reports fallback" true
    (List.exists (contains "fallback") (Alg_ops.cells_of_stats stats.Alg_par.root distinct))

let test_chunked_strict_unavailable () =
  let plan = Alg_plan.Limit (Alg_plan.Sort (open_scan "gone_source" "p", []), 0) in
  try
    ignore (chunked_run plan);
    Alcotest.fail "expected Source_unavailable"
  with Alg_exec.Source_unavailable name -> check string_t "names the source" "gone_source" name

(* Property (the engine contract): morsel-driven execution is
   byte-identical to tuple-at-a-time execution — same rows, same order
   (document order, sort stability, group order), same aggregate
   values — over random plans, domain counts (one domain is the
   sequential chunked mode) and morsel sizes. *)
let prop_parallel_equals_tuple =
  QCheck2.Test.make
    ~name:"parallel run = tuple run (random plans, domains 1-3, random chunks)" ~count:150
    QCheck2.Gen.(quad (int_bound 25) (int_bound 25) (int_bound 5) (int_bound 1000))
    (fun (n, m, shape, seed) ->
      let g = Prng.create (seed + (n * 257) + (m * 29) + shape) in
      let domains = 1 + Prng.int g 3 in
      let chunk = List.nth [ 1; 2; 3; 7; 64; 1024 ] (Prng.int g 6) in
      let mk var count =
        Alg_plan.Const_envs
          (List.init count (fun i ->
               let k = if Prng.int g 5 = 0 then Value.Null else Value.Int (Prng.int g 5) in
               Alg_env.of_bindings
                 [ (var, Dtree.of_tuple var (Tuple.make [ ("k", k); ("v", Value.Int i) ])) ]))
      in
      let left = mk "l" n and right = mk "r" m in
      let lk = child "l" "k" and rk = child "r" "k" in
      let open Alg_expr in
      let join =
        if Prng.int g 4 = 0 then
          (* no morsel implementation: exercises the caller-side fallback *)
          Alg_plan.Nl_join { left; right; pred = Some (lk =% rk) }
        else Alg_plan.Hash_join { left; right; left_key = lk; right_key = rk; residual = None }
      in
      let plan =
        match shape with
        | 0 ->
          (* the fused select+project pass *)
          Alg_plan.Project
            ( Alg_plan.Select (join, Binop (Alg_expr.Le, child "l" "v", ci (Prng.int g 20))),
              [ "l"; "r" ] )
        | 1 ->
          (* heavy key duplication: an unstable merge or probe reorder
             would show up here *)
          Alg_plan.Sort (join, [ { Alg_plan.sort_key = lk; ascending = Prng.int g 2 = 0 } ])
        | 2 ->
          Alg_plan.Group
            {
              input = join;
              keys = [ ("k", lk) ];
              aggs =
                [
                  ("n", Alg_plan.A_count);
                  ("s", Alg_plan.A_sum (child "l" "v"));
                  ("mx", Alg_plan.A_max (child "r" "v"));
                ];
            }
        | 3 -> Alg_plan.Outer_union (Alg_plan.Union (left, right), open_scan "depts" "d")
        | 4 -> Alg_plan.Limit (Alg_plan.Distinct (Alg_plan.Project (join, [ "r" ])), Prng.int g 10)
        | _ ->
          Alg_plan.Construct
            {
              input = join;
              binding = "out";
              template = Alg_plan.T_node ("row", [], [ Alg_plan.T_value (child "l" "v") ]);
            }
      in
      let tuple = List.map Alg_env.to_string (Alg_exec.run_list sources plan) in
      let par =
        List.map Alg_env.to_string
          (Alg_exec.run_mode (Alg_exec.Parallel { domains; chunk }) sources plan)
      in
      tuple = par)

(* Property: partial-results mode (section 3.4) agrees between the
   engines — same rows in order, same set of skipped sources. *)
let prop_parallel_partial_equals_tuple =
  QCheck2.Test.make ~name:"parallel partial run = tuple partial run" ~count:60
    QCheck2.Gen.(triple (int_bound 2) (int_bound 3) (int_bound 30))
    (fun (domains_ix, chunk_ix, threshold) ->
      let domains = domains_ix + 1 in
      let chunk = List.nth [ 1; 3; 8; 1024 ] chunk_ix in
      let open Alg_expr in
      let federation =
        Alg_plan.Outer_union
          ( Alg_plan.Select
              (open_scan "people" "p", Binop (Alg_expr.Le, child "p" "id", ci threshold)),
            Alg_plan.Union (open_scan "gone_source" "q", open_scan "depts" "d") )
      in
      let t_envs, t_skip = Alg_exec.run_partial sources federation in
      let p_envs, p_skip =
        Alg_exec.run_partial_mode (Alg_exec.Parallel { domains; chunk }) sources federation
      in
      List.map Alg_env.to_string t_envs = List.map Alg_env.to_string p_envs
      && List.sort compare t_skip = List.sort compare p_skip)

(* Sort stability, both engines: rows sharing a sort key must keep
   their input order.  The tuple engine's decorate–sort–undecorate path
   and the parallel engine's merge rounds both promise this. *)
let test_sort_stability () =
  let rows =
    List.init 32 (fun i ->
        Alg_env.of_bindings
          [ ("r", Dtree.of_tuple "r" (Tuple.make [ ("k", Value.Int (i mod 3)); ("v", Value.Int i) ])) ])
  in
  let plan =
    Alg_plan.Sort
      (Alg_plan.Const_envs rows, [ { Alg_plan.sort_key = child "r" "k"; ascending = true } ])
  in
  let assert_stable name envs =
    let by_key = Hashtbl.create 3 in
    List.iter
      (fun env ->
        let k = Alg_expr.eval env (child "r" "k") in
        let v =
          match Alg_expr.eval env (child "r" "v") with Value.Int i -> i | _ -> -1
        in
        let prev = Option.value (Hashtbl.find_opt by_key k) ~default:(-1) in
        check bool_t (Printf.sprintf "%s: ties keep input order" name) true (v > prev);
        Hashtbl.replace by_key k v)
      envs;
    check int_t (Printf.sprintf "%s: row count" name) 32 (List.length envs)
  in
  assert_stable "tuple" (run plan);
  assert_stable "parallel(domains=1,chunk=5)" (chunked_run ~chunk:5 plan);
  List.iter
    (fun domains ->
      assert_stable
        (Printf.sprintf "parallel(domains=%d)" domains)
        (Alg_exec.run_mode (Alg_exec.Parallel { domains; chunk = 4 }) sources plan))
    [ 1; 2; 4 ]

(* Property: the three join algorithms agree on random data. *)
let prop_joins_agree =
  QCheck2.Test.make ~name:"nl = hash = merge join on random relations" ~count:60
    QCheck2.Gen.(pair (int_bound 20) (int_bound 20))
    (fun (n, m) ->
      let g = Prng.create ((n * 37) + m) in
      let mk var count =
        Alg_plan.Const_envs
          (List.init count (fun i ->
               Alg_env.of_bindings
                 [
                   ( var,
                     Dtree.of_tuple var
                       (Tuple.make
                          [ ("k", Value.Int (Prng.int g 6)); ("v", Value.Int i) ]) );
                 ]))
      in
      let left = mk "l" n and right = mk "r" m in
      let lk = child "l" "k" and rk = child "r" "k" in
      let open Alg_expr in
      let norm plan = List.sort compare (List.map Alg_env.to_string (run plan)) in
      let nl = norm (Alg_plan.Nl_join { left; right; pred = Some (lk =% rk) }) in
      let hash =
        norm (Alg_plan.Hash_join { left; right; left_key = lk; right_key = rk; residual = None })
      in
      let merge = norm (Alg_plan.Merge_join { left; right; left_key = lk; right_key = rk }) in
      nl = hash && hash = merge)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_select_pushes_through_join;
        prop_joins_agree;
        prop_instrumented_identical;
        prop_parallel_equals_tuple;
        prop_parallel_partial_equals_tuple;
      ]
  in
  Alcotest.run "algebra"
    [
      ( "env",
        [
          Alcotest.test_case "basics" `Quick test_env_basics;
          Alcotest.test_case "tuple roundtrip" `Quick test_env_tuple_roundtrip;
        ] );
      ( "expr",
        [
          Alcotest.test_case "tree access" `Quick test_expr_tree_access;
          Alcotest.test_case "three-valued logic" `Quick test_expr_three_valued;
          Alcotest.test_case "free vars" `Quick test_expr_free_vars;
        ] );
      ( "operators",
        [
          Alcotest.test_case "scan + select" `Quick test_scan_select;
          Alcotest.test_case "project + extend" `Quick test_project_extend;
          Alcotest.test_case "join algorithms agree" `Quick test_join_algorithms_agree;
          Alcotest.test_case "dependent join" `Quick test_dep_join;
          Alcotest.test_case "sort/distinct/limit" `Quick test_sort_distinct_limit;
          Alcotest.test_case "group + aggregates" `Quick test_group_aggregates;
          Alcotest.test_case "union / outer union" `Quick test_union_outer_union;
          Alcotest.test_case "navigate" `Quick test_navigate;
          Alcotest.test_case "unnest" `Quick test_unnest;
          Alcotest.test_case "construct" `Quick test_construct;
          Alcotest.test_case "construct splice" `Quick test_construct_splice;
          Alcotest.test_case "partial results" `Quick test_partial_results;
          Alcotest.test_case "explain" `Quick test_explain_mentions_operators;
          Alcotest.test_case "static metadata" `Quick test_free_sources_output_vars;
          Alcotest.test_case "cost estimates" `Quick test_cost_estimates;
          Alcotest.test_case "annotate per line" `Quick test_annotate_per_line;
          Alcotest.test_case "run_instrumented" `Quick test_run_instrumented;
          Alcotest.test_case "explain analyze output" `Quick test_explain_analyze_output;
        ]
        @ props );
      (* "batch" names the one-domain chunked mode of the morsel-driven
         engine, which these checks run. *)
      ( "batch",
        [
          Alcotest.test_case "group over empty input" `Quick test_group_empty_input;
          Alcotest.test_case "group null keys deterministic" `Quick test_group_null_keys;
          Alcotest.test_case "batch = tuple basics" `Quick test_chunked_basic_equivalence;
          Alcotest.test_case "stats cells (fused/fallback)" `Quick test_chunked_stats_cells;
          Alcotest.test_case "strict mode raises" `Quick test_chunked_strict_unavailable;
          Alcotest.test_case "sort stability (all engines)" `Quick test_sort_stability;
        ] );
    ]
