(* Tests for the relational substrate: B+tree, table storage, SQL
   lexer/parser/printer, evaluation, planning and execution. *)

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let value_t = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0


(* ------------------------------------------------------------------ *)
(* B+tree                                                              *)
(* ------------------------------------------------------------------ *)

let test_btree_insert_find () =
  let bt = Rel_btree.create ~cmp:Int.compare () in
  for i = 0 to 999 do
    Rel_btree.insert bt (i mod 100) i
  done;
  check int_t "size" 1000 (Rel_btree.size bt);
  check int_t "ten per key" 10 (List.length (Rel_btree.find_all bt 5));
  check (Alcotest.list int_t) "insertion order"
    [ 5; 105; 205; 305; 405; 505; 605; 705; 805; 905 ]
    (Rel_btree.find_all bt 5);
  check bool_t "invariants" true (Rel_btree.check_invariants bt)

let test_btree_range () =
  let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
  List.iter (fun i -> Rel_btree.insert bt i (i * 10)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let keys lo hi = List.map fst (Rel_btree.range bt ?lo ?hi ()) in
  check (Alcotest.list int_t) "closed range" [ 3; 4; 5 ] (keys (Some (3, true)) (Some (5, true)));
  check (Alcotest.list int_t) "open range" [ 4 ] (keys (Some (3, false)) (Some (5, false)));
  check (Alcotest.list int_t) "unbounded low" [ 0; 1; 2 ] (keys None (Some (2, true)));
  check (Alcotest.list int_t) "unbounded high" [ 8; 9 ] (keys (Some (8, true)) None);
  check (Alcotest.list int_t) "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (keys None None)

let test_btree_remove () =
  let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
  for i = 0 to 99 do
    Rel_btree.insert bt i i
  done;
  check bool_t "remove present" true (Rel_btree.remove bt 50 50);
  check bool_t "remove absent" false (Rel_btree.remove bt 50 50);
  check int_t "size after" 99 (Rel_btree.size bt);
  check bool_t "gone" false (Rel_btree.mem bt 50);
  check bool_t "invariants hold" true (Rel_btree.check_invariants bt)

let test_btree_height_logarithmic () =
  let bt = Rel_btree.create ~order:8 ~cmp:Int.compare () in
  for i = 0 to 9999 do
    Rel_btree.insert bt i i
  done;
  check bool_t "height stays small" true (Rel_btree.height bt <= 7)

let prop_btree_matches_model =
  QCheck2.Test.make ~name:"btree agrees with assoc-list model" ~count:100
    QCheck2.Gen.(small_list (pair (int_bound 20) (oneofl [ `Ins; `Del ])))
    (fun ops ->
      let bt = Rel_btree.create ~order:4 ~cmp:Int.compare () in
      let model = Hashtbl.create 16 in
      let counter = ref 0 in
      List.iter
        (fun (k, op) ->
          match op with
          | `Ins ->
            incr counter;
            Rel_btree.insert bt k !counter;
            Hashtbl.replace model k (Option.value ~default:[] (Hashtbl.find_opt model k) @ [ !counter ])
          | `Del -> (
            match Hashtbl.find_opt model k with
            | Some (v :: rest) ->
              ignore (Rel_btree.remove bt k v);
              if rest = [] then Hashtbl.remove model k else Hashtbl.replace model k rest
            | Some [] | None -> ignore (Rel_btree.remove bt k (-1))))
        ops;
      Rel_btree.check_invariants bt
      && Hashtbl.fold (fun k vs acc -> acc && Rel_btree.find_all bt k = vs) model true)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let people_schema () =
  Dschema.relational "people"
    [
      Dschema.column "id" Value.TInt;
      Dschema.column "name" Value.TString;
      Dschema.column ~nullable:true "age" Value.TInt;
    ]

let mk_people () =
  let t = Rel_table.create ~primary_key:"id" (people_schema ()) in
  let add id name age =
    ignore
      (Rel_table.insert t
         (Tuple.make [ ("id", Value.Int id); ("name", Value.String name); ("age", age) ]))
  in
  add 1 "Ann" (Value.Int 34);
  add 2 "Bob" (Value.Int 28);
  add 3 "Cid" Value.Null;
  t

let test_table_insert_scan () =
  let t = mk_people () in
  check int_t "rows" 3 (Rel_table.row_count t);
  check int_t "scan sees all" 3 (List.length (Rel_table.to_list t))

let test_table_pk_violation () =
  let t = mk_people () in
  try
    ignore
      (Rel_table.insert t
         (Tuple.make [ ("id", Value.Int 1); ("name", Value.String "dup"); ("age", Value.Null) ]));
    Alcotest.fail "expected PK violation"
  with Rel_table.Constraint_violation _ -> ()

let test_table_delete_update () =
  let t = mk_people () in
  let n = Rel_table.delete_rows t (fun row -> row.(0) = Value.Int 2) in
  check int_t "one deleted" 1 n;
  check int_t "two left" 2 (Rel_table.row_count t);
  let n =
    Rel_table.update_rows t
      (fun row -> row.(1) = Value.String "Ann")
      (fun row ->
        Tuple.make [ ("id", row.(0)); ("name", row.(1)); ("age", Value.Int 35) ])
  in
  check int_t "one updated" 1 n

let test_table_index_lookup () =
  let t = mk_people () in
  Rel_table.create_index t ~kind:Rel_table.Hash_index "name";
  let rows = Rel_table.lookup_eq t "name" (Value.String "Bob") in
  check int_t "found via hash index" 1 (List.length rows);
  Rel_table.create_index t ~kind:Rel_table.Btree_index "id";
  let rows = Rel_table.lookup_range t "id" ~lo:(Value.Int 2, true) () in
  check int_t "range via btree" 2 (List.length rows);
  check bool_t "eq served" true (Rel_table.index_served t "name" `Eq);
  check bool_t "range not served by hash" false (Rel_table.index_served t "name" `Range);
  check bool_t "range served by btree" true (Rel_table.index_served t "id" `Range)

let test_table_index_maintained_on_mutation () =
  let t = mk_people () in
  Rel_table.create_index t ~kind:Rel_table.Btree_index "id";
  ignore (Rel_table.delete_rows t (fun row -> row.(0) = Value.Int 2));
  check int_t "index misses deleted" 0
    (List.length (Rel_table.lookup_eq t "id" (Value.Int 2)));
  ignore
    (Rel_table.update_rows t
       (fun row -> row.(0) = Value.Int 3)
       (fun row -> Tuple.make [ ("id", Value.Int 30); ("name", row.(1)); ("age", row.(2)) ]));
  check int_t "index follows update" 1
    (List.length (Rel_table.lookup_eq t "id" (Value.Int 30)))

let test_table_coercion () =
  let t = mk_people () in
  ignore
    (Rel_table.insert t
       (Tuple.make
          [ ("name", Value.String "Dee"); ("id", Value.String "4"); ("age", Value.Int 20) ]));
  let rows = Rel_table.lookup_eq t "id" (Value.Int 4) in
  check int_t "string id coerced to int" 1 (List.length rows)

(* ------------------------------------------------------------------ *)
(* SQL parse / print roundtrip                                         *)
(* ------------------------------------------------------------------ *)

let test_sql_roundtrip () =
  let cases =
    [
      "SELECT * FROM t";
      "SELECT a, b AS bee FROM t WHERE a = 1 AND b < 2.5";
      "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3";
      "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a LIKE 'x%'";
      "SELECT a FROM t LEFT JOIN u ON t.id = u.id";
      "SELECT COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY k HAVING n > 2";
      "SELECT a FROM t WHERE a IN (1, 2, 3) OR b BETWEEN 1 AND 9";
      "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL";
      "SELECT upper(name) FROM t WHERE NOT (a = 1 OR b = 2)";
      "SELECT a FROM t WHERE d = DATE '2001-04-02'";
    ]
  in
  List.iter
    (fun s ->
      let ast = Sql_parser.parse_exn s in
      let printed = Sql_print.statement_to_string ast in
      let ast2 = Sql_parser.parse_exn printed in
      let printed2 = Sql_print.statement_to_string ast2 in
      check string_t ("roundtrip fixpoint: " ^ s) printed printed2)
    cases

let test_sql_parse_errors () =
  List.iter
    (fun s ->
      match Sql_parser.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [
      "";
      "SELECT";
      "SELECT FROM t";
      "SELECT * FROM";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t GROUP";
      "INSERT INTO t";
      "SELECT SUM(*) FROM t";
      "SELECT * FROM t LIMIT x";
      "CREATE TABLE t (a INT,)";
    ]

let test_sql_precedence () =
  let e = Sql_parser.parse_expr_exn "1 + 2 * 3 = 7 AND NOT a OR b" in
  (* ((1 + (2*3)) = 7 AND (NOT a)) OR b *)
  match e with
  | Sql_ast.Binop (Sql_ast.Or, Sql_ast.Binop (Sql_ast.And, _, Sql_ast.Unop (Sql_ast.Not, _)), _) -> ()
  | _ -> Alcotest.fail "unexpected precedence parse"

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let eval_str tup s = Sql_eval.eval tup (Sql_parser.parse_expr_exn s)

let test_eval_three_valued () =
  let tup = Tuple.make [ ("a", Value.Null); ("b", Value.Int 1) ] in
  check value_t "null = 1 is unknown" Value.Null (eval_str tup "a = 1");
  check value_t "unknown AND false is false" (Value.Bool false) (eval_str tup "a = 1 AND b = 2");
  check value_t "unknown OR true is true" (Value.Bool true) (eval_str tup "a = 1 OR b = 1");
  check value_t "not unknown is unknown" Value.Null (eval_str tup "NOT (a = 1)");
  check bool_t "where drops unknown" false
    (Sql_eval.eval_pred tup (Sql_parser.parse_expr_exn "a = 1"))

let test_eval_like () =
  check bool_t "%x%" true (Sql_eval.like_match ~pattern:"%x%" "axb");
  check bool_t "prefix" true (Sql_eval.like_match ~pattern:"ab%" "abc");
  check bool_t "underscore" true (Sql_eval.like_match ~pattern:"a_c" "abc");
  check bool_t "no match" false (Sql_eval.like_match ~pattern:"a_c" "abbc");
  check bool_t "empty pattern" false (Sql_eval.like_match ~pattern:"" "x");
  check bool_t "only percent" true (Sql_eval.like_match ~pattern:"%" "anything");
  check bool_t "anchored" false (Sql_eval.like_match ~pattern:"x%" "ax")

let test_eval_functions () =
  let tup = Tuple.make [ ("s", Value.String " Ab ") ] in
  check value_t "upper" (Value.String " AB ") (eval_str tup "upper(s)");
  check value_t "trim" (Value.String "Ab") (eval_str tup "trim(s)");
  check value_t "length" (Value.Int 4) (eval_str tup "length(s)");
  check value_t "coalesce" (Value.Int 3) (eval_str tup "coalesce(NULL, 3, 4)");
  check value_t "substr" (Value.String "bc") (eval_str tup "substr('abcd', 2, 2)");
  check value_t "concat" (Value.String "a-b") (eval_str tup "concat('a', '-', 'b')")

let test_eval_resolution () =
  let tup = Tuple.make [ ("t.a", Value.Int 1); ("u.a", Value.Int 2); ("u.b", Value.Int 3) ] in
  check value_t "qualified" (Value.Int 2) (eval_str tup "u.a");
  check value_t "unique suffix" (Value.Int 3) (eval_str tup "b");
  (try
     ignore (eval_str tup "a");
     Alcotest.fail "expected ambiguity error"
   with Sql_eval.Eval_error _ -> ())

(* ------------------------------------------------------------------ *)
(* End-to-end SQL on a database                                        *)
(* ------------------------------------------------------------------ *)

let mk_db () =
  let db = Rel_db.create ~name:"test" () in
  let stmts =
    [
      "CREATE TABLE dept (id INT PRIMARY KEY, dname TEXT NOT NULL)";
      "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT NOT NULL, dept_id INT, salary FLOAT)";
      "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')";
      "INSERT INTO emp VALUES (1, 'Ann', 1, 100.0), (2, 'Bob', 1, 80.0), \
       (3, 'Cid', 2, 90.0), (4, 'Dee', NULL, 70.0)";
    ]
  in
  List.iter (fun s -> ignore (Rel_db.exec db s)) stmts;
  db

let q db s = Rel_db.query db s

let test_db_select_where () =
  let db = mk_db () in
  check int_t "filter" 2 (List.length (q db "SELECT * FROM emp WHERE salary >= 90"));
  check int_t "like" 1 (List.length (q db "SELECT * FROM emp WHERE name LIKE 'A%'"))

let test_db_projection_names () =
  let db = mk_db () in
  let names, rows = Rel_db.query_names db "SELECT name AS who, salary FROM emp WHERE id = 1" in
  check (Alcotest.list string_t) "names" [ "who"; "salary" ] names;
  check (Alcotest.option value_t) "value" (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "who")

let test_db_join () =
  let db = mk_db () in
  let rows =
    q db "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.name"
  in
  check int_t "three joined (Dee has NULL dept)" 3 (List.length rows);
  check (Alcotest.option value_t) "first by name" (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "name")

let test_db_left_join () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.name"
  in
  check int_t "all four kept" 4 (List.length rows);
  let dee = List.find (fun r -> Tuple.get r "name" = Some (Value.String "Dee")) rows in
  check (Alcotest.option value_t) "padded null" (Some Value.Null) (Tuple.get dee "dname")

let test_db_group_by () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT dept_id, COUNT(*) AS n, AVG(salary) AS avg_sal FROM emp \
       WHERE dept_id IS NOT NULL GROUP BY dept_id ORDER BY dept_id"
  in
  check int_t "two groups" 2 (List.length rows);
  check (Alcotest.option value_t) "count of dept 1" (Some (Value.Int 2))
    (Tuple.get (List.hd rows) "n");
  check (Alcotest.option value_t) "avg of dept 1" (Some (Value.Float 90.0))
    (Tuple.get (List.hd rows) "avg_sal")

let test_db_having () =
  let db = mk_db () in
  let rows =
    q db "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id HAVING n >= 2"
  in
  check int_t "only dept 1" 1 (List.length rows)

let test_db_agg_without_group () =
  let db = mk_db () in
  let rows = q db "SELECT COUNT(*) AS n, MAX(salary) AS m FROM emp" in
  check int_t "single row" 1 (List.length rows);
  check (Alcotest.option value_t) "count" (Some (Value.Int 4)) (Tuple.get (List.hd rows) "n");
  check (Alcotest.option value_t) "max" (Some (Value.Float 100.0)) (Tuple.get (List.hd rows) "m")

let test_db_order_limit_distinct () =
  let db = mk_db () in
  let rows = q db "SELECT salary FROM emp ORDER BY salary DESC LIMIT 2" in
  check (Alcotest.list value_t) "top 2"
    [ Value.Float 100.0; Value.Float 90.0 ]
    (List.map (fun r -> Tuple.get_exn r "salary") rows);
  let rows = q db "SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL" in
  check int_t "distinct" 2 (List.length rows)

let test_db_update_delete () =
  let db = mk_db () in
  (match Rel_db.exec db "UPDATE emp SET salary = salary + 10 WHERE dept_id = 1" with
  | Rel_db.Affected n -> check int_t "two raises" 2 n
  | _ -> Alcotest.fail "expected Affected");
  let rows = q db "SELECT salary FROM emp WHERE name = 'Ann'" in
  check (Alcotest.option value_t) "raised" (Some (Value.Float 110.0))
    (Tuple.get (List.hd rows) "salary");
  (match Rel_db.exec db "DELETE FROM emp WHERE salary < 80" with
  | Rel_db.Affected n -> check int_t "one deleted" 1 n
  | _ -> Alcotest.fail "expected Affected");
  check int_t "three remain" 3 (List.length (q db "SELECT * FROM emp"))

let test_db_insert_column_list () =
  let db = mk_db () in
  ignore (Rel_db.exec db "INSERT INTO emp (id, name) VALUES (9, 'Zed')");
  let rows = q db "SELECT * FROM emp WHERE id = 9" in
  check (Alcotest.option value_t) "defaults null" (Some Value.Null)
    (Tuple.get (List.hd rows) "salary")

let test_db_index_used_in_plan () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE INDEX ON emp (salary) USING BTREE");
  let plan = Rel_db.explain db "SELECT * FROM emp WHERE salary > 85" in
  check bool_t "range index used" true
    (contains plan "index-range");
  let plan2 = Rel_db.explain db "SELECT * FROM emp WHERE id = 2" in
  check bool_t "pk index used" true (contains plan2 "index-eq")

let test_db_index_vs_scan_same_rows () =
  let db = mk_db () in
  let before = q db "SELECT name FROM emp WHERE salary > 75 ORDER BY name" in
  ignore (Rel_db.exec db "CREATE INDEX ON emp (salary) USING BTREE");
  let after = q db "SELECT name FROM emp WHERE salary > 75 ORDER BY name" in
  check int_t "same cardinality" (List.length before) (List.length after);
  List.iter2
    (fun a b -> check bool_t "same rows" true (Tuple.equal a b))
    before after

let test_db_errors () =
  let db = mk_db () in
  let expect_err s =
    try
      ignore (Rel_db.exec db s);
      Alcotest.failf "expected Sql_error for %S" s
    with Rel_db.Sql_error _ -> ()
  in
  expect_err "SELECT * FROM missing";
  expect_err "SELECT nosuch FROM emp";
  expect_err "INSERT INTO dept VALUES (1, 'dup')";
  expect_err "CREATE TABLE dept (id INT)";
  expect_err "DROP TABLE missing";
  expect_err "SELECT * FROM emp WHERE";
  expect_err "INSERT INTO emp (id) VALUES (1, 2)"

let test_db_cross_product () =
  let db = mk_db () in
  let rows = q db "SELECT e.id, d.id FROM emp e, dept d" in
  check int_t "4 x 3" 12 (List.length rows)

let test_db_three_way_join () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE TABLE loc (dept_id INT, city TEXT)");
  ignore (Rel_db.exec db "INSERT INTO loc VALUES (1, 'SEA'), (2, 'NYC')");
  let rows =
    q db
      "SELECT e.name, d.dname, l.city FROM emp e \
       JOIN dept d ON e.dept_id = d.id JOIN loc l ON l.dept_id = d.id \
       WHERE l.city = 'SEA' ORDER BY e.name"
  in
  check int_t "two in SEA" 2 (List.length rows)

let test_db_null_semantics () =
  let db = mk_db () in
  (* NULL never equals anything, and IN with NULL follows SQL rules. *)
  check int_t "dept_id = NULL matches nothing" 0
    (List.length (q db "SELECT * FROM emp WHERE dept_id = NULL"));
  check int_t "IS NULL finds Dee" 1
    (List.length (q db "SELECT * FROM emp WHERE dept_id IS NULL"));
  check int_t "NOT of unknown drops row" 3
    (List.length (q db "SELECT * FROM emp WHERE NOT (dept_id = 99)"));
  check int_t "IN list with match" 2
    (List.length (q db "SELECT * FROM emp WHERE dept_id IN (1, 7)"));
  check int_t "BETWEEN over null is unknown" 3
    (List.length (q db "SELECT * FROM emp WHERE dept_id BETWEEN 0 AND 9"))

let test_db_having_on_aggregate_expression () =
  let db = mk_db () in
  let rows =
    q db
      "SELECT dept_id, SUM(salary) AS total FROM emp WHERE dept_id IS NOT NULL        GROUP BY dept_id HAVING total > 100 ORDER BY total DESC"
  in
  check int_t "one heavy dept" 1 (List.length rows);
  check (Alcotest.option value_t) "dept 1 total" (Some (Value.Float 180.0))
    (Tuple.get (List.hd rows) "total")

let test_db_order_by_expression () =
  let db = mk_db () in
  let rows = q db "SELECT name, salary FROM emp ORDER BY salary * -1 LIMIT 1" in
  check (Alcotest.option value_t) "highest salary first under negation"
    (Some (Value.String "Ann"))
    (Tuple.get (List.hd rows) "name")

let test_db_update_with_expression_referencing_row () =
  let db = mk_db () in
  ignore (Rel_db.exec db "UPDATE emp SET salary = salary * 2 WHERE name LIKE '%e%'");
  let rows = q db "SELECT salary FROM emp WHERE name = 'Dee'" in
  check (Alcotest.option value_t) "doubled" (Some (Value.Float 140.0))
    (Tuple.get (List.hd rows) "salary")

let test_db_distinct_on_expressions () =
  let db = mk_db () in
  let rows = q db "SELECT DISTINCT dept_id IS NULL AS has_no_dept FROM emp" in
  check int_t "two truth values" 2 (List.length rows)

let test_btree_string_keys () =
  let bt = Rel_btree.create ~order:4 ~cmp:String.compare () in
  List.iter (fun k -> Rel_btree.insert bt k (String.length k))
    [ "pear"; "apple"; "fig"; "banana"; "kiwi"; "date" ];
  check (Alcotest.list string_t) "lexicographic range"
    [ "banana"; "date"; "fig" ]
    (List.map fst (Rel_btree.range bt ~lo:("b", true) ~hi:("g", false) ()));
  check bool_t "invariants" true (Rel_btree.check_invariants bt)

(* Property: planner output equals naive reference execution. *)
let prop_plan_equals_reference =
  QCheck2.Test.make ~name:"planned join equals nested-loop reference" ~count:60
    QCheck2.Gen.(pair (int_bound 30) (int_bound 30))
    (fun (n, m) ->
      let db = Rel_db.create () in
      ignore (Rel_db.exec db "CREATE TABLE a (k INT, v INT)");
      ignore (Rel_db.exec db "CREATE TABLE b (k INT, w INT)");
      let g = Prng.create (n + (m * 31) + 7) in
      for _ = 1 to n do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO a VALUES (%d, %d)" (Prng.int g 10) (Prng.int g 100)))
      done;
      for _ = 1 to m do
        ignore
          (Rel_db.exec db
             (Printf.sprintf "INSERT INTO b VALUES (%d, %d)" (Prng.int g 10) (Prng.int g 100)))
      done;
      let joined =
        Rel_db.query db "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY a.v, b.w"
      in
      (* Reference: manual nested loop over raw tables. *)
      let ta = Rel_db.table_exn db "a" and tb = Rel_db.table_exn db "b" in
      let reference = ref [] in
      Rel_table.scan ta (fun _ ra ->
          Rel_table.scan tb (fun _ rb ->
              if Value.equal (Tuple.get_exn ra "k") (Tuple.get_exn rb "k") then
                reference :=
                  Tuple.make
                    [ ("v", Tuple.get_exn ra "v"); ("w", Tuple.get_exn rb "w") ]
                  :: !reference));
      let sort rows = List.sort Tuple.compare rows in
      sort joined = sort !reference)

let sql_error db s =
  match Rel_db.exec db s with
  | _ -> Alcotest.failf "expected Sql_error for %S" s
  | exception Rel_db.Sql_error m -> m

let test_db_lazy_resolution () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE TABLE none (id INT, tag TEXT)");
  (* Columns resolve when a row needs them: over no rows nothing fails. *)
  check int_t "unknown column in WHERE over an empty table" 0
    (List.length (q db "SELECT * FROM none WHERE nosuch = 1"));
  check (Alcotest.list string_t) "unknown projected column over an empty table" [ "nosuch" ]
    (fst (Rel_db.query_names db "SELECT nosuch FROM none"));
  check string_t "unknown column" "unknown column nosuch"
    (sql_error db "SELECT nosuch FROM emp");
  check string_t "unknown qualified column" "unknown column e.nosuch"
    (sql_error db "SELECT e.nosuch FROM emp e");
  check string_t "ambiguous column" "ambiguous column id"
    (sql_error db "SELECT id FROM emp e JOIN dept d ON e.dept_id = d.id");
  (* Comparisons read their right operand first, as the tuple
     interpreter did; BETWEEN reads left to right. *)
  check string_t "right operand reported first" "unknown column nosuch2"
    (sql_error db "SELECT * FROM emp WHERE nosuch1 = nosuch2");
  check string_t "arithmetic likewise" "unknown column nosuch2"
    (sql_error db "SELECT * FROM emp WHERE nosuch1 + nosuch2 = 1");
  check string_t "between left to right" "unknown column nosuch1"
    (sql_error db "SELECT * FROM emp WHERE nosuch1 BETWEEN nosuch2 AND nosuch3");
  check string_t "DML reports too" "unknown column nosuch"
    (sql_error db "UPDATE emp SET salary = 1 WHERE id = 1 AND nosuch = 2")

let test_db_left_join_padding () =
  let db = mk_db () in
  let names, rows =
    Rel_db.query_names db "SELECT * FROM dept d LEFT JOIN emp e ON e.dept_id = d.id ORDER BY d.id, e.id"
  in
  check (Alcotest.list string_t) "names"
    [ "d.id"; "dname"; "e.id"; "name"; "dept_id"; "salary" ] names;
  check string_t "unmatched row padded with a NULL tail"
    "{d.id=3, dname=empty, e.id=NULL, name=NULL, dept_id=NULL, salary=NULL}"
    (Tuple.to_string (List.nth rows 3));
  (* WHERE over the padded side drops rows instead of padding them. *)
  check int_t "WHERE filters the joined rows" 2
    (List.length (q db "SELECT d.dname FROM dept d LEFT JOIN emp e ON e.dept_id = d.id WHERE e.salary > 85"));
  check int_t "IS NULL finds the padding" 1
    (List.length (q db "SELECT d.dname FROM dept d LEFT JOIN emp e ON e.dept_id = d.id WHERE e.id IS NULL"))

let test_db_index_access_semantics () =
  let db = mk_db () in
  ignore (Rel_db.exec db "CREATE INDEX ON emp (dept_id) USING BTREE");
  check int_t "= NULL through an indexed column" 0
    (List.length (q db "SELECT * FROM emp WHERE dept_id = NULL"));
  check int_t "a range holds no NULL key" 2
    (List.length (q db "SELECT * FROM emp WHERE dept_id < 2"));
  ignore (Rel_db.exec db "CREATE INDEX ON emp (salary) USING BTREE");
  check int_t "every bound on one side still filters" 2
    (List.length (q db "SELECT * FROM emp WHERE salary < 85 AND salary <= 95"))

(* Every live row is found through each index under its own key. *)
let index_consistent tbl =
  let cols = Rel_table.columns tbl in
  Array.to_list cols
  |> List.filter (fun c -> Rel_table.has_index tbl c <> None)
  |> List.for_all (fun c ->
         let pos = ref 0 in
         Array.iteri (fun i c' -> if c' = c then pos := i) cols;
         List.for_all
           (fun row ->
             let v = row.(!pos) in
             let by_scan = List.filter (fun r -> Value.equal r.(!pos) v) (Rel_table.rows tbl) in
             Rel_table.lookup_eq_rows tbl c v = by_scan)
           (Rel_table.rows tbl))

let test_db_dml_through_index () =
  let setup index =
    let db = Rel_db.create () in
    ignore (Rel_db.exec db "CREATE TABLE t (id INT, code TEXT, n INT)");
    for i = 1 to 40 do
      ignore
        (Rel_db.exec db
           (Printf.sprintf "INSERT INTO t VALUES (%d, 'c%d', %d)" i (i mod 7) (i mod 3)))
    done;
    Option.iter (fun s -> ignore (Rel_db.exec db s)) index;
    db
  in
  let stmts =
    [ "UPDATE t SET n = n + 10 WHERE code = 'c3'";
      "UPDATE t SET code = 'c9' WHERE code = 'c1' AND n > 0";
      "DELETE FROM t WHERE 'c2' = code OR id = 5";
      "DELETE FROM t WHERE id = 7.0";
      "UPDATE t SET id = id * 100 WHERE id = 12";
      "UPDATE t SET n = NULL WHERE code = 'c4' AND id >= 20";
      "DELETE FROM t WHERE code = 'c9' AND n = 11";
      "UPDATE t SET code = 'c0' WHERE code = 'nope'" ]
  in
  let run db = List.map (fun s -> Rel_db.exec db s) stmts in
  let all db = q db "SELECT * FROM t ORDER BY id" in
  let plain = setup None in
  let counts = run plain in
  List.iter
    (fun index ->
      let db = setup (Some index) in
      check bool_t (index ^ ": same counts") true (run db = counts);
      check bool_t (index ^ ": same rows") true (List.equal Tuple.equal (all db) (all plain));
      check bool_t (index ^ ": indexes consistent") true (index_consistent (Rel_db.table_exn db "t")))
    [ "CREATE INDEX ON t (code) USING HASH";
      "CREATE INDEX ON t (code) USING BTREE";
      "CREATE INDEX ON t (id) USING HASH" ]

(* ------------------------------------------------------------------ *)
(* Positional execution against a naive reference                      *)
(* ------------------------------------------------------------------ *)

(* Random tables with NULLs, random indexes and random SELECTs; the
   reference prefixes each table's [to_list] rows, takes the cross
   product join by join (padding LEFT JOIN misses with NULLs), filters
   it row by row and projects, groups, orders and limits it directly. *)

let ref_tables =
  [ ("a", [ ("k", `I); ("v", `I); ("s", `T) ]);
    ("b", [ ("k", `I); ("w", `I); ("s", `T) ]);
    ("c", [ ("k", `I); ("x", `T) ]) ]

type ref_case = {
  setup : string list;  (* DDL, inserts and indexes *)
  sql : string;
  total_order : bool;  (* ORDER BY determines the output order *)
}

let gen_case seed =
  let g = Prng.create seed in
  let chance p = Prng.bernoulli g p in
  let pick l = Prng.pick_list g l in
  let int_lit () = if chance 0.15 then "NULL" else string_of_int (Prng.int g 6) in
  let text_lit () = if chance 0.15 then "NULL" else Printf.sprintf "'%s'" (pick [ "ab"; "ba"; "abc"; "b" ]) in
  let setup =
    List.concat_map
      (fun (t, cols) ->
        let ddl =
          Printf.sprintf "CREATE TABLE %s (%s)" t
            (String.concat ", "
               (List.map (fun (c, ty) -> c ^ match ty with `I -> " INT" | `T -> " TEXT") cols))
        in
        let rows =
          List.init (Prng.int g 9) (fun _ ->
              Printf.sprintf "INSERT INTO %s VALUES (%s)" t
                (String.concat ", "
                   (List.map
                      (fun (c, ty) ->
                        match ty with
                        | `I when c = "k" -> if chance 0.1 then "NULL" else string_of_int (Prng.int g 4)
                        | `I -> int_lit ()
                        | `T -> text_lit ())
                      cols)))
        in
        let indexes =
          List.filter_map
            (fun (c, _) ->
              match Prng.int g 3 with
              | 0 -> Some (Printf.sprintf "CREATE INDEX ON %s (%s) USING HASH" t c)
              | 1 -> Some (Printf.sprintf "CREATE INDEX ON %s (%s) USING BTREE" t c)
              | _ -> None)
            cols
        in
        (* Index some tables before loading them, some after. *)
        if chance 0.5 then (ddl :: indexes) @ rows else (ddl :: rows) @ indexes)
      ref_tables
  in
  let from, aliases =
    pick
      [ ("a", [ "a" ]);
        ("a JOIN b ON a.k = b.k", [ "a"; "b" ]);
        ("a LEFT JOIN b ON a.k = b.k", [ "a"; "b" ]);
        ("a JOIN b ON a.v < b.w", [ "a"; "b" ]);
        ("a LEFT JOIN b ON a.k = b.k AND b.w > 2", [ "a"; "b" ]);
        ("a JOIN b ON a.k = b.k JOIN c ON b.k = c.k", [ "a"; "b"; "c" ]);
        ("a LEFT JOIN b ON a.k = b.k LEFT JOIN c ON a.k = c.k", [ "a"; "b"; "c" ]);
        ("a JOIN b ON a.k = b.k LEFT JOIN c ON b.w = c.k", [ "a"; "b"; "c" ]);
        ("a, c", [ "a"; "c" ]) ]
  in
  let cols = List.concat_map (fun a -> List.map (fun (c, ty) -> (a, c, ty)) (List.assoc a ref_tables)) aliases in
  let ref_of (a, c, _) =
    (* Unqualified when the bare name is unique in FROM. *)
    if List.length (List.filter (fun (_, c', _) -> c' = c) cols) = 1 && chance 0.5 then c
    else a ^ "." ^ c
  in
  let rec pred depth =
    if depth > 0 && chance 0.4 then
      match Prng.int g 3 with
      | 0 -> Printf.sprintf "(%s AND %s)" (pred (depth - 1)) (pred (depth - 1))
      | 1 -> Printf.sprintf "(%s OR %s)" (pred (depth - 1)) (pred (depth - 1))
      | _ -> Printf.sprintf "NOT (%s)" (pred (depth - 1))
    else
      let ((_, _, ty) as col) = pick cols in
      let r = ref_of col in
      match ty, Prng.int g 6 with
      | `I, 0 -> Printf.sprintf "%s = %s" r (int_lit ())
      | `I, 1 -> Printf.sprintf "%s %s %d" r (pick [ "<"; "<="; ">"; ">="; "<>" ]) (Prng.int g 6)
      | `I, 2 -> Printf.sprintf "%s IN (%s, %s)" r (int_lit ()) (int_lit ())
      | `I, 3 -> Printf.sprintf "%s BETWEEN %d AND %d" r (Prng.int g 3) (2 + Prng.int g 4)
      | `I, _ -> Printf.sprintf "%d = %s" (Prng.int g 6) r
      | `T, 0 -> Printf.sprintf "%s = %s" r (text_lit ())
      | `T, 1 -> Printf.sprintf "%s LIKE '%s'" r (pick [ "a%"; "%b"; "_b%"; "%" ])
      | `T, 2 -> Printf.sprintf "%s IN (%s, %s)" r (text_lit ()) (text_lit ())
      | `T, 3 -> Printf.sprintf "%s IS NULL" r
      | `T, _ -> Printf.sprintf "%s IS NOT NULL" r
  in
  let where = if chance 0.7 then " WHERE " ^ pred 2 else "" in
  let qual (a, c, _) = a ^ "." ^ c in
  let sql, total_order =
    match Prng.int g 4 with
    | 0 ->
      let key = pick cols in
      let int_col = pick (List.filter (fun (_, _, ty) -> ty = `I) cols) in
      let having = if chance 0.3 then " HAVING n > 1" else "" in
      let ordered = chance 0.5 in
      ( Printf.sprintf
          "SELECT %s, COUNT(*) AS n, SUM(%s) AS t, MIN(%s) AS lo, COUNT(%s) AS nn FROM %s%s GROUP BY %s%s%s"
          (qual key) (qual int_col) (qual (pick cols)) (qual (pick cols)) from where (qual key) having
          (if ordered then " ORDER BY " ^ qual key else ""),
        ordered )
    | 1 ->
      ( Printf.sprintf "SELECT COUNT(*) AS n, MAX(%s) AS hi FROM %s%s" (qual (pick cols)) from where,
        true )
    | _ ->
      let projected = List.sort_uniq compare (List.init (1 + Prng.int g 3) (fun _ -> pick cols)) in
      let keys = if chance 0.6 then List.init (1 + Prng.int g 2) (fun _ -> pick cols) else [] in
      let total = keys <> [] && chance 0.6 in
      let keys = if total then keys @ projected else keys in
      let order =
        if keys = [] then ""
        else
          " ORDER BY "
          ^ String.concat ", "
              (List.map (fun k -> qual k ^ if chance 0.5 then " DESC" else "") keys)
      in
      let limit = if total && chance 0.5 then Printf.sprintf " LIMIT %d" (Prng.int g 6) else "" in
      ( Printf.sprintf "SELECT %s%s FROM %s%s%s%s"
          (if chance 0.3 then "DISTINCT " else "")
          (String.concat ", " (List.map qual projected))
          from where order limit,
        total )
  in
  { setup; sql; total_order }

let print_case seed =
  let c = gen_case seed in
  String.concat ";\n" (c.setup @ [ c.sql ])

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let reference_select db (s : Sql_ast.select) =
  let prefixed (t : Sql_ast.table_ref) =
    let alias = Option.value ~default:t.table t.alias in
    let tbl = Rel_db.table_exn db t.table in
    ( List.map (Tuple.prefix alias) (Rel_table.to_list tbl),
      Tuple.make (List.map (fun c -> (alias ^ "." ^ c, Value.Null)) (Dschema.column_names (Rel_table.schema tbl))) )
  in
  let rec from_rows = function
    | Sql_ast.From_table t -> fst (prefixed t)
    | Sql_ast.From_join (lhs, kind, t, cond) ->
      let rrows, nulls = prefixed t in
      List.concat_map
        (fun l ->
          let cross = List.map (Tuple.concat l) rrows in
          match List.filter (fun j -> Sql_eval.eval_pred j cond) cross, kind with
          | [], Sql_ast.Left_outer -> [ Tuple.concat l nulls ]
          | matches, _ -> matches)
        (from_rows lhs)
  in
  let rows = from_rows (Option.get s.Sql_ast.from) in
  let rows =
    match s.Sql_ast.where with
    | Some w -> List.filter (fun r -> Sql_eval.eval_pred r w) rows
    | None -> rows
  in
  let col_name = function Sql_ast.Col (_, n) -> n | _ -> assert false in
  let is_agg = function Sql_ast.Agg_item _ -> true | _ -> false in
  let outs =
    if List.exists is_agg s.Sql_ast.items then begin
      let groups = ref [] in
      List.iter
        (fun r ->
          let key = List.map (Sql_eval.eval r) s.Sql_ast.group_by in
          match List.assoc_opt key !groups with
          | Some bucket -> bucket := r :: !bucket
          | None -> groups := (key, ref [ r ]) :: !groups)
        rows;
      let groups = if !groups = [] && s.Sql_ast.group_by = [] then [ ([], ref []) ] else List.rev !groups in
      List.filter_map
        (fun (_, bucket) ->
          let bucket = List.rev !bucket in
          let non_null e = List.filter (fun v -> v <> Value.Null) (List.map (fun r -> Sql_eval.eval r e) bucket) in
          let extreme pick = function
            | [] -> Value.Null
            | v :: vs -> List.fold_left (fun a b -> if pick (Value.compare b a) then b else a) v vs
          in
          let out =
            Tuple.make
              (List.map
                 (function
                   | Sql_ast.Expr_item (e, _) -> (col_name e, Sql_eval.eval (List.hd bucket) e)
                   | Sql_ast.Agg_item (fn, arg, Some alias) ->
                     ( alias,
                       match fn, arg with
                       | Sql_ast.Count_star, _ -> Value.Int (List.length bucket)
                       | Sql_ast.Count, Some e -> Value.Int (List.length (non_null e))
                       | Sql_ast.Sum, Some e -> (
                         match non_null e with
                         | [] -> Value.Null
                         | vs -> List.fold_left Value.add (Value.Int 0) vs)
                       | Sql_ast.Min, Some e -> extreme (fun c -> c < 0) (non_null e)
                       | Sql_ast.Max, Some e -> extreme (fun c -> c > 0) (non_null e)
                       | _ -> assert false )
                   | _ -> assert false)
                 s.Sql_ast.items)
          in
          match s.Sql_ast.having with
          | Some h when not (Sql_eval.eval_pred out h) -> None
          | _ -> Some (out, out))
        groups
    end
    else
      let exprs = List.map (function Sql_ast.Expr_item (e, None) -> e | _ -> assert false) s.Sql_ast.items in
      let name e =
        let n = col_name e in
        if List.length (List.filter (fun e' -> col_name e' = n) exprs) = 1 then n
        else match e with Sql_ast.Col (Some q, n) -> q ^ "." ^ n | _ -> assert false
      in
      List.map (fun r -> (r, Tuple.make (List.map (fun e -> (name e, Sql_eval.eval r e)) exprs))) rows
  in
  let key (src, out) =
    List.map
      (fun { Sql_ast.order_expr; ascending } ->
        ( (try Sql_eval.eval out order_expr
           with Sql_eval.Eval_error _ -> Sql_eval.eval (Tuple.concat out src) order_expr),
          ascending ))
      s.Sql_ast.order_by
  in
  let cmp ka kb =
    List.fold_left2
      (fun acc (a, asc) (b, _) -> if acc <> 0 then acc else if asc then Value.compare a b else Value.compare b a)
      0 ka kb
  in
  let sorted =
    List.map snd (List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb) (List.map (fun p -> (key p, snd p)) outs))
  in
  let distinct =
    if s.Sql_ast.distinct then
      List.rev
        (List.fold_left (fun acc r -> if List.exists (Tuple.equal r) acc then acc else r :: acc) [] sorted)
    else sorted
  in
  match s.Sql_ast.limit with Some n -> take n distinct | None -> distinct

let prop_positional_equals_reference =
  QCheck2.Test.make ~name:"select = cross-product reference" ~count:400
    ~print:print_case QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let c = gen_case seed in
      let db = Rel_db.create () in
      List.iter (fun stmt -> ignore (Rel_db.exec db stmt)) c.setup;
      let names, rows = Rel_db.query_names db c.sql in
      let s = Sql_parser.parse_select_exn c.sql in
      let expected = reference_select db s in
      let expected_names = match expected with r :: _ -> Tuple.field_names r | [] -> names in
      let same a b = List.length a = List.length b && List.for_all2 Tuple.equal a b in
      let sort = List.sort Tuple.compare in
      names = expected_names
      && List.for_all (fun r -> Tuple.field_names r = names) rows
      && if c.total_order then same rows expected else same (sort rows) (sort expected))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest [ prop_btree_matches_model; prop_plan_equals_reference; prop_positional_equals_reference ]
  in
  Alcotest.run "relation"
    [
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "range scans" `Quick test_btree_range;
          Alcotest.test_case "remove" `Quick test_btree_remove;
          Alcotest.test_case "height" `Quick test_btree_height_logarithmic;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/scan" `Quick test_table_insert_scan;
          Alcotest.test_case "pk violation" `Quick test_table_pk_violation;
          Alcotest.test_case "delete/update" `Quick test_table_delete_update;
          Alcotest.test_case "index lookups" `Quick test_table_index_lookup;
          Alcotest.test_case "index maintenance" `Quick test_table_index_maintained_on_mutation;
          Alcotest.test_case "coercion on insert" `Quick test_table_coercion;
        ] );
      ( "sql-syntax",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_sql_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sql_parse_errors;
          Alcotest.test_case "precedence" `Quick test_sql_precedence;
        ] );
      ( "sql-eval",
        [
          Alcotest.test_case "three-valued logic" `Quick test_eval_three_valued;
          Alcotest.test_case "like" `Quick test_eval_like;
          Alcotest.test_case "functions" `Quick test_eval_functions;
          Alcotest.test_case "column resolution" `Quick test_eval_resolution;
        ] );
      ( "sql-exec",
        [
          Alcotest.test_case "select/where" `Quick test_db_select_where;
          Alcotest.test_case "projection names" `Quick test_db_projection_names;
          Alcotest.test_case "inner join" `Quick test_db_join;
          Alcotest.test_case "left join" `Quick test_db_left_join;
          Alcotest.test_case "group by" `Quick test_db_group_by;
          Alcotest.test_case "having" `Quick test_db_having;
          Alcotest.test_case "global aggregates" `Quick test_db_agg_without_group;
          Alcotest.test_case "order/limit/distinct" `Quick test_db_order_limit_distinct;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "insert column list" `Quick test_db_insert_column_list;
          Alcotest.test_case "plan uses indexes" `Quick test_db_index_used_in_plan;
          Alcotest.test_case "index answers match scan" `Quick test_db_index_vs_scan_same_rows;
          Alcotest.test_case "error reporting" `Quick test_db_errors;
          Alcotest.test_case "cross product" `Quick test_db_cross_product;
          Alcotest.test_case "three-way join" `Quick test_db_three_way_join;
          Alcotest.test_case "null semantics" `Quick test_db_null_semantics;
          Alcotest.test_case "having on aggregate" `Quick test_db_having_on_aggregate_expression;
          Alcotest.test_case "order by expression" `Quick test_db_order_by_expression;
          Alcotest.test_case "update expression" `Quick test_db_update_with_expression_referencing_row;
          Alcotest.test_case "distinct expressions" `Quick test_db_distinct_on_expressions;
          Alcotest.test_case "btree string keys" `Quick test_btree_string_keys;
          Alcotest.test_case "lazy column resolution" `Quick test_db_lazy_resolution;
          Alcotest.test_case "left join padding" `Quick test_db_left_join_padding;
          Alcotest.test_case "index access semantics" `Quick test_db_index_access_semantics;
          Alcotest.test_case "DML through an index" `Quick test_db_dml_through_index;
        ]
        @ props );
    ]
