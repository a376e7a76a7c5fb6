(* Tests for XML-QL: lexer, parser, pretty-printer and the reference
   evaluator's semantics. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let value_t = Alcotest.testable (fun ppf v -> Value.pp ppf v) Value.equal

let bib_doc =
  Dtree.of_xml_element
    (Xml_parser.parse_element_exn
       {|<bib>
           <book year="1994"><title>TCP Illustrated</title>
             <author><last>Stevens</last></author>
             <price>55</price></book>
           <book year="2000"><title>Data on the Web</title>
             <author><last>Abiteboul</last></author>
             <author><last>Buneman</last></author>
             <price>39</price></book>
           <book year="1998"><title>Old Web</title>
             <author><last>Abiteboul</last></author>
             <price>25</price></book>
         </bib>|})

let reviews_doc =
  Dtree.of_xml_element
    (Xml_parser.parse_element_exn
       {|<reviews>
           <review><title>TCP Illustrated</title><rating>5</rating></review>
           <review><title>Data on the Web</title><rating>4</rating></review>
         </reviews>|})

let resolver = function
  | "bib" -> [ bib_doc ]
  | "reviews" -> [ reviews_doc ]
  | _ -> raise Not_found

let parse = Xq_parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let q =
    parse
      {|WHERE <book year=$y><title>$t</title></book> IN "bib", $y > 1995
        CONSTRUCT <res><t>$t</t></res>|}
  in
  check int_t "one clause" 1 (List.length q.Xq_ast.clauses);
  check int_t "one condition" 1 (List.length q.Xq_ast.conditions);
  check (Alcotest.list string_t) "vars" [ "y"; "t" ] (Xq_ast.query_vars q)

let test_parse_multi_clause () =
  let q =
    parse
      {|WHERE <book><title>$t</title></book> IN "bib",
             <review><title>$t</title><rating>$r</rating></review> IN "reviews"
        CONSTRUCT <out><t>$t</t><r>$r</r></out>|}
  in
  check int_t "two clauses" 2 (List.length q.Xq_ast.clauses);
  check (Alcotest.list string_t) "sources" [ "bib"; "reviews" ] (Xq_ast.sources_of q)

let test_parse_element_as () =
  let q = parse {|WHERE <book/> ELEMENT_AS $b IN "bib" CONSTRUCT <o>$b</o>|} in
  match (List.hd q.Xq_ast.clauses).Xq_ast.clause_pattern.Xq_ast.element_as with
  | Some v -> check string_t "bound" "b" v
  | None -> Alcotest.fail "expected ELEMENT_AS"

let test_parse_order_limit () =
  let q =
    parse
      {|WHERE <book><price>$p</price></book> IN "bib"
        CONSTRUCT <x>$p</x> ORDER BY $p DESC LIMIT 2|}
  in
  check int_t "order specs" 1 (List.length q.Xq_ast.order_by);
  check (Alcotest.option int_t) "limit" (Some 2) q.Xq_ast.limit

let test_parse_nested_subquery () =
  let q =
    parse
      {|WHERE <book><author>$a</author></book> IN "bib"
        CONSTRUCT <entry>$a
          { WHERE <book><author>$a</author><title>$t</title></book> IN "bib"
            CONSTRUCT <wrote>$t</wrote> }
        </entry>|}
  in
  (match q.Xq_ast.construct with
  | Xq_ast.Tpl_element (_, _, kids) ->
    check bool_t "has subquery" true
      (List.exists (function Xq_ast.Tpl_subquery _ -> true | _ -> false) kids)
  | _ -> Alcotest.fail "expected element template");
  check (Alcotest.list string_t) "all sources dedup" [ "bib" ] (Xq_ast.all_sources_of q)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Xq_parser.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [
      "";
      "WHERE CONSTRUCT <a/>";
      "WHERE <a/> IN \"s\"";
      "WHERE <a></b> IN \"s\" CONSTRUCT <x/>";
      "WHERE <a/> IN \"s\" CONSTRUCT <x>";
      "WHERE $x > 1 CONSTRUCT <x/>";
      "WHERE <a/> IN \"s\" CONSTRUCT <x/> LIMIT no";
    ]

let test_parse_union () =
  let qs =
    Xq_parser.parse_union_exn
      {|WHERE <a>$x</a> IN "s1" CONSTRUCT <r>$x</r>
        UNION
        WHERE <b>$y</b> IN "s2" CONSTRUCT <r>$y</r> LIMIT 3|}
  in
  check int_t "two branches" 2 (List.length qs);
  check (Alcotest.option int_t) "limit on second branch" (Some 3) (List.nth qs 1).Xq_ast.limit;
  check int_t "single query is a one-element union" 1
    (List.length (Xq_parser.parse_union_exn {|WHERE <a>$x</a> IN "s" CONSTRUCT <r>$x</r>|}));
  match Xq_parser.parse_union {|WHERE <a>$x</a> IN "s" CONSTRUCT <r/> UNION garbage|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected union parse error"

let test_pretty_roundtrip () =
  let cases =
    [
      {|WHERE <book year=$y><title>$t</title></book> IN "bib", $y > 1995 CONSTRUCT <r><t>$t</t></r>|};
      {|WHERE <book/> ELEMENT_AS $b IN "bib" CONSTRUCT <o>$b</o>|};
      {|WHERE <book><price>$p</price></book> IN "bib" CONSTRUCT <x>$p</x> ORDER BY $p DESC LIMIT 2|};
      {|WHERE <a x="1"><b>"txt"</b></a> IN "s", $v LIKE 'z%' CONSTRUCT <o n={upper($v)}>$v</o>|};
    ]
  in
  List.iter
    (fun s ->
      let q = parse s in
      let printed = Xq_pretty.query_to_string q in
      let q2 = parse printed in
      let printed2 = Xq_pretty.query_to_string q2 in
      check string_t ("fixpoint: " ^ s) printed printed2)
    cases

(* ------------------------------------------------------------------ *)
(* Pattern matching semantics                                          *)
(* ------------------------------------------------------------------ *)

let pat_of s =
  (* parse a pattern by wrapping it in a trivial query *)
  let q = parse (Printf.sprintf {|WHERE %s IN "bib" CONSTRUCT <x/>|} s) in
  (List.hd q.Xq_ast.clauses).Xq_ast.clause_pattern

let test_match_multimatch () =
  (* A pattern with an <author> child matches once per author. *)
  let p = pat_of "<book><author>$a</author></book>" in
  let first_book = List.hd (Dtree.kids bib_doc) in
  let second_book = List.nth (Dtree.kids bib_doc) 1 in
  check int_t "one author" 1 (List.length (Xq_eval.match_pattern p first_book));
  check int_t "two authors, two bindings" 2
    (List.length (Xq_eval.match_pattern p second_book))

let test_match_shared_var_consistency () =
  (* The same variable in two positions must bind equal values. *)
  let p = pat_of "<book><title>$x</title><price>$x</price></book>" in
  let first_book = List.hd (Dtree.kids bib_doc) in
  check int_t "title <> price, no match" 0 (List.length (Xq_eval.match_pattern p first_book))

let test_match_attr_literal () =
  let p = pat_of {|<book year="1994"/>|} in
  check int_t "matches one book" 1 (List.length (Xq_eval.match_anywhere p bib_doc))

let test_match_wildcard_tag () =
  let p = pat_of "<*><last>$l</last></*>" in
  check int_t "authors matched via wildcard" 4
    (List.length (Xq_eval.match_anywhere p bib_doc))

let test_match_text_pattern () =
  let p = pat_of {|<title>"Old Web"</title>|} in
  check int_t "one title" 1 (List.length (Xq_eval.match_anywhere p bib_doc))

(* The pre-order walk spelled out: a node's own matches, then each
   child subtree's, concatenated. *)
let rec preorder_matches p t =
  Xq_eval.match_pattern p t
  @ List.concat_map
      (fun k -> match k with Dtree.Node _ -> preorder_matches p k | Dtree.Atom _ -> [])
      (Dtree.kids t)

let test_match_anywhere_linear () =
  let same_order p doc =
    List.equal Alg_env.equal (Xq_eval.match_anywhere p doc) (preorder_matches p doc)
  in
  check Alcotest.bool "wildcard matches in pre-order" true
    (same_order (pat_of "<*><last>$l</last></*>") bib_doc);
  let n = 20_000 in
  let doc =
    Source.table_document "t"
      (List.init n (fun i ->
           Tuple.make
             [ ("id", Value.Int (i + 1)); ("name", Value.String (Printf.sprintf "n%d" i)) ]))
  in
  let p = pat_of "<row><id>$i</id></row>" in
  let t0 = Sys.time () in
  let envs = Xq_eval.match_anywhere p doc in
  let elapsed = Sys.time () -. t0 in
  check (Alcotest.list int_t) "one match per row, in row order" (List.init n (fun i -> i + 1))
    (List.map
       (fun env -> match Alg_env.value_of env "i" with Value.Int i -> i | _ -> -1)
       envs);
  check Alcotest.bool "same order as the pre-order walk" true (same_order p doc);
  (* Appending each node's matches to the accumulator makes the walk
     quadratic, seconds at this size; a linear walk takes milliseconds. *)
  check Alcotest.bool
    (Printf.sprintf "20k rows in linear time (%.3fs)" elapsed)
    true (elapsed < 1.5)

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let eval q = Xq_eval.eval resolver (parse q)

let test_eval_filter () =
  let results =
    eval
      {|WHERE <book year=$y><title>$t</title></book> IN "bib", $y >= 1998
        CONSTRUCT <hit>$t</hit>|}
  in
  check int_t "two books" 2 (List.length results)

let test_eval_join_across_sources () =
  let results =
    eval
      {|WHERE <book><title>$t</title><price>$p</price></book> IN "bib",
             <review><title>$t</title><rating>$r</rating></review> IN "reviews"
        CONSTRUCT <scored><t>$t</t><r>$r</r><p>$p</p></scored>|}
  in
  check int_t "two reviewed books" 2 (List.length results);
  let first = Dtree.to_xml_element (List.hd results) in
  check string_t "tag" "scored" first.Xml_types.tag

let test_eval_order_limit () =
  let results =
    eval
      {|WHERE <book><title>$t</title><price>$p</price></book> IN "bib"
        CONSTRUCT <b>$p</b> ORDER BY $p DESC LIMIT 2|}
  in
  let prices = List.map Dtree.text results in
  check (Alcotest.list string_t) "top prices" [ "55"; "39" ] prices

let test_eval_construct_attrs () =
  let results =
    eval
      {|WHERE <book year=$y><title>$t</title></book> IN "bib", $y = 1994
        CONSTRUCT <book y=$y len={length($t)}/>|}
  in
  match results with
  | [ tree ] ->
    check (Alcotest.option value_t) "attr y" (Some (Value.Int 1994)) (Dtree.attr tree "y");
    check (Alcotest.option value_t) "computed len" (Some (Value.Int 15)) (Dtree.attr tree "len")
  | _ -> Alcotest.fail "expected one result"

let test_eval_content_splice () =
  (* $a binds author content; splicing it into the output keeps the
     nested <last> element. *)
  let results =
    eval
      {|WHERE <book year=$y><author>$a</author></book> IN "bib", $y = 1994
        CONSTRUCT <who>$a</who>|}
  in
  match results with
  | [ tree ] -> (
    match Dtree.kids_named tree "last" with
    | [ last ] -> check string_t "kept structure" "Stevens" (Dtree.text last)
    | _ -> Alcotest.fail "expected <last> child")
  | _ -> Alcotest.fail "expected one result"

let test_eval_element_as () =
  let results =
    eval {|WHERE <book year=$y/> ELEMENT_AS $b IN "bib", $y = 2000 CONSTRUCT <keep>$b</keep>|}
  in
  match results with
  | [ tree ] -> (
    match Dtree.kids_named tree "book" with
    | [ book ] -> check int_t "book kept whole" 4 (List.length (Dtree.kids book))
    | _ -> Alcotest.fail "expected embedded <book>")
  | _ -> Alcotest.fail "expected one result"

let test_eval_nested_grouping () =
  (* Group titles by author last name via a correlated subquery. *)
  let results =
    eval
      {|WHERE <book><author><last>$l</last></author></book> IN "bib"
        CONSTRUCT <byauthor><last>$l</last></byauthor>|}
  in
  (* 1 + 2 + 1 author elements across the three books, Abiteboul twice *)
  check int_t "ungrouped has dup" 4 (List.length results);
  let grouped =
    eval
      {|WHERE <book><author><last>$l</last></author></book> IN "bib"
        CONSTRUCT <byauthor><last>$l</last>
          { WHERE <book><author><last>$l</last></author><title>$t</title></book> IN "bib"
            CONSTRUCT <wrote>$t</wrote> }
        </byauthor>|}
  in
  (* still one result per binding, but each embeds that author's books *)
  let abiteboul =
    List.find
      (fun tree ->
        match Dtree.first_named tree "last" with
        | Some l -> Dtree.text l = "Abiteboul"
        | None -> false)
      grouped
  in
  check int_t "correlated subquery found both books" 2
    (List.length (Dtree.kids_named abiteboul "wrote"))

let test_eval_aggregates () =
  (* Per-book author count, total price, and global min price. *)
  let results =
    eval
      {|WHERE <book><title>$t</title></book> IN "bib"
        CONSTRUCT <stats><t>$t</t>
          <authors>{ COUNT WHERE <book><title>$t</title><author>$a</author></book> IN "bib"
                     CONSTRUCT <a>$a</a> }</authors>
        </stats>|}
  in
  check int_t "three books" 3 (List.length results);
  let counts =
    List.map
      (fun tree ->
        match Dtree.first_named tree "authors" with
        | Some c -> Dtree.text c
        | None -> "?")
      results
  in
  check (Alcotest.list string_t) "author counts" [ "1"; "2"; "1" ] counts;
  let totals =
    eval
      {|WHERE <bib/> ELEMENT_AS $b IN "bib"
        CONSTRUCT <summary>
          <total>{ SUM WHERE <book><price>$p</price></book> IN "bib" CONSTRUCT <p>$p</p> }</total>
          <cheapest>{ MIN WHERE <book><price>$p</price></book> IN "bib" CONSTRUCT <p>$p</p> }</cheapest>
          <avg>{ AVG WHERE <book><price>$p</price></book> IN "bib" CONSTRUCT <p>$p</p> }</avg>
        </summary>|}
  in
  (match totals with
  | [ s ] ->
    let get f = match Dtree.first_named s f with Some k -> Dtree.text k | None -> "?" in
    check string_t "sum" "119" (get "total");
    check string_t "min" "25" (get "cheapest");
    check bool_t "avg about 39.7" true
      (match float_of_string_opt (get "avg") with
      | Some f -> abs_float (f -. 39.6666) < 0.01
      | None -> false)
  | _ -> Alcotest.fail "expected one summary");
  (* empty aggregate: count 0, sum null *)
  let empty =
    eval
      {|WHERE <bib/> ELEMENT_AS $b IN "bib"
        CONSTRUCT <z><c>{ COUNT WHERE <book><price>$p</price></book> IN "bib", $p > 1000
                          CONSTRUCT <p>$p</p> }</c></z>|}
  in
  check string_t "count of none" "0" (Dtree.text (List.hd empty))

let test_eval_to_xml () =
  let e =
    Xq_eval.eval_to_xml resolver
      (parse {|WHERE <book><title>$t</title></book> IN "bib" CONSTRUCT <t>$t</t>|})
  in
  check string_t "wrapper" "results" e.Xml_types.tag;
  check int_t "three titles" 3 (List.length (Xml_types.children_named e "t"))

let test_eval_unknown_source () =
  try
    ignore (eval {|WHERE <x/> IN "nope" CONSTRUCT <y/>|});
    Alcotest.fail "expected Eval_error"
  with Xq_eval.Eval_error _ -> ()

let test_condition_tree_access () =
  (* Conditions can use /child and /@attr postfix paths. *)
  let results =
    eval
      {|WHERE <book/> ELEMENT_AS $b IN "bib", $b/price > 30
        CONSTRUCT <x>{$b/title}</x>|}
  in
  check int_t "two expensive books" 2 (List.length results)

let () =
  Alcotest.run "xmlql"
    [
      ( "parser",
        [
          Alcotest.test_case "simple query" `Quick test_parse_simple;
          Alcotest.test_case "multi clause" `Quick test_parse_multi_clause;
          Alcotest.test_case "element_as" `Quick test_parse_element_as;
          Alcotest.test_case "order/limit" `Quick test_parse_order_limit;
          Alcotest.test_case "nested subquery" `Quick test_parse_nested_subquery;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "union parsing" `Quick test_parse_union;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
        ] );
      ( "matching",
        [
          Alcotest.test_case "multi-match per child" `Quick test_match_multimatch;
          Alcotest.test_case "shared variable consistency" `Quick test_match_shared_var_consistency;
          Alcotest.test_case "attribute literal" `Quick test_match_attr_literal;
          Alcotest.test_case "wildcard tag" `Quick test_match_wildcard_tag;
          Alcotest.test_case "text pattern" `Quick test_match_text_pattern;
          Alcotest.test_case "anywhere: pre-order, linear" `Quick test_match_anywhere_linear;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "filter" `Quick test_eval_filter;
          Alcotest.test_case "join across sources" `Quick test_eval_join_across_sources;
          Alcotest.test_case "order by / limit" `Quick test_eval_order_limit;
          Alcotest.test_case "construct attributes" `Quick test_eval_construct_attrs;
          Alcotest.test_case "content splice" `Quick test_eval_content_splice;
          Alcotest.test_case "element_as splice" `Quick test_eval_element_as;
          Alcotest.test_case "nested grouping" `Quick test_eval_nested_grouping;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "to_xml wrapper" `Quick test_eval_to_xml;
          Alcotest.test_case "unknown source" `Quick test_eval_unknown_source;
          Alcotest.test_case "condition tree access" `Quick test_condition_tree_access;
        ] );
    ]
