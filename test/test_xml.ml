(* Tests for the XML substrate: parser, printer, cursor navigation and
   the path language. *)

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let parse s = Xml_parser.parse_element_exn s

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let e = parse "<a/>" in
  check string_t "tag" "a" e.Xml_types.tag;
  check int_t "no children" 0 (List.length e.Xml_types.children)

let test_parse_attrs () =
  let e = parse {|<a x="1" y='two'/>|} in
  check (Alcotest.option string_t) "x" (Some "1") (Xml_types.attr e "x");
  check (Alcotest.option string_t) "y" (Some "two") (Xml_types.attr e "y");
  check (Alcotest.option string_t) "absent" None (Xml_types.attr e "z")

let test_parse_nested () =
  let e = parse "<a><b><c>hi</c></b><b/></a>" in
  check int_t "two b children" 2 (List.length (Xml_types.children_named e "b"));
  check string_t "text content" "hi" (Xml_types.text_content e)

let test_parse_entities () =
  let e = parse "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>" in
  check string_t "decoded" {|<x> & "y" 'z'|} (Xml_types.text_content e)

let test_parse_numeric_entities () =
  let e = parse "<a>&#65;&#x42;</a>" in
  check string_t "decoded" "AB" (Xml_types.text_content e)

let test_parse_cdata () =
  let e = parse "<a><![CDATA[<not-parsed> & raw]]></a>" in
  check string_t "cdata" "<not-parsed> & raw" (Xml_types.text_content e)

let test_parse_comment_dropped_from_text () =
  let e = parse "<a>x<!-- hidden -->y</a>" in
  check string_t "text skips comments" "xy" (Xml_types.text_content e)

let test_parse_pi () =
  let e = parse "<a><?target data?></a>" in
  match e.Xml_types.children with
  | [ Xml_types.Pi (t, c) ] ->
    check string_t "target" "target" t;
    check string_t "content" "data" c
  | _ -> Alcotest.fail "expected a PI child"

let test_parse_document () =
  let d =
    Xml_parser.parse_document_exn
      {|<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE r><r><x/></r>|}
  in
  check string_t "root" "r" d.Xml_types.root.Xml_types.tag;
  check (Alcotest.option string_t) "decl version" (Some "1.0")
    (List.assoc_opt "version" d.Xml_types.decl)

let test_parse_errors () =
  let fails s =
    match Xml_parser.parse_element s with
    | Ok _ -> Alcotest.failf "expected failure on %S" s
    | Error _ -> ()
  in
  fails "<a>";
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "<a x=1/>";
  fails "<a>&unknown;</a>";
  fails "<a/><b/>";
  fails ""

let test_mismatch_error_message () =
  match Xml_parser.parse_element "<a><b></c></a>" with
  | Error e ->
    check bool_t "mentions both tags"
      true
      (let s = Xml_parser.error_to_string e in
       let has sub =
         let n = String.length sub and m = String.length s in
         let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has "c" && has "b")
  | Ok _ -> Alcotest.fail "expected mismatch error"

(* ------------------------------------------------------------------ *)
(* Printer round trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_manual () =
  let cases =
    [
      "<a/>";
      {|<a x="1"/>|};
      "<a>text</a>";
      "<a><b/><c>t</c></a>";
      {|<a x="&lt;&amp;&quot;">&lt;&amp;&gt;</a>|};
    ]
  in
  List.iter
    (fun s ->
      let e = parse s in
      let s' = Xml_print.element_to_string e in
      let e' = parse s' in
      check bool_t ("roundtrip " ^ s) true (Xml_types.equal_element e e'))
    cases

(* Generator of random XML trees for property tests. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "item"; "row" ] in
  let attr_name = oneofl [ "id"; "k"; "name" ] in
  let text_frag =
    oneofl [ "hello"; "x < y"; "a&b"; "\"quoted\""; "multi word"; "42" ]
  in
  let rec tree depth =
    if depth = 0 then map (fun t -> Xml_types.text t) text_frag
    else
      frequency
        [
          (2, map (fun t -> Xml_types.text t) text_frag);
          ( 3,
            map3
              (fun tag attrs kids -> Xml_types.el ~attrs tag kids)
              tag
              (small_list (pair attr_name text_frag)
              |> map (fun l ->
                     (* dedupe attr names *)
                     let seen = Hashtbl.create 4 in
                     List.filter
                       (fun (n, _) ->
                         if Hashtbl.mem seen n then false
                         else begin
                           Hashtbl.add seen n ();
                           true
                         end)
                       l))
              (list_size (int_bound 3) (tree (depth - 1))) );
        ]
  in
  QCheck2.Gen.map
    (fun kids -> Xml_types.elem "root" kids)
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 4) (tree 3))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"xml print/parse roundtrip" ~count:200 gen_tree (fun e ->
      (* Adjacent text nodes merge on reparse, so normalize first by
         printing and reparsing once, then compare the fixpoint. *)
      let once = Xml_parser.parse_element_exn (Xml_print.element_to_string e) in
      let twice = Xml_parser.parse_element_exn (Xml_print.element_to_string once) in
      Xml_types.equal_element once twice)

let prop_count_nodes_positive =
  QCheck2.Test.make ~name:"count_nodes >= 1" ~count:100 gen_tree (fun e ->
      Xml_types.count_nodes e >= 1)

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)
(* ------------------------------------------------------------------ *)

let sample () =
  parse "<lib><shelf id=\"1\"><book>A</book><book>B</book></shelf><shelf id=\"2\"><book>C</book></shelf></lib>"

let test_cursor_children () =
  let c = Xml_cursor.of_root (sample ()) in
  check int_t "two shelves" 2 (List.length (Xml_cursor.children c))

let test_cursor_parent () =
  let c = Xml_cursor.of_root (sample ()) in
  let shelf = List.hd (Xml_cursor.children c) in
  match Xml_cursor.parent shelf with
  | Some p -> check string_t "parent tag" "lib" (Xml_cursor.element p).Xml_types.tag
  | None -> Alcotest.fail "expected parent"

let test_cursor_siblings () =
  let c = Xml_cursor.of_root (sample ()) in
  let shelf1 = List.hd (Xml_cursor.children c) in
  (match Xml_cursor.next_sibling shelf1 with
  | Some s ->
    check (Alcotest.option string_t) "shelf 2" (Some "2")
      (Xml_types.attr (Xml_cursor.element s) "id")
  | None -> Alcotest.fail "expected next sibling");
  check bool_t "no prev sibling" true (Xml_cursor.prev_sibling shelf1 = None)

let test_cursor_descendants_order () =
  let c = Xml_cursor.of_root (sample ()) in
  let tags =
    List.map (fun d -> (Xml_cursor.element d).Xml_types.tag) (Xml_cursor.descendants c)
  in
  check (Alcotest.list string_t) "preorder"
    [ "shelf"; "book"; "book"; "shelf"; "book" ]
    tags

let test_cursor_document_order () =
  let c = Xml_cursor.of_root (sample ()) in
  let ds = Xml_cursor.descendants c in
  let sorted = List.sort Xml_cursor.compare_order ds in
  check bool_t "already in document order" true
    (List.for_all2 (fun a b -> Xml_cursor.compare_order a b = 0) ds sorted)

let test_cursor_root () =
  let c = Xml_cursor.of_root (sample ()) in
  let deep = List.nth (Xml_cursor.descendants c) 1 in
  check string_t "root from deep" "lib" (Xml_cursor.element (Xml_cursor.root deep)).Xml_types.tag

(* ------------------------------------------------------------------ *)
(* Path language                                                       *)
(* ------------------------------------------------------------------ *)

let select path root = Xml_path.select (Xml_path.parse_exn path) root

let test_path_child () =
  check int_t "shelves" 2 (List.length (select "/shelf" (sample ())))

let test_path_descendant () =
  check int_t "books" 3 (List.length (select "//book" (sample ())))

let test_path_attr_pred () =
  let shelves = select "/shelf[@id='2']" (sample ()) in
  check int_t "one shelf" 1 (List.length shelves);
  check int_t "one book inside" 1 (List.length (Xml_types.children_named (List.hd shelves) "book"))

let test_path_text_pred () =
  let books = select "//book[text()='B']" (sample ()) in
  check int_t "one book" 1 (List.length books)

let test_path_position () =
  let books = select "/shelf/book[position()=2]" (sample ()) in
  check int_t "second book of first shelf" 1 (List.length books);
  check string_t "is B" "B" (Xml_types.text_content (List.hd books))

let test_path_parent_axis () =
  let shelves = select "//book/.." (sample ()) in
  check int_t "two distinct shelves (dedup)" 2 (List.length shelves)

let test_path_wildcard () =
  check int_t "all children of root" 2 (List.length (select "/*" (sample ())))

let test_path_select_strings () =
  let p = Xml_path.parse_exn "//book" in
  check (Alcotest.list string_t) "book texts" [ "A"; "B"; "C" ]
    (Xml_path.select_strings p (sample ()))

let test_path_attr_step () =
  let p = Xml_path.parse_exn "/shelf/@id" in
  check (Alcotest.list string_t) "ids" [ "1"; "2" ] (Xml_path.select_strings p (sample ()))

let test_path_axis_syntax () =
  check int_t "explicit child axis" 3
    (List.length (select "descendant::book" (sample ())));
  check int_t "following-sibling" 1
    (List.length (select "/shelf[position()=1]/following-sibling::shelf" (sample ())))

let test_path_numeric_compare () =
  let root = parse "<r><p><price>5</price></p><p><price>12</price></p></r>" in
  check int_t "price > 10" 1 (List.length (select "/p[price>'10']" root))

let test_path_parse_errors () =
  List.iter
    (fun s ->
      match Xml_path.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ ""; "/"; "//"; "/a[" ; "/a[@]"; "/a[position()='x']"; "/unknown::a" ]

let test_path_roundtrip () =
  List.iter
    (fun s ->
      let p = Xml_path.parse_exn s in
      let p' = Xml_path.parse_exn (Xml_path.to_string p) in
      check string_t ("path roundtrip " ^ s) (Xml_path.to_string p) (Xml_path.to_string p'))
    [ "/a/b"; "//x[@id='3']"; "a/b[text()='t']/.."; "/s/book[position()=2]" ]

let test_path_matches () =
  check bool_t "matches" true (Xml_path.matches (Xml_path.parse_exn "//book") (sample ()));
  check bool_t "no match" false (Xml_path.matches (Xml_path.parse_exn "//dvd") (sample ()))

(* Every <b> below is reachable from several <a> ancestors; the result
   must still carry each node once, in document order — the set
   semantics the structural index relies on (see Idx_guide). *)
let test_path_descendant_set_semantics () =
  let e = parse "<r><a><a><b>1</b><a><b>2</b></a></a><b>3</b></a><b>4</b></r>" in
  let got = List.map Xml_types.text_content (select "//a//b" e) in
  check (Alcotest.list string_t) "each once, document order" [ "1"; "2"; "3" ] got;
  let got = List.map Xml_types.text_content (select "//a/descendant-or-self::b" e) in
  check (Alcotest.list string_t) "descendant-or-self dedups too" [ "1"; "2"; "3" ] got

let test_path_axes_at_edges () =
  let e = parse "<r><only><c>x</c></only></r>" in
  (* Upward axes off the root: nothing above, no crash, no phantom. *)
  check int_t "parent of root" 0 (List.length (select "/.." e));
  check int_t "ancestors of root" 0 (List.length (select "/ancestor::*" e));
  (* Sibling axes on an only child. *)
  check int_t "following-sibling of only child" 0
    (List.length (select "/only/following-sibling::*" e));
  check int_t "preceding-sibling of only child" 0
    (List.length (select "/only/preceding-sibling::*" e));
  (* Ancestors come back deduplicated and each exactly once. *)
  let anc = select "//c/ancestor::*" e in
  check int_t "two ancestors of c" 2 (List.length anc)

let test_path_position_under_descendant () =
  let e = parse "<r><s><b>1</b><b>2</b></s><s><b>3</b></s></r>" in
  (* position() is per expansion context (the node set one step yields
     from one input node), not global: each <s> restarts the count. *)
  let first = List.map Xml_types.text_content (select "//s/b[position()=1]" e) in
  check (Alcotest.list string_t) "first b of each s" [ "1"; "3" ] first;
  let second = List.map Xml_types.text_content (select "//s/b[position()=2]" e) in
  check (Alcotest.list string_t) "second b where present" [ "2" ] second

(* Literals render injectively: single quotes, else double quotes, else
   single quotes with each one doubled.  Quote-free literals render as
   they always did. *)
let test_path_literal_quoting () =
  let attr v = { Xml_path.absolute = false;
                 steps = [ { Xml_path.axis = Xml_path.Child; test = Xml_path.Name "c";
                             preds = [ Xml_path.Attr_cmp ("name", Xml_path.Eq, v) ] } ] } in
  let show v = Xml_path.to_string (attr v) in
  check string_t "plain" "child::c[@name='x']" (show "x");
  check string_t "a single quote" {|child::c[@name="it's"]|} (show "it's");
  check string_t "both quotes" {|child::c[@name='it''s "q"']|} (show {|it's "q"|});
  check string_t "quote-free paths unchanged" "/descendant::x[@id='3'][text()>='10']"
    (Xml_path.to_string (Xml_path.parse_exn "//x[@id='3'][text()>='10']"));
  let two =
    { Xml_path.absolute = false;
      steps = [ { Xml_path.axis = Xml_path.Child; test = Xml_path.Name "c";
                  preds = [ Xml_path.Attr_cmp ("name", Xml_path.Eq, "x");
                            Xml_path.Attr_cmp ("id", Xml_path.Eq, "y") ] } ] }
  in
  check bool_t "a value holding a predicate prints unlike two predicates" true
    (show "x'][@id='y" <> Xml_path.to_string two);
  List.iter
    (fun v ->
      check bool_t ("parses back: " ^ v) true (Xml_path.parse (show v) = Ok (attr v)))
    [ ""; "x'][@id='y"; "it's"; {|say "hi"|}; {|'"'|}; "''"; {|""|} ];
  check string_t "doubled quote in double quotes" {|a"b|}
    (match (Xml_path.parse_exn {|c[@n="a""b"]|}).Xml_path.steps with
    | [ { Xml_path.preds = [ Xml_path.Attr_cmp (_, _, v) ]; _ } ] -> v
    | _ -> "?")

(* The IN-list predicate: a relative child path, optionally ending in an
   attribute, against a key set compared as [compare_values] compares. *)
let test_path_in_list () =
  let root =
    parse
      {|<cat><c n="1"><p sku="S1"><q>014</q></p><p sku="S2"/></c><c n="2"><p sku="S3"><q>7.5</q></p></c><c><p><q>x</q></p></c></cat>|}
  in
  let names path =
    List.map
      (fun e -> Option.value ~default:"-" (Xml_types.attr e "n"))
      (select path root)
  in
  let p = Xml_path.parse_exn "/c[p/@sku in ('S3','S1','S1')]" in
  check string_t "keys print sorted and deduplicated" "/child::c[p/@sku in ('S1','S3')]"
    (Xml_path.to_string p);
  check (Alcotest.list string_t) "both categories" [ "1"; "2" ] (names "/c[p/@sku in ('S3','S1')]");
  check (Alcotest.list string_t) "a repeated child matches on any" [ "1" ]
    (names "/c[p/@sku in ('S2')]");
  check (Alcotest.list string_t) "no keys, no match" [] (names "/c[p/@sku in ()]");
  check (Alcotest.list string_t) "a missing attribute never matches" [] (names "/c[p/@sku in ('')]");
  check (Alcotest.list string_t) "text: 014 equals 14" [ "1" ] (names "/c[p/q in (14)]");
  check (Alcotest.list string_t) "text: 7.50 equals 7.5" [ "2" ] (names "/c[p/q in ('7.50')]");
  check (Alcotest.list string_t) "text: strings compare as strings" [ "-" ] (names "/c[p/q in ('x')]");
  check (Alcotest.list string_t) "own attribute" [ "2" ] (names "/c[@n in ('2.0')]");
  check int_t "own text" 1 (List.length (select "//q[text() in ('x','y')]" root));
  check bool_t "in needs a key list" true (Result.is_error (Xml_path.parse "/c[p/@sku in 'S1']"));
  check bool_t "a child path needs in" true (Result.is_error (Xml_path.parse "/c[p/@sku='S1']"));
  check bool_t "a child named in" true (Result.is_ok (Xml_path.parse "/c[in][index='1']"))

let gen_path =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "sku"; "in"; "text"; "position"; "x-1"; "n.s"; "p:q" ] in
  let lit =
    string_size ~gen:(oneofl [ 'a'; '\''; '"'; ']'; '['; ' '; '1'; '.'; ','; '('; ')' ]) (int_bound 6)
  in
  let op = oneofl Xml_path.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let pred =
    oneof
      [ map (fun n -> Xml_path.Has_attr n) name;
        map3 (fun n o v -> Xml_path.Attr_cmp (n, o, v)) name op lit;
        map (fun n -> Xml_path.Child_exists n) name;
        map3 (fun n o v -> Xml_path.Child_cmp (n, o, v)) name op lit;
        map2 (fun o v -> Xml_path.Text_cmp (o, v)) op lit;
        map (fun k -> Xml_path.Position k) (int_range (-3) 9);
        map3
          (fun rel attr keys -> Xml_path.in_list ?attr rel keys)
          (list_size (int_bound 3) name) (opt name) (list_size (int_bound 4) lit) ]
  in
  let axis =
    oneofl
      Xml_path.[ Child; Descendant; Descendant_or_self; Parent; Ancestor; Self;
                 Following_sibling; Preceding_sibling ]
  in
  let test =
    oneof
      [ map (fun n -> Xml_path.Name n) name; pure Xml_path.Any_element; pure Xml_path.Text_node;
        map (fun n -> Xml_path.Attribute n) name ]
  in
  let step =
    map3 (fun axis test preds -> { Xml_path.axis; test; preds }) axis test
      (list_size (int_bound 3) pred)
  in
  map2 (fun absolute steps -> { Xml_path.absolute; steps }) bool (list_size (int_range 1 4) step)

let prop_path_parse_print =
  QCheck2.Test.make ~name:"path parse (to_string p) = p" ~count:500 ~print:Xml_path.to_string
    gen_path (fun p -> Xml_path.parse (Xml_path.to_string p) = Ok p)

(* ------------------------------------------------------------------ *)
(* Pretty printer                                                      *)
(* ------------------------------------------------------------------ *)

let test_pretty_parses_back () =
  let e = sample () in
  let pretty = Xml_print.element_to_pretty_string e in
  let e' = parse pretty in
  (* Whitespace-only text may be introduced; compare structure via paths. *)
  check int_t "same book count" 3 (List.length (select "//book" e'))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_print_parse_roundtrip; prop_count_nodes_positive; prop_path_parse_print ]
  in
  Alcotest.run "xml"
    [
      ( "parser",
        [
          Alcotest.test_case "simple element" `Quick test_parse_simple;
          Alcotest.test_case "attributes" `Quick test_parse_attrs;
          Alcotest.test_case "nesting" `Quick test_parse_nested;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "numeric entities" `Quick test_parse_numeric_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments" `Quick test_parse_comment_dropped_from_text;
          Alcotest.test_case "processing instruction" `Quick test_parse_pi;
          Alcotest.test_case "document with prolog" `Quick test_parse_document;
          Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
          Alcotest.test_case "mismatch error message" `Quick test_mismatch_error_message;
        ] );
      ( "printer",
        [
          Alcotest.test_case "manual roundtrips" `Quick test_roundtrip_manual;
          Alcotest.test_case "pretty output reparses" `Quick test_pretty_parses_back;
        ]
        @ qsuite );
      ( "cursor",
        [
          Alcotest.test_case "children" `Quick test_cursor_children;
          Alcotest.test_case "parent" `Quick test_cursor_parent;
          Alcotest.test_case "siblings" `Quick test_cursor_siblings;
          Alcotest.test_case "descendants preorder" `Quick test_cursor_descendants_order;
          Alcotest.test_case "document order" `Quick test_cursor_document_order;
          Alcotest.test_case "root" `Quick test_cursor_root;
        ] );
      ( "path",
        [
          Alcotest.test_case "child step" `Quick test_path_child;
          Alcotest.test_case "descendant step" `Quick test_path_descendant;
          Alcotest.test_case "attribute predicate" `Quick test_path_attr_pred;
          Alcotest.test_case "text predicate" `Quick test_path_text_pred;
          Alcotest.test_case "position predicate" `Quick test_path_position;
          Alcotest.test_case "parent axis" `Quick test_path_parent_axis;
          Alcotest.test_case "wildcard" `Quick test_path_wildcard;
          Alcotest.test_case "select strings" `Quick test_path_select_strings;
          Alcotest.test_case "attribute step" `Quick test_path_attr_step;
          Alcotest.test_case "axis syntax" `Quick test_path_axis_syntax;
          Alcotest.test_case "numeric comparison" `Quick test_path_numeric_compare;
          Alcotest.test_case "parse errors" `Quick test_path_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
          Alcotest.test_case "matches" `Quick test_path_matches;
          Alcotest.test_case "descendant set semantics" `Quick
            test_path_descendant_set_semantics;
          Alcotest.test_case "axes at tree edges" `Quick test_path_axes_at_edges;
          Alcotest.test_case "position under descendant" `Quick
            test_path_position_under_descendant;
          Alcotest.test_case "literal quoting" `Quick test_path_literal_quoting;
          Alcotest.test_case "in-list predicate" `Quick test_path_in_list;
        ] );
    ]
