(* Tests for the path & value index subsystem: the structural guide,
   value indexes, the manager's probe/epoch/invalidation contract, and
   the indexed ≡ unindexed equivalence property across engines. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let tree_of s = Dtree.of_xml_element (Xml_parser.parse_element_exn s)
let path s = Xml_path.parse_exn s

let walker tree p =
  List.map Dtree.of_xml_element (Xml_path.select p (Dtree.to_xml_element tree))

let render trees = String.concat "\n" (List.map Dtree.to_string trees)

(* Every test owns the global registry. *)
let fresh () =
  Idx_manager.clear ();
  Idx_manager.set_mode Idx_manager.Auto;
  Idx_manager.reset_stats ()

(* ------------------------------------------------------------------ *)
(* Idx_guide                                                           *)
(* ------------------------------------------------------------------ *)

let sample_forest () =
  [
    tree_of "<r><a><b>1</b><a><b>2</b></a></a><b>3</b></r>";
    tree_of "<r><a><b>4</b></a></r>";
  ]

let test_guide_counts () =
  let g = Idx_guide.build (sample_forest ()) in
  (* 2 roots + 3 a + 4 b = 9 element nodes; paths r, r/a, r/a/b, r/a/a,
     r/a/a/b, r/b. *)
  check int_t "nodes" 9 (Idx_guide.node_count g);
  check int_t "paths" 6 (Idx_guide.path_count g);
  check bool_t "bytes accounted" true (Idx_guide.bytes g > 0)

let test_guide_probe_matches_walker () =
  let forest = sample_forest () in
  let g = Idx_guide.build forest in
  List.iteri
    (fun root tree ->
      List.iter
        (fun p ->
          let p = path p in
          match Idx_guide.probe g ~root p with
          | None -> Alcotest.fail "probe should support this path"
          | Some ids ->
            let got = render (List.map (Idx_guide.node g) ids) in
            let want = render (walker tree p) in
            check string_t "probe = walker, document order" want got)
        [ "//b"; "/a/b"; "//a//b"; "//a"; "/*"; "//*" ])
    forest

let test_guide_set_semantics () =
  (* <b>2</b> is reachable from two <a> alignments of //a//b; the guide
     stores it under one label path, so it can only come back once. *)
  let g = Idx_guide.build (sample_forest ()) in
  match Idx_guide.probe g ~root:0 (path "//a//b") with
  | None -> Alcotest.fail "supported"
  | Some ids -> check int_t "each b once" 2 (List.length ids)

let test_guide_unsupported () =
  let g = Idx_guide.build (sample_forest ()) in
  check bool_t "parent axis unsupported" false (Idx_guide.supported (path "//b/.."));
  check bool_t "position unsupported" false
    (Idx_guide.supported (path "/a/b[position()=1]"));
  check bool_t "probe refuses" true (Idx_guide.probe g ~root:0 (path "//b/..") = None)

let test_guide_count_and_keys () =
  let g = Idx_guide.build (sample_forest ()) in
  check (Alcotest.option int_t) "b nodes across roots" (Some 4)
    (Idx_guide.count g (path "//b"));
  match Idx_guide.matching_keys g (path "//a/b") with
  | None -> Alcotest.fail "supported"
  | Some keys -> check int_t "two distinct b paths under a" 2 (List.length keys)

(* ------------------------------------------------------------------ *)
(* Idx_value                                                           *)
(* ------------------------------------------------------------------ *)

let test_value_eq_numeric_and_string () =
  let idx = Idx_value.build [ ("10", 1); ("10.0", 2); ("x", 3); ("10", 4) ] in
  (* 10 and 10.0 are numerically equal — exactly like compare_values. *)
  check (Alcotest.option (Alcotest.list int_t)) "numeric eq" (Some [ 1; 2; 4 ])
    (Idx_value.probe idx Xml_path.Eq "10.00");
  check (Alcotest.option (Alcotest.list int_t)) "string eq" (Some [ 3 ])
    (Idx_value.probe idx Xml_path.Eq "x")

let test_value_range () =
  let idx = Idx_value.build [ ("5", 1); ("50", 2); ("500", 3); ("abc", 4) ] in
  check (Alcotest.option (Alcotest.list int_t)) "lt numeric" (Some [ 1; 2 ])
    (Idx_value.probe idx Xml_path.Lt "100");
  (* "abc" compares as a string against a non-numeric rhs. *)
  check (Alcotest.option (Alcotest.list int_t)) "string order" (Some [ 4 ])
    (Idx_value.probe idx Xml_path.Gt "aaa");
  check bool_t "neq unsupported" true (Idx_value.probe idx Xml_path.Neq "5" = None)

(* ------------------------------------------------------------------ *)
(* Idx_manager: probe equivalence, modes, epoch                        *)
(* ------------------------------------------------------------------ *)

let doc () =
  tree_of
    {|<catalog><product sku="widget"><price>25</price></product><product sku="gadget"><price>70</price></product></catalog>|}

let test_manager_try_select_equals_walker () =
  fresh ();
  let t = doc () in
  Idx_manager.register "src:shop/catalog" [ t ];
  List.iter
    (fun p ->
      let p = path p in
      match Idx_manager.try_select t p with
      | None -> Alcotest.fail "registered root should answer"
      | Some (got, _) ->
        check string_t "byte-identical with walker" (render (walker t p)) (render got))
    [ "//product"; "//product[@sku='widget']"; "//product[price<50]"; "//price" ];
  let g, v, _ = Idx_manager.counters () in
  check bool_t "guide hits ticked" true (g > 0);
  check bool_t "value hits ticked" true (v > 0)

(* The IN-list predicate a path bind join adds: the guide finds the
   categories and the predicate filters them per node, exactly as the
   walker does — numeric keys compare as numbers, a missing attribute
   matches nothing, any of several children may match. *)
let shelf () =
  tree_of
    {|<shelf><category name="a"><product sku="S1" n="1"><id>014</id></product><product sku="S2"/><product><id>7</id></product></category><category name="b"><product sku="it's" n="2.5"><id>x</id></product></category><category name="c"/></shelf>|}

let test_manager_in_list_equals_walker () =
  fresh ();
  let t = shelf () in
  Idx_manager.register "src:shop/shelf" [ t ];
  let cases =
    List.map
      (fun (label, p, n) -> (label, p, n, Idx_manager.Guide))
      [ ("no keys", "//category[product/@sku in ()]", 0);
        ("one key", "//category[product/@sku in ('S2')]", 1);
        ("many keys", "//category[product/@sku in ('S1','it''s','S9')]", 2);
        (* The parsed tree holds <id>014</id> as the INT 14. *)
        ("'014' equals 14", "//category[product/id in ('014')]", 1);
        ("'7.0' equals 7", "//category[product/id in ('7.0')]", 1);
        ("x is no number", "//category[product/id in ('x','0')]", 1);
        ("1.0 equals 1", "//category[product/@n in ('1.0')]", 1);
        ("2.50 equals 2.5", "//category[product/@n in ('2.50','3')]", 1);
        ("a missing attribute matches no key", "//category[product/@n in ('')]", 0);
        ("repeated products: any one matches", "//category[product/id in ('7')]", 1);
        ("a key holding a quote", {|//category[product/@sku in ("it's")]|}, 1);
        ("the candidate's own attribute", "//product[@sku in ('S1','S2')]", 2) ]
    (* An [=] beside the IN-list takes a value probe; the list filters. *)
    @ [ ("with an equality", "//category[@name='a'][product/@sku in ('it''s')]", 0, Idx_manager.Value) ]
  in
  List.iter
    (fun (label, p, expected, probe) ->
      let p = path p in
      match Idx_manager.try_select t p with
      | None -> Alcotest.failf "%s: the guide should answer" label
      | Some (got, outcome) ->
        check bool_t (label ^ ": probe kind") true (outcome = probe);
        check string_t (label ^ ": byte-identical with walker") (render (walker t p)) (render got);
        check int_t (label ^ ": matches") expected (List.length got))
    cases;
  let _, _, misses = Idx_manager.counters () in
  check int_t "the walker never ran" 0 misses

let test_manager_off_and_unregistered () =
  fresh ();
  let t = doc () in
  Idx_manager.register "src:shop/catalog" [ t ];
  Idx_manager.set_mode Idx_manager.Off;
  check bool_t "off never probes" true (Idx_manager.try_select t (path "//product") = None);
  Idx_manager.set_mode Idx_manager.Auto;
  check bool_t "foreign tree unanswered" true
    (Idx_manager.try_select (doc ()) (path "//product") = None)

let test_manager_epoch_planning_visible_only () =
  fresh ();
  let e0 = Idx_manager.epoch () in
  (* Registering (and dropping) a never-built entry is planning-invisible. *)
  Idx_manager.register "src:shop/catalog" [ doc () ];
  check int_t "register alone: no bump" e0 (Idx_manager.epoch ());
  Idx_manager.unregister "src:shop/catalog";
  check int_t "unbuilt drop: no bump" e0 (Idx_manager.epoch ());
  (* A build moves the epoch; dropping the built entry moves it again. *)
  Idx_manager.register "src:shop/catalog" [ doc () ];
  ignore (Idx_manager.build "src:shop/catalog");
  let e1 = Idx_manager.epoch () in
  check bool_t "build bumps" true (e1 > e0);
  Idx_manager.drop_prefix "src:shop/";
  check bool_t "built drop bumps" true (Idx_manager.epoch () > e1);
  let em = Idx_manager.epoch () in
  Idx_manager.set_mode Idx_manager.Eager;
  check bool_t "mode change bumps" true (Idx_manager.epoch () > em)

let test_manager_estimate_never_builds () =
  fresh ();
  Idx_manager.register "src:shop/catalog" [ doc () ];
  check bool_t "no guide yet: unknown" true
    (Idx_manager.estimate "src:shop/catalog" (path "//product") = None);
  ignore (Idx_manager.build "src:shop/catalog");
  check (Alcotest.option (Alcotest.float 0.0)) "exact after build" (Some 2.0)
    (Idx_manager.estimate "src:shop/catalog" (path "//product"))

let test_manager_is_registered () =
  fresh ();
  Idx_manager.register "src:shop/catalog" [ doc () ];
  check bool_t "present" true (Idx_manager.is_registered "src:shop/catalog");
  Idx_manager.drop_prefix "src:shop/";
  check bool_t "dropped" false (Idx_manager.is_registered "src:shop/catalog")

(* ------------------------------------------------------------------ *)
(* QCheck: indexed ≡ unindexed across engines, modes and invalidation  *)
(* ------------------------------------------------------------------ *)

let catalog_xml g nprod =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<catalog>";
  for _ = 1 to nprod do
    Buffer.add_string buf
      (Printf.sprintf
         {|<product sku="sku%d"><price>%d</price><cat>%s</cat></product>|}
         (1 + Prng.int g (max 1 (nprod / 2)))
         (10 + Prng.int g 90)
         (if Prng.int g 2 = 0 then "tools" else "infra"))
  done;
  Buffer.add_string buf "</catalog>";
  Buffer.contents buf

(* The last two join a driver to views over path accesses: bind joins
   that ship the driver's skus as an IN-list.  [sk]'s values are atoms,
   so it narrows with indexing off as well (the walker evaluates the
   predicate); [pc] carries element content and narrows only when the
   store's guide proves its root tag absent. *)
let queries =
  [|
    {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog", $p < 50
      CONSTRUCT <r><s>$s</s><p>$p</p></r>|};
    {|WHERE <r><s>$s</s><p>$p</p></r> IN "cheap"
      CONSTRUCT <x>$s</x>|};
    {|WHERE <product sku=$s><cat>"tools"</cat><price>$p</price></product> IN "products.catalog", $p < 60,
            <sk><sku>$s</sku></sk> IN "sk"
      CONSTRUCT <x>$s</x>|};
    {|WHERE <product sku=$s><cat>"infra"</cat></product> IN "products.catalog",
            <pc><sku>$s</sku><price>$q</price></pc> IN "pc"
      CONSTRUCT <x><s>$s</s><q>$q</q></x>|};
  |]

let engine_of = function
  | 0 -> Alg_exec.Tuple
  | 1 -> Alg_exec.Parallel { domains = 1; chunk = 4 }
  | _ -> Alg_exec.Parallel { domains = 2; chunk = 3 }

let gen_case =
  let open QCheck2.Gen in
  let* seed = int_bound 9_999 in
  let* nprod = int_range 1 25 in
  let* engine = int_bound 2 in
  let* strict = bool in
  let* eager = bool in
  pure (seed, nprod, engine, strict, eager)

let prop_indexed_equals_unindexed =
  QCheck2.Test.make
    ~name:"indexed = unindexed (engines x modes x refresh x invalidation)"
    ~print:(fun (seed, nprod, engine, strict, eager) ->
      Printf.sprintf "seed=%d nprod=%d engine=%d strict=%b eager=%b" seed nprod
        engine strict eager)
    ~count:30 gen_case
    (fun (seed, nprod, engine, strict, eager) ->
      let xml = catalog_xml (Prng.create seed) nprod in
      (* One full session under [mode]: query the source and a
         materialized view, refresh the view, invalidate the source,
         query again — the transcript must not depend on indexing. *)
      let transcript mode =
        Idx_manager.clear ();
        Idx_manager.reset_stats ();
        Idx_manager.set_mode mode;
        let cat = Med_catalog.create () in
        Med_catalog.register_source cat
          (Xml_source.of_xml_strings ~name:"products" [ ("catalog", xml) ]);
        Med_catalog.define_view_text cat "cheap"
          {|WHERE <product sku=$s><price>$p</price></product> IN "products.catalog", $p < 40
            CONSTRUCT <r><s>$s</s><p>$p</p></r>|};
        Med_catalog.define_view_text cat "sk"
          {|WHERE <product sku=$s/> IN "products.catalog" CONSTRUCT <sk><sku>$s</sku></sk>|};
        Med_catalog.define_view_text cat "pc"
          {|WHERE <catalog><product sku=$s><price>$p</price></product></catalog> IN "products.catalog"
            CONSTRUCT <pc><sku>$s</sku><price>$p</price></pc>|};
        Med_catalog.set_exec_mode cat (engine_of engine);
        let store = Mat_store.create cat in
        ignore (Mat_store.materialize store "cheap");
        let view_lookup = Mat_store.lookup store in
        let one q =
          let q = Xq_parser.parse_exn q in
          if strict then render (Med_exec.run ~view_lookup cat q)
          else begin
            let trees, skipped = Med_exec.run_partial ~view_lookup cat q in
            render trees ^ "|" ^ String.concat "," skipped
          end
        in
        let runs = Array.to_list (Array.map one queries) in
        Mat_store.refresh store "cheap";
        let runs = runs @ Array.to_list (Array.map one queries) in
        Med_catalog.notify_invalidation cat "products";
        let runs = runs @ Array.to_list (Array.map one queries) in
        String.concat "\n--\n" runs
      in
      let off = transcript Idx_manager.Off in
      let on = transcript (if eager then Idx_manager.Eager else Idx_manager.Auto) in
      fresh ();
      String.equal off on)

(* ------------------------------------------------------------------ *)
(* QCheck: projected fetches ≡ the reference evaluator                 *)
(* ------------------------------------------------------------------ *)

(* A random store: [a]/[b]/[c] elements nested three deep (same-tag
   nesting included), with optional [k]/[m] attributes and text mixed
   between child elements. *)
let random_store g =
  let pick l = List.nth l (Prng.int g (List.length l)) in
  let buf = Buffer.create 512 in
  let rec elem depth =
    let tag = pick [ "a"; "b"; "a"; "b"; "c" ] in
    Buffer.add_string buf ("<" ^ tag);
    if Prng.int g 3 > 0 then Buffer.add_string buf (Printf.sprintf " k=%S" (pick [ "1"; "2"; "x"; "q" ]));
    if Prng.int g 3 = 0 then Buffer.add_string buf (Printf.sprintf " m=%S" (pick [ "1"; "y" ]));
    Buffer.add_string buf ">";
    for _ = 1 to Prng.int g (if depth = 0 then 2 else 6) do
      if depth > 0 && Prng.int g 4 > 0 then elem (depth - 1)
      else Buffer.add_string buf (pick [ "1"; "2"; "x"; "y z" ])
    done;
    Buffer.add_string buf ("</" ^ tag ^ ">")
  in
  Buffer.add_string buf "<lib>";
  for _ = 1 to 4 + Prng.int g 5 do elem 3 done;
  Buffer.add_string buf "</lib>";
  Buffer.contents buf

(* A random pattern rooted at [a] or [b].  Child patterns may be [*],
   repeat a sibling's tag, bind content, test text or carry
   ELEMENT_AS.  [site] puts [k=$key] on the root's first child pattern,
   the site a bind join filters on. *)
let random_pattern g ~site =
  let pick l = List.nth l (Prng.int g (List.length l)) in
  let n = ref 0 in
  let fresh () = incr n; Printf.sprintf "v%d" !n in
  let rec pat ?tag depth ~key =
    let tag =
      match tag with
      | Some t -> t
      | None -> if depth = 2 then pick [ "a"; "b" ] else pick [ "a"; "b"; "a"; "b"; "c"; "*" ]
    in
    let attrs =
      (if key then [ ("k", Xq_ast.A_var "key") ] else [])
      @ List.filter_map
          (fun a ->
            match a, Prng.int g 6 with
            | "k", (0 | 1) | "m", 0 -> Some (a, Xq_ast.A_var (fresh ()))
            | "k", 2 -> Some (a, Xq_ast.A_lit (pick [ "1"; "x" ]))
            | _ -> None)
          (if key then [ "m" ] else [ "k"; "m" ])
    in
    let children =
      List.init
        (match depth with
        | 0 -> 0
        | 1 -> Prng.int g (if key then 2 else 3)
        | _ -> Prng.int g (if site then 2 else 4))
        (fun _ ->
          match Prng.int g 8 with
          | 0 -> Xq_ast.P_var (fresh ())
          | 1 -> Xq_ast.P_text (pick [ "1"; "x" ])
          | _ -> Xq_ast.P_element (pat (depth - 1) ~key:false))
    in
    let children =
      if site && depth = 2 then Xq_ast.P_element (pat 1 ~key:true) :: children else children
    in
    (* Often a sibling repeating the first child's tag. *)
    let children =
      match List.find_opt (function Xq_ast.P_element _ -> true | _ -> false) children with
      | Some (Xq_ast.P_element first) when depth > 0 && Prng.int g 2 = 0 ->
        children @ [ Xq_ast.P_element (pat ~tag:first.Xq_ast.tag (depth - 1) ~key:false) ]
      | _ -> children
    in
    let element_as = if Prng.int g 8 = 0 then Some (fresh ()) else None in
    { Xq_ast.tag; attrs; children; element_as }
  in
  pat 2 ~key:false

(* The pattern with its root's element children emptied: the same path
   ([Med_pathgen.compile_pattern] reads the root level only), a narrower
   projection. *)
let shallow (p : Xq_ast.pattern) =
  let empty (sub : Xq_ast.pattern) =
    match sub.Xq_ast.children with
    | [ Xq_ast.P_text _ ] -> sub
    | _ -> { sub with Xq_ast.children = [] }
  in
  { p with
    Xq_ast.children =
      List.map
        (function Xq_ast.P_element sub -> Xq_ast.P_element (empty sub) | c -> c)
        p.Xq_ast.children }

(* Variables a pattern binds to attribute values (atoms). *)
let rec atom_vars (p : Xq_ast.pattern) =
  List.filter_map (function _, Xq_ast.A_var v -> Some v | _, Xq_ast.A_lit _ -> None) p.Xq_ast.attrs
  @ List.concat_map
      (function Xq_ast.P_element sub -> atom_vars sub | Xq_ast.P_var _ | Xq_ast.P_text _ -> [])
      p.Xq_ast.children

let gen_projection_case = QCheck2.Gen.(pair (int_bound 99_999) (int_bound 2))

let prop_projected_equals_reference =
  QCheck2.Test.make ~name:"projected fetches = reference (modes x engines x binds)"
    ~print:(fun (seed, engine) -> Printf.sprintf "seed=%d engine=%d" seed engine)
    ~count:60 gen_projection_case
    (fun (seed, engine) ->
      let g = Prng.create seed in
      let store = random_store g in
      let unbound = random_pattern g ~site:false in
      let bound = random_pattern g ~site:true in
      let keys =
        String.concat ""
          (List.filter_map
             (fun k -> if Prng.int g 3 > 0 then Some ("<key>" ^ k ^ "</key>") else None)
             [ "1"; "2"; "x" ])
      in
      let pat = Xq_pretty.pattern_to_string in
      let non_key = List.filter (fun v -> v <> "key") in
      let fields vars =
        String.concat "" (List.map (fun v -> Printf.sprintf "<%s>$%s</%s>" v v v) vars)
      in
      let queries =
        (* One path, two projections, the narrower fetched first: the
           fragment cache must keep the fetches apart. *)
        List.map
          (fun p ->
            Printf.sprintf {|WHERE %s IN "s.d" CONSTRUCT <r>%s</r>|} (pat p)
              (fields (Xq_ast.pattern_vars p)))
          [ shallow unbound; unbound ]
        @ [
          (* A bind join into views over the keyed pattern: [pv]'s
             template carries atoms only, so it binds whatever the index
             mode; [pw]'s carries content too. *)
          Printf.sprintf {|WHERE <key>$key</key> IN "drv.k", <pv><key>$key</key>%s</pv> IN "pv"
                           CONSTRUCT <r><key>$key</key>%s</r>|}
            (fields (non_key (atom_vars bound))) (fields (non_key (atom_vars bound)));
          Printf.sprintf {|WHERE <key>$key</key> IN "drv.k", <pw><key>$key</key>%s</pw> IN "pw"
                           CONSTRUCT <r><key>$key</key>%s</r>|}
            (fields (non_key (Xq_ast.pattern_vars bound)))
            (fields (non_key (Xq_ast.pattern_vars bound))) ]
      in
      let agree mode =
        Idx_manager.clear ();
        Idx_manager.set_mode mode;
        let cat = Med_catalog.create () in
        Med_catalog.register_source cat (Xml_source.of_xml_strings ~name:"s" [ ("d", store) ]);
        Med_catalog.register_source cat
          (Xml_source.of_xml_strings ~name:"drv" [ ("k", "<keys>" ^ keys ^ "</keys>") ]);
        Med_catalog.define_view_text cat "pv"
          (Printf.sprintf {|WHERE %s IN "s.d" CONSTRUCT <pv><key>$key</key>%s</pv>|} (pat bound)
             (fields (non_key (atom_vars bound))));
        Med_catalog.define_view_text cat "pw"
          (Printf.sprintf {|WHERE %s IN "s.d" CONSTRUCT <pw><key>$key</key>%s</pw>|} (pat bound)
             (fields (non_key (Xq_ast.pattern_vars bound))));
        Med_catalog.set_exec_mode cat (engine_of engine);
        Med_catalog.configure_frag_cache cat ~capacity:16 ();
        let norm trees = List.sort compare (List.map Dtree.to_string trees) in
        List.for_all
          (fun text ->
            let q = Xq_parser.parse_exn text in
            (* Twice: the second run reads what the first one shipped
               and cached. *)
            let reference = norm (Xq_eval.eval (Med_exec.direct_resolver cat) q) in
            norm (Med_exec.run cat q) = reference && norm (Med_exec.run cat q) = reference)
          queries
      in
      let ok = List.for_all agree [ Idx_manager.Off; Idx_manager.Auto; Idx_manager.Eager ] in
      fresh ();
      ok)

(* ------------------------------------------------------------------ *)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_indexed_equals_unindexed; prop_projected_equals_reference ]
  in
  Alcotest.run "index"
    [
      ( "guide",
        [
          Alcotest.test_case "counts" `Quick test_guide_counts;
          Alcotest.test_case "probe matches walker" `Quick test_guide_probe_matches_walker;
          Alcotest.test_case "set semantics" `Quick test_guide_set_semantics;
          Alcotest.test_case "unsupported paths refused" `Quick test_guide_unsupported;
          Alcotest.test_case "count and keys" `Quick test_guide_count_and_keys;
        ] );
      ( "value",
        [
          Alcotest.test_case "equality buckets" `Quick test_value_eq_numeric_and_string;
          Alcotest.test_case "ranges" `Quick test_value_range;
        ] );
      ( "manager",
        [
          Alcotest.test_case "try_select = walker" `Quick
            test_manager_try_select_equals_walker;
          Alcotest.test_case "off mode and foreign trees" `Quick
            test_manager_off_and_unregistered;
          Alcotest.test_case "epoch: planning-visible changes only" `Quick
            test_manager_epoch_planning_visible_only;
          Alcotest.test_case "estimate never builds" `Quick
            test_manager_estimate_never_builds;
          Alcotest.test_case "is_registered" `Quick test_manager_is_registered;
          Alcotest.test_case "in-list predicate = walker" `Quick
            test_manager_in_list_equals_walker;
        ] );
      ("equivalence", qsuite);
    ]
