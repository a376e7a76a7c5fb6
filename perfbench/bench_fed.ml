(* The benchmark federation: seeded data, the sources that serve it, the
   two-level mediated schema, users and lenses.

   Sources (each behind [Net_sim.wrap] in the measured system):
   - [crm]     relational: customers
   - [sales]   relational: orders
   - [dw]      relational star schema: fact plus days, stores, products
   - [catalog] XML store: one nested catalog document (categories of products)
   - [legacy]  CSV export: regional managers

   The same data also builds an unwrapped, cache-free reference system
   whose catalog the answer check evaluates with [Xq_eval]. *)

type sizes = {
  customers : int;
  orders : int;
  fact : int;
  days : int;
  stores : int;
  dim_products : int;
  catalog_products : int;
  categories : int;
}

let sizes_of_scale scale =
  let n base = max 20 (int_of_float (Float.round (float_of_int base *. scale))) in
  {
    customers = n 2000;
    orders = n 8000;
    fact = n 5000;
    days = 365;
    stores = 50;
    dim_products = 200;
    catalog_products = max 200 (n 2000);
    categories = 40;
  }

let sizes_fields s =
  [ ("customers", s.customers); ("orders", s.orders); ("fact", s.fact);
    ("days", s.days); ("stores", s.stores); ("dim_products", s.dim_products);
    ("catalog_products", s.catalog_products); ("categories", s.categories) ]

type data = {
  sizes : sizes;
  customers : Tuple.t list;
  orders : Tuple.t list;
  fact : Tuple.t list;
  days : Tuple.t list;
  stores : Tuple.t list;
  dim_products : Tuple.t list;
  catalog : Dtree.t;
  managers_csv : string;
}

let regions = [| "west"; "east"; "north"; "south"; "central" |]
let roots = [| "acme"; "globex"; "initech"; "umbrella"; "stark"; "wayne"; "hooli"; "tyrell" |]
let kinds = [| "industries"; "systems"; "logistics"; "holdings" |]
let items = [| "widget"; "gizmo"; "gadget"; "sprocket"; "server"; "doohickey" |]
let cities = [| "austin"; "boston"; "denver"; "fresno"; "omaha"; "tulsa"; "reno" |]
let managers = [| "mary"; "james"; "linda"; "robert"; "susan" |]

let sku i = Printf.sprintf "S%05d" i
let category_name c = Printf.sprintf "c%d" c
let customer_code id = Printf.sprintf "C%05d" id

(* Customer names carry their id, so a name selects exactly one row. *)
let customer_name g id =
  Printf.sprintf "%s %s %d"
    (String.capitalize_ascii (Prng.pick g roots))
    (String.capitalize_ascii (Prng.pick g kinds))
    id

let generate ~seed ~scale =
  let s = sizes_of_scale scale in
  let g = Prng.create (seed * 7919 + 17) in
  let row fields = Tuple.make fields in
  let customers =
    List.init s.customers (fun i ->
        let id = i + 1 in
        row
          [ ("code", Value.String (customer_code id)); ("id", Value.Int id);
            ("name", Value.String (customer_name g id));
            ("region", Value.String (Prng.pick g regions));
            ("tier", Value.Int (1 + Prng.int g 3));
            ("balance", Value.Int (Prng.int g 100_000)) ])
  in
  let orders =
    List.init s.orders (fun i ->
        let cust = 1 + Prng.int g s.customers in
        row
          [ ("oid", Value.Int (i + 1)); ("cust_id", Value.Int cust);
            ("sku", Value.String (sku (1 + Prng.int g s.catalog_products)));
            ("amount", Value.Int (5 + Prng.int g 5000));
            ("day", Value.Int (1 + Prng.int g s.days));
            ("cust_code", Value.String (customer_code cust)) ])
  in
  let days =
    List.init s.days (fun i ->
        let d = i + 1 in
        row [ ("day_id", Value.Int d); ("month", Value.Int (min 12 (1 + (i / 31)))) ])
  in
  let stores =
    List.init s.stores (fun i ->
        row
          [ ("store_id", Value.Int (i + 1)); ("city", Value.String (Prng.pick g cities));
            ("region", Value.String (Prng.pick g regions)) ])
  in
  let dim_products =
    List.init s.dim_products (fun i ->
        row
          [ ("product_id", Value.Int (i + 1));
            ("sku", Value.String (sku (1 + (i * s.catalog_products / s.dim_products))));
            ("category", Value.String (category_name (1 + (i mod s.categories)))) ])
  in
  let fact =
    List.init s.fact (fun i ->
        row
          [ ("fid", Value.Int (i + 1)); ("day_id", Value.Int (1 + Prng.int g s.days));
            ("store_id", Value.Int (1 + Prng.int g s.stores));
            ("product_id", Value.Int (1 + Prng.int g s.dim_products));
            ("qty", Value.Int (1 + Prng.int g 10));
            ("revenue", Value.Int (10 + Prng.int g 2000)) ])
  in
  (* Products are dealt round-robin to categories, so [product_id]'s sku
     in the dw dimension lands in category (i mod categories) + 1. *)
  let catalog =
    let per_cat = Array.make s.categories [] in
    for p = s.catalog_products downto 1 do
      let c = (p - 1) mod s.categories in
      let product =
        Dtree.node
          ~attrs:[ ("sku", Value.String (sku p)) ]
          "product"
          [ Dtree.leaf "name" (Value.String (Printf.sprintf "%s %d" (Prng.pick g items) p));
            Dtree.leaf "price" (Value.Int (1 + Prng.int g 500));
            Dtree.leaf "stock" (Value.Int (Prng.int g 100)) ]
      in
      per_cat.(c) <- product :: per_cat.(c)
    done;
    Dtree.node "catalog"
      (List.init s.categories (fun c ->
           Dtree.node
             ~attrs:[ ("name", Value.String (category_name (c + 1))) ]
             "category" per_cat.(c)))
  in
  let managers_csv =
    "region,manager,quota\n"
    ^ String.concat ""
        (Array.to_list
           (Array.mapi
              (fun i r -> Printf.sprintf "%s,%s,%d\n" r managers.(i) (1000 * (i + 1)))
              regions))
  in
  { sizes = s; customers; orders; fact; days; stores; dim_products; catalog; managers_csv }

(* ------------------------------------------------------------------ *)
(* Systems                                                             *)
(* ------------------------------------------------------------------ *)

(* Rows and calls that reached a source, counted by a wrapper placed
   under [Net_sim], so it sees only the source's own work. *)
type src_counters = { mutable calls : int; mutable rows : int }

let rec result_rows = function
  | Source.R_rows (_, rows) -> List.length rows
  | Source.R_trees trees -> List.length trees
  | Source.R_batch rs -> List.fold_left (fun acc r -> acc + result_rows r) 0 rs

let instrument counters ~kind (src : Source.t) =
  let span = Printf.sprintf "src.%s.fetch" kind in
  let counted n =
    counters.calls <- counters.calls + 1;
    counters.rows <- counters.rows + n
  in
  {
    src with
    Source.execute =
      (fun q ->
        Bench_trace.with_span span (fun () ->
            let r = src.Source.execute q in
            counted (result_rows r);
            r));
    documents =
      (fun doc ->
        Bench_trace.with_span span (fun () ->
            let trees = src.Source.documents doc in
            counted (List.length trees);
            trees));
  }

type system = {
  sys : Nimble.t;
  dbs : (string * Rel_db.t) list;  (** relational source name -> database *)
  net : Net_sim.stats list;         (** empty in the reference system *)
  counters : src_counters;
}

(* Per-source network profiles: a WAN-ish CRM, a nearby sales store, a
   slow warehouse, a document store and a legacy file drop. *)
let profiles =
  [ ("crm", { Net_sim.latency_ms = 6.0; per_tuple_ms = 0.010; availability = 1.0 });
    ("sales", { Net_sim.latency_ms = 4.0; per_tuple_ms = 0.008; availability = 1.0 });
    ("dw", { Net_sim.latency_ms = 9.0; per_tuple_ms = 0.012; availability = 1.0 });
    ("catalog", { Net_sim.latency_ms = 5.0; per_tuple_ms = 0.004; availability = 1.0 });
    ("legacy", { Net_sim.latency_ms = 12.0; per_tuple_ms = 0.020; availability = 1.0 }) ]

let ok what = function
  | Ok x -> x
  | Error m -> failwith (Printf.sprintf "%s: %s" what m)

let create_db name ddl tables =
  let db = Rel_db.create ~name () in
  List.iter (fun stmt -> ignore (Rel_db.exec db stmt)) ddl;
  List.iter (fun (t, rows) -> Rel_db.insert_many db t rows) tables;
  db

(* ------------------------------------------------------------------ *)
(* Mediated schema: level-1 views rename one source's rows, level-2    *)
(* views integrate level-1 views                                       *)
(* ------------------------------------------------------------------ *)

let define_schema sys =
  List.iter
    (fun (name, text) -> ok ("view " ^ name) (Nimble.define_view sys name text))
    [ ( "cust",
        {|WHERE <row><id>$i</id><name>$n</name><region>$r</region><tier>$t</tier><balance>$b</balance></row> IN "crm.customers"
          CONSTRUCT <cust><cid>$i</cid><name>$n</name><region>$r</region><tier>$t</tier><balance>$b</balance></cust>|}
      );
      ( "ord",
        {|WHERE <row><oid>$o</oid><cust_id>$c</cust_id><sku>$s</sku><amount>$a</amount></row> IN "sales.orders"
          CONSTRUCT <ord><oid>$o</oid><cid>$c</cid><sku>$s</sku><amount>$a</amount></ord>|}
      );
      ( "sale",
        {|WHERE <row><fid>$f</fid><day_id>$d</day_id><store_id>$st</store_id><product_id>$p</product_id><revenue>$v</revenue></row> IN "dw.fact",
                <row><day_id>$d</day_id><month>$m</month></row> IN "dw.days",
                <row><store_id>$st</store_id><city>$c</city></row> IN "dw.stores"
          CONSTRUCT <sale><fid>$f</fid><store>$st</store><city>$c</city><month>$m</month><pid>$p</pid><revenue>$v</revenue></sale>|}
      );
      ( "dprod",
        {|WHERE <row><product_id>$p</product_id><sku>$s</sku></row> IN "dw.products"
          CONSTRUCT <dprod><pid>$p</pid><sku>$s</sku></dprod>|} );
      ( "prod",
        {|WHERE <category name=$cat><product sku=$s><name>$n</name><price>$p</price></product></category> IN "catalog.catalog"
          CONSTRUCT <prod><sku>$s</sku><cat>$cat</cat><name>$n</name><price>$p</price></prod>|}
      );
      ( "mgr",
        {|WHERE <row><region>$r</region><manager>$m</manager></row> IN "legacy.managers"
          CONSTRUCT <mgr><region>$r</region><manager>$m</manager></mgr>|} );
      ( "cust_mgr",
        {|WHERE <cust><cid>$i</cid><name>$n</name><region>$r</region><tier>$t</tier></cust> IN "cust",
                <mgr><region>$r</region><manager>$m</manager></mgr> IN "mgr"
          CONSTRUCT <cm><cid>$i</cid><name>$n</name><region>$r</region><tier>$t</tier><manager>$m</manager></cm>|}
      );
      ( "sale_sku",
        {|WHERE <sale><fid>$f</fid><store>$st</store><month>$m</month><pid>$p</pid><revenue>$v</revenue></sale> IN "sale",
                <dprod><pid>$p</pid><sku>$s</sku></dprod> IN "dprod"
          CONSTRUCT <ss><fid>$f</fid><store>$st</store><month>$m</month><sku>$s</sku><revenue>$v</revenue></ss>|}
      ) ]

(* ------------------------------------------------------------------ *)
(* Users and lenses                                                    *)
(* ------------------------------------------------------------------ *)

(* Two analysts and two viewers; every session only requests lenses its
   role allows. *)
let users =
  [ ("ann", "ann-pw", Fe_auth.Analyst); ("cy", "cy-pw", Fe_auth.Analyst);
    ("ben", "ben-pw", Fe_auth.Viewer); ("dee", "dee-pw", Fe_auth.Viewer) ]

let install_lenses sys =
  List.iter
    (fun (user, password, role) ->
      ok ("user " ^ user) (Nimble.add_user sys ~role user password))
    users;
  let p = Fe_lens.param in
  List.iter
    (fun lens -> ok "lens" (Nimble.add_lens sys lens))
    [ Fe_lens.make ~name:"crm" ~required_role:Fe_auth.Viewer ~device:Fe_format.Text
        ~params:[ p "code" Value.TString ]
        [ ( "point",
            {|WHERE <row><code>%code%</code><name>$n</name><region>$r</region><balance>$b</balance></row> IN "crm.customers"
              CONSTRUCT <customer><name>$n</name><region>$r</region><balance>$b</balance></customer>|}
          );
          ( "manager",
            {|WHERE <row><code>%code%</code><name>$n</name><region>$r</region></row> IN "crm.customers",
                    <row><region>$r</region><manager>$m</manager></row> IN "legacy.managers"
              CONSTRUCT <contact><name>$n</name><manager>$m</manager></contact>|} ) ];
      Fe_lens.make ~name:"sales" ~required_role:Fe_auth.Analyst ~device:Fe_format.Web
        ~params:[ p "code" Value.TString; p "lo" Value.TInt; p "hi" Value.TInt ]
        [ ( "orders_of",
            {|WHERE <row><oid>$o</oid><cust_code>%code%</cust_code><sku>$s</sku><amount>$a</amount></row> IN "sales.orders"
              CONSTRUCT <order><oid>$o</oid><sku>$s</sku><amount>$a</amount></order>
              ORDER BY $o|} );
          ( "product_range",
            {|WHERE <row><product_id>$p</product_id><sku>$s</sku><category>$c</category></row> IN "dw.products",
                    $p >= %lo%, $p < %hi%
              CONSTRUCT <dim><pid>$p</pid><sku>$s</sku><cat>$c</cat></dim>
              ORDER BY $p|} ) ];
      Fe_lens.make ~name:"shop" ~required_role:Fe_auth.Viewer ~device:Fe_format.Wireless
        ~params:[ p "cat" Value.TString ]
        [ ( "category",
            {|WHERE <category name=%cat%><product sku=$s><name>$n</name><price>$p</price></product></category> IN "catalog.catalog"
              CONSTRUCT <p><sku>$s</sku><name>$n</name><price>$p</price></p>
              ORDER BY $s|} ) ] ]

(* [measured] wraps every source in [Net_sim] (with the benchmark's
   counting wrapper beneath it) and applies [faults] to the named
   source; the reference system registers the bare sources. *)
let build ?(measured = true) ?(faults = []) ?(cache_capacity = 64) ?frag_capacity
    ?frag_ttl_ms ?sem_budget_bytes ~seed data =
  let sys =
    Nimble.create ~cache_capacity ?frag_capacity ?frag_ttl_ms ?sem_budget_bytes ()
  in
  let crm =
    create_db "crm"
      [ "CREATE TABLE customers (code TEXT PRIMARY KEY, id INT, name TEXT, region TEXT, tier INT, balance INT)" ]
      [ ("customers", data.customers) ]
  in
  let sales =
    create_db "sales"
      [ "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, sku TEXT, amount INT, day INT, cust_code TEXT)" ]
      [ ("orders", data.orders) ]
  in
  let dw =
    create_db "dw"
      [ "CREATE TABLE fact (fid INT PRIMARY KEY, day_id INT, store_id INT, product_id INT, qty INT, revenue INT)";
        "CREATE TABLE days (day_id INT PRIMARY KEY, month INT)";
        "CREATE TABLE stores (store_id INT PRIMARY KEY, city TEXT, region TEXT)";
        "CREATE TABLE products (product_id INT PRIMARY KEY, sku TEXT, category TEXT)" ]
      [ ("fact", data.fact); ("days", data.days); ("stores", data.stores);
        ("products", data.dim_products) ]
  in
  let counters = { calls = 0; rows = 0 } in
  let sources =
    [ ("rel", Rel_source.make crm); ("rel", Rel_source.make sales); ("rel", Rel_source.make dw);
      ("xml", Xml_source.make ~name:"catalog" [ ("catalog", data.catalog) ]);
      ("csv", Csv_source.make ~name:"legacy" [ ("managers", data.managers_csv) ]) ]
  in
  let net =
    List.filter_map
      (fun (kind, (src : Source.t)) ->
        let name = src.Source.name in
        if measured then begin
          let faults = Option.value ~default:[] (List.assoc_opt name faults) in
          let wrapped, stats =
            Net_sim.wrap
              ~seed:(seed + Hashtbl.hash name)
              ~faults (List.assoc name profiles) (instrument counters ~kind src)
          in
          ok ("register " ^ name) (Nimble.register_source sys wrapped);
          Some stats
        end
        else begin
          ok ("register " ^ name) (Nimble.register_source sys src);
          None
        end)
      sources
  in
  define_schema sys;
  install_lenses sys;
  { sys; dbs = [ ("crm", crm); ("sales", sales); ("dw", dw) ]; net; counters }

(* Sources each lens query reads; a write to one of them changes the
   query's answer. *)
let lens_sources = function
  | "crm", "point" -> [ "crm" ]
  | "crm", "manager" -> [ "crm"; "legacy" ]
  | "sales", "orders_of" -> [ "sales" ]
  | "sales", "product_range" -> [ "dw" ]
  | "shop", "category" -> [ "catalog" ]
  | lens, q -> invalid_arg (Printf.sprintf "lens_sources %s.%s" lens q)
