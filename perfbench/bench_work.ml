(* Seeded op streams for the three workloads.

   [fed_analytics] cycles through five XML-QL templates over the
   mediated schema; constants come from the seed, so distinct texts far
   outnumber the 64-entry result cache.  The [lens_*] workloads cycle
   through fixed (session, lens, query) slots with arguments from a
   seeded working set and exponential inter-arrival gaps on the virtual
   clock; [lens_churn] turns every [write_every]-th event into a source
   update.  Fixed cycles keep the mix identical across seeds, so only
   constants and timing vary with the seed. *)

(* ------------------------------------------------------------------ *)
(* fed_analytics                                                       *)
(* ------------------------------------------------------------------ *)

(* The template mix as a fixed cycle of 20 slots — cust_orders and
   store_month 25% each, cust_products and xml_nav 20%, profile 10% —
   so every cycle of ops has exactly this mix; only constants vary. *)
let fed_cycle =
  [| "cust_orders"; "store_month"; "xml_nav"; "cust_products"; "cust_orders";
     "store_month"; "profile"; "xml_nav"; "cust_products"; "cust_orders";
     "store_month"; "xml_nav"; "cust_orders"; "cust_products"; "store_month";
     "profile"; "xml_nav"; "cust_orders"; "cust_products"; "store_month" |]

let fed_templates = [ "cust_orders"; "store_month"; "cust_products"; "profile"; "xml_nav" ]

let fed_query g (d : Bench_fed.data) names template =
  let s = d.Bench_fed.sizes in
  let name () = names.(Prng.int g (Array.length names)) in
  let text =
    match template with
    | "cust_orders" ->
      Printf.sprintf
        {|WHERE <cm><cid>$c</cid><name>"%s"</name><manager>$m</manager></cm> IN "cust_mgr",
                <ord><oid>$o</oid><cid>$c</cid><sku>$s</sku><amount>$a</amount></ord> IN "ord"
          CONSTRUCT <purchase><oid>$o</oid><manager>$m</manager><sku>$s</sku><amount>$a</amount></purchase>
          ORDER BY $a DESC, $o|}
        (name ())
    | "store_month" ->
      Printf.sprintf
        {|WHERE <ss><fid>$f</fid><store>"%d"</store><month>"%d"</month><sku>$s</sku><revenue>$v</revenue></ss> IN "sale_sku",
                <prod><sku>$s</sku><name>$n</name><price>$p</price></prod> IN "prod",
                $v >= %d
          CONSTRUCT <line><fid>$f</fid><sku>$s</sku><name>$n</name><price>$p</price><revenue>$v</revenue></line>
          ORDER BY $v DESC, $f|}
        (1 + Prng.int g s.Bench_fed.stores)
        (1 + Prng.int g 12)
        (Prng.pick g [| 10; 500; 1000; 1500 |])
    | "cust_products" ->
      Printf.sprintf
        {|WHERE <cm><cid>$c</cid><name>"%s"</name><manager>$m</manager></cm> IN "cust_mgr",
                <ord><oid>$o</oid><cid>$c</cid><sku>$s</sku><amount>$a</amount></ord> IN "ord",
                <prod><sku>$s</sku><cat>$k</cat><name>$pn</name></prod> IN "prod"
          CONSTRUCT <bought><oid>$o</oid><manager>$m</manager><product>$pn</product><cat>$k</cat><amount>$a</amount></bought>
          ORDER BY $o|}
        (name ())
    | "profile" ->
      Printf.sprintf
        {|WHERE <cm><cid>$c</cid><name>"%s"</name><region>$r</region><tier>$t</tier></cm> IN "cust_mgr"
          CONSTRUCT <profile><cid>$c</cid><tier>$t</tier>{ WHERE <mgr><region>$r</region><manager>$m</manager></mgr> IN "mgr" CONSTRUCT <manager>$m</manager> }</profile>|}
        (name ())
    | _ ->
      Printf.sprintf
        {|WHERE <category name="%s"><product sku=$s><name>$n</name><price>$p</price><stock>$k</stock></product></category> IN "catalog.catalog",
                $p >= %d
          CONSTRUCT <item><sku>$s</sku><name>$n</name><price>$p</price><stock>$k</stock></item>
          ORDER BY $p, $s|}
        (Bench_fed.category_name (1 + Prng.int g s.Bench_fed.categories))
        (Prng.pick g [| 1; 100; 200; 300; 400 |])
  in
  (template, text)

let customer_names (d : Bench_fed.data) =
  Array.of_list
    (List.map
       (fun row ->
         match Tuple.get row "name" with
         | Some (Value.String s) -> s
         | _ -> invalid_arg "customer_names")
       d.Bench_fed.customers)

(* An endless stream of (template, text), cycling through [fed_cycle]. *)
let fed_stream ~seed (d : Bench_fed.data) =
  let g = Prng.create (seed * 31 + 5) in
  let names = customer_names d in
  let n = ref 0 in
  fun () ->
    let template = fed_cycle.(!n mod Array.length fed_cycle) in
    incr n;
    fed_query g d names template

(* One query per template, constants from their own stream: the
   warm-up pass. *)
let fed_warmup ~seed (d : Bench_fed.data) =
  let g = Prng.create (seed * 37 + 11) in
  let names = customer_names d in
  List.map (fed_query g d names) fed_templates

(* ------------------------------------------------------------------ *)
(* lens_serve / lens_churn                                             *)
(* ------------------------------------------------------------------ *)

type request = {
  due_ms : float;  (** virtual time the request was due to be sent *)
  session : string;
  lens : string;
  query : string;
  args : (string * string) list;
}

type event =
  | Req of request
  | Write of { source : string; code : string; sql : string }
      (** an update of the rows of customer [code] in [source] *)

type working_set = {
  codes : string array;       (** hot customer codes *)
  ranges : (int * int) array; (** product_id ranges *)
  cats : string array;
}

let working_set ~seed (d : Bench_fed.data) =
  let g = Prng.create (seed * 131 + 7) in
  let s = d.Bench_fed.sizes in
  let ids = Array.init s.Bench_fed.customers (fun i -> i + 1) in
  Prng.shuffle g ids;
  {
    codes = Array.map Bench_fed.customer_code (Array.sub ids 0 (min 40 (Array.length ids)));
    ranges = Array.init 20 (fun i -> (1 + (i * 10), 11 + (i * 10)));
    cats = Array.init s.Bench_fed.categories (fun c -> Bench_fed.category_name (c + 1));
  }

(* Every (lens, query, args) of the working set, once each: the
   warm-up pass. *)
let all_requests ws =
  List.concat
    [ List.concat_map
        (fun c ->
          [ ("crm", "point", [ ("code", c) ]); ("crm", "manager", [ ("code", c) ]);
            ("sales", "orders_of", [ ("code", c) ]) ])
        (Array.to_list ws.codes);
      List.map
        (fun (lo, hi) ->
          ("sales", "product_range", [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]))
        (Array.to_list ws.ranges);
      List.map (fun c -> ("shop", "category", [ ("cat", c) ])) (Array.to_list ws.cats) ]

(* The request mix as a fixed cycle of 20 (session, lens, query) slots;
   only arguments and arrival gaps are random.  Analysts (ann, cy) use
   every lens, viewers (ben, dee) only the Viewer-level [crm] and
   [shop] lenses. *)
let lens_cycle =
  [| ("ann", "crm", "point"); ("ben", "shop", "category"); ("cy", "sales", "orders_of");
     ("dee", "crm", "manager"); ("ann", "sales", "product_range");
     ("ben", "crm", "point"); ("cy", "shop", "category"); ("dee", "shop", "category");
     ("ann", "sales", "orders_of"); ("ben", "crm", "manager"); ("cy", "crm", "point");
     ("dee", "crm", "point"); ("ann", "shop", "category"); ("ben", "shop", "category");
     ("cy", "sales", "product_range"); ("dee", "crm", "manager"); ("ann", "crm", "manager");
     ("ben", "crm", "point"); ("cy", "sales", "orders_of"); ("dee", "shop", "category") |]

let request_args g ws = function
  | "crm", _ | "sales", "orders_of" -> [ ("code", Prng.pick g ws.codes) ]
  | "sales", _ ->
    let lo, hi = Prng.pick g ws.ranges in
    [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
  | _ -> [ ("cat", Prng.pick g ws.cats) ]

(* [gap_ms] is the mean inter-arrival gap; [write_every] = 0 means no
   writes.  Writes touch hot customers, so they hit cached answers. *)
let lens_stream ~seed ~gap_ms ~write_every ~start_ms (d : Bench_fed.data) ws =
  let g = Prng.create (seed * 977 + 3) in
  let due = ref start_ms in
  let n = ref 0 and slot = ref 0 in
  let next_oid = ref (d.Bench_fed.sizes.Bench_fed.orders + 1) in
  let s = d.Bench_fed.sizes in
  fun () ->
    incr n;
    if write_every > 0 && !n mod write_every = 0 then begin
      let c = Prng.pick g ws.codes in
      if !n / write_every mod 2 = 0 then
        Write
          {
            source = "crm";
            code = c;
            sql =
              Printf.sprintf "UPDATE customers SET balance = %d WHERE code = '%s'"
                (Prng.int g 100_000) c;
          }
      else begin
        let oid = !next_oid in
        incr next_oid;
        let cust_id = int_of_string (String.sub c 1 (String.length c - 1)) in
        Write
          {
            source = "sales";
            code = c;
            sql =
              Printf.sprintf "INSERT INTO orders VALUES (%d, %d, '%s', %d, %d, '%s')" oid
                cust_id
                (Bench_fed.sku (1 + Prng.int g s.Bench_fed.catalog_products))
                (5 + Prng.int g 5000) (1 + Prng.int g s.Bench_fed.days) c;
          }
      end
    end
    else begin
      (* Exponential gaps: an open loop of independent users. *)
      due := !due -. (gap_ms *. log (1.0 -. Prng.float g 1.0));
      let session, lens, query = lens_cycle.(!slot mod Array.length lens_cycle) in
      incr slot;
      Req { due_ms = !due; session; lens; query; args = request_args g ws (lens, query) }
    end
