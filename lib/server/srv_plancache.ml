(* Lens plan cache: sentinel-compiled parametric plans with structural
   re-binding, exact (value-keyed) fallback, LRU eviction, and
   catalog-mutation invalidation.

   The rebind machinery substitutes actual parameter values for the
   sentinel stand-ins everywhere a literal can land: algebra
   expressions, plan operators, SQL fragments (mapped on the AST and
   re-rendered to text), the carried source query, and the construct
   template.  Artifacts that cannot be mapped structurally — a join
   fragment's pre-rendered SQL text, a pushed path, a dependent-join
   closure — make the shape [Unrebindable]; such shapes are poisoned
   and served from exact entries instead. *)

exception Unrebindable of string

(* A substitution: sentinel value -> actual value, plus the rendered
   form of each pair for string-typed landing sites (attribute
   literals, text matches, LIKE patterns). *)
type subst = {
  sb_vals : (Value.t * Value.t) list;
  sb_strs : (string * string) list;
}

let rendering = function
  | Value.String s -> s
  | v -> Value.to_string v

let make_subst pairs =
  {
    sb_vals = pairs;
    sb_strs = List.map (fun (s, a) -> (rendering s, rendering a)) pairs;
  }

let map_value sb v =
  match List.find_opt (fun (s, _) -> s = v) sb.sb_vals with
  | Some (_, a) -> a
  | None -> v

let map_str sb s =
  match List.assoc_opt s sb.sb_strs with Some a -> a | None -> s

let map_int sb i =
  match
    List.find_opt (fun (s, _) -> s = Value.Int i) sb.sb_vals
  with
  | Some (_, Value.Int a) -> a
  | _ -> i

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* Sentinel text leaking into an artifact we cannot map structurally
   means the plan is value-dependent in an opaque place. *)
let leak_check sb what s =
  if List.exists (fun (tok, _) -> contains_sub s tok) sb.sb_strs then
    raise (Unrebindable (what ^ " embeds a parameter"))

(* {2 Mappers} *)

let rec map_expr sb (e : Alg_expr.t) : Alg_expr.t =
  match e with
  | Alg_expr.Var _ -> e
  | Const v -> Const (map_value sb v)
  | Child (e1, l) -> Child (map_expr sb e1, l)
  | Attr (e1, a) -> Attr (map_expr sb e1, a)
  | Text e1 -> Text (map_expr sb e1)
  | Label e1 -> Label (map_expr sb e1)
  | Binop (op, a, b) -> Binop (op, map_expr sb a, map_expr sb b)
  | Not e1 -> Not (map_expr sb e1)
  | Neg e1 -> Neg (map_expr sb e1)
  | Call (f, es) -> Call (f, List.map (map_expr sb) es)
  | Like (e1, pat) -> Like (map_expr sb e1, map_str sb pat)
  | Is_null e1 -> Is_null (map_expr sb e1)

let rec map_sql sb (e : Sql_ast.expr) : Sql_ast.expr =
  match e with
  | Sql_ast.Col _ -> e
  | Lit v -> Lit (map_value sb v)
  | Unop (op, a) -> Unop (op, map_sql sb a)
  | Binop (op, a, b) -> Binop (op, map_sql sb a, map_sql sb b)
  | Fncall (f, es) -> Fncall (f, List.map (map_sql sb) es)
  | Like (a, p) -> Like (map_sql sb a, map_str sb p)
  | In_list (a, es) -> In_list (map_sql sb a, List.map (map_sql sb) es)
  | Between (a, b, c) -> Between (map_sql sb a, map_sql sb b, map_sql sb c)
  | Is_null a -> Is_null (map_sql sb a)
  | Is_not_null a -> Is_not_null (map_sql sb a)

let map_sql_item sb (it : Sql_ast.select_item) =
  match it with
  | Sql_ast.Star | Sql_ast.Qualified_star _ -> it
  | Expr_item (e, al) -> Expr_item (map_sql sb e, al)
  | Agg_item (f, eo, al) -> Agg_item (f, Option.map (map_sql sb) eo, al)

let rec map_sql_from sb (f : Sql_ast.from_clause) =
  match f with
  | Sql_ast.From_table _ -> f
  | From_join (l, k, tr, on) -> From_join (map_sql_from sb l, k, tr, map_sql sb on)

let map_select sb (s : Sql_ast.select) =
  {
    s with
    Sql_ast.items = List.map (map_sql_item sb) s.Sql_ast.items;
    from = Option.map (map_sql_from sb) s.Sql_ast.from;
    where = Option.map (map_sql sb) s.Sql_ast.where;
    group_by = List.map (map_sql sb) s.Sql_ast.group_by;
    having = Option.map (map_sql sb) s.Sql_ast.having;
    order_by =
      List.map
        (fun (o : Sql_ast.order_item) ->
          { o with Sql_ast.order_expr = map_sql sb o.Sql_ast.order_expr })
        s.Sql_ast.order_by;
    limit = Option.map (map_int sb) s.Sql_ast.limit;
  }

let rec map_pattern sb (p : Xq_ast.pattern) =
  {
    p with
    Xq_ast.attrs =
      List.map
        (fun (n, ap) ->
          ( n,
            match ap with
            | Xq_ast.A_var _ -> ap
            | Xq_ast.A_lit s -> Xq_ast.A_lit (map_str sb s) ))
        p.Xq_ast.attrs;
    children = List.map (map_child sb) p.Xq_ast.children;
  }

and map_child sb (c : Xq_ast.child_pattern) =
  match c with
  | Xq_ast.P_element p -> Xq_ast.P_element (map_pattern sb p)
  | P_var _ -> c
  | P_text s -> P_text (map_str sb s)

let rec map_tpl sb (t : Xq_ast.template) =
  match t with
  | Xq_ast.Tpl_element (tag, attrs, kids) ->
    Xq_ast.Tpl_element
      ( tag,
        List.map (fun (n, ta) -> (n, map_tattr sb ta)) attrs,
        List.map (map_tpl sb) kids )
  | Tpl_var _ -> t
  | Tpl_text s -> Tpl_text (map_str sb s)
  | Tpl_expr e -> Tpl_expr (map_expr sb e)
  | Tpl_subquery q -> Tpl_subquery (map_query sb q)
  | Tpl_agg (k, q) -> Tpl_agg (k, map_query sb q)

and map_tattr sb (ta : Xq_ast.tattr) =
  match ta with
  | Xq_ast.TA_var _ -> ta
  | TA_lit s -> TA_lit (map_str sb s)
  | TA_expr e -> TA_expr (map_expr sb e)

and map_query sb (q : Xq_ast.query) =
  {
    Xq_ast.clauses =
      List.map
        (fun (c : Xq_ast.clause) ->
          leak_check sb "clause source" c.Xq_ast.clause_source;
          { c with Xq_ast.clause_pattern = map_pattern sb c.Xq_ast.clause_pattern })
        q.Xq_ast.clauses;
    conditions = List.map (map_expr sb) q.Xq_ast.conditions;
    construct = map_tpl sb q.Xq_ast.construct;
    order_by =
      List.map (fun (e, asc) -> (map_expr sb e, asc)) q.Xq_ast.order_by;
    limit = Option.map (map_int sb) q.Xq_ast.limit;
  }

let map_agg sb (a : Alg_plan.agg) =
  match a with
  | Alg_plan.A_count -> a
  | A_count_expr e -> A_count_expr (map_expr sb e)
  | A_sum e -> A_sum (map_expr sb e)
  | A_avg e -> A_avg (map_expr sb e)
  | A_min e -> A_min (map_expr sb e)
  | A_max e -> A_max (map_expr sb e)
  | A_collect e -> A_collect (map_expr sb e)

let rec map_ptpl sb (t : Alg_plan.template) =
  match t with
  | Alg_plan.T_node (tag, attrs, kids) ->
    Alg_plan.T_node
      ( tag,
        List.map (fun (n, e) -> (n, map_expr sb e)) attrs,
        List.map (map_ptpl sb) kids )
  | T_value e -> T_value (map_expr sb e)
  | T_tree e -> T_tree (map_expr sb e)
  | T_splice e -> T_splice (map_expr sb e)

let rec map_plan sb (p : Alg_plan.t) : Alg_plan.t =
  match p with
  | Alg_plan.Scan _ | Const_envs _ -> p
  | Select (i, e) -> Select (map_plan sb i, map_expr sb e)
  | Project (i, vs) -> Project (map_plan sb i, vs)
  | Rename (i, rs) -> Rename (map_plan sb i, rs)
  | Extend (i, v, e) -> Extend (map_plan sb i, v, map_expr sb e)
  | Extend_tree (i, v, e) -> Extend_tree (map_plan sb i, v, map_expr sb e)
  | Nl_join { left; right; pred } ->
    Nl_join
      {
        left = map_plan sb left;
        right = map_plan sb right;
        pred = Option.map (map_expr sb) pred;
      }
  | Hash_join { left; right; left_key; right_key; residual } ->
    Hash_join
      {
        left = map_plan sb left;
        right = map_plan sb right;
        left_key = map_expr sb left_key;
        right_key = map_expr sb right_key;
        residual = Option.map (map_expr sb) residual;
      }
  | Merge_join { left; right; left_key; right_key } ->
    Merge_join
      {
        left = map_plan sb left;
        right = map_plan sb right;
        left_key = map_expr sb left_key;
        right_key = map_expr sb right_key;
      }
  | Dep_join { label; _ } ->
    raise (Unrebindable ("dependent join " ^ label ^ " carries a closure"))
  | Sort (i, specs) ->
    Sort
      ( map_plan sb i,
        List.map
          (fun (s : Alg_plan.sort_spec) ->
            { s with Alg_plan.sort_key = map_expr sb s.Alg_plan.sort_key })
          specs )
  | Distinct i -> Distinct (map_plan sb i)
  | Group { input; keys; aggs } ->
    Group
      {
        input = map_plan sb input;
        keys = List.map (fun (v, e) -> (v, map_expr sb e)) keys;
        aggs = List.map (fun (v, a) -> (v, map_agg sb a)) aggs;
      }
  | Union (a, b) -> Union (map_plan sb a, map_plan sb b)
  | Outer_union (a, b) -> Outer_union (map_plan sb a, map_plan sb b)
  | Navigate { input; var; path; out } ->
    leak_check sb "pushed path" (Xml_path.to_string path);
    Navigate { input = map_plan sb input; var; path; out }
  | Unnest { input; var; label; out } ->
    Unnest { input = map_plan sb input; var; label; out }
  | Construct { input; binding; template } ->
    Construct
      { input = map_plan sb input; binding; template = map_ptpl sb template }
  | Limit (i, n) -> Limit (map_plan sb i, map_int sb n)

let map_fragment sb (f : Med_sqlgen.fragment) =
  let sql = map_select sb f.Med_sqlgen.sql in
  {
    f with
    Med_sqlgen.sql;
    sql_text = Sql_print.select_to_string sql;
    pushed_conditions = List.map (map_expr sb) f.Med_sqlgen.pushed_conditions;
  }

let rec map_access sb (id, (a : Med_planner.access)) =
  ( id,
    match a with
    | Med_planner.A_sql { source_name; export; fragment; pattern } ->
      Med_planner.A_sql
        {
          source_name;
          export;
          fragment = map_fragment sb fragment;
          pattern = map_pattern sb pattern;
        }
    | A_sql_join { source_name; fragment; exports } ->
      leak_check sb "join fragment" fragment.Med_sqlgen.jf_sql_text;
      A_sql_join
        {
          source_name;
          fragment =
            {
              fragment with
              Med_sqlgen.jf_pushed_conditions =
                List.map (map_expr sb)
                  fragment.Med_sqlgen.jf_pushed_conditions;
            };
          exports;
        }
    | A_path { source_name; export; path; pattern } ->
      leak_check sb "pushed path" (Xml_path.to_string path);
      A_path { source_name; export; path; pattern = map_pattern sb pattern }
    | A_match { source_name; export; pattern } ->
      A_match { source_name; export; pattern = map_pattern sb pattern }
    | A_view { view; pattern; composed; bind } ->
      (* A bound view's keys come from its driver at fetch time: the
         bind passes through, the sub-plans map as unbound ones do. *)
      A_view
        {
          view;
          pattern = map_pattern sb pattern;
          composed = Option.map (map_composed sb) composed;
          bind;
        }
    | A_sql_bind { source_name; export; fragment; pattern; bind } ->
      (* The IN-list is computed at fetch time from the driver's rows,
         so only the underlying fragment carries parameter sentinels. *)
      A_sql_bind
        {
          source_name;
          export;
          fragment = map_fragment sb fragment;
          pattern = map_pattern sb pattern;
          bind;
        } )

(* A composed view maps through its absorbed conditions and its
   sub-plans.  A parameter that lands as a literal was pushed as a typed
   equality only because its value was canonical for the column; a value
   that is not would have compiled to the tree path instead. *)
and map_composed sb (c : Med_planner.composed) =
  let literals =
    List.map
      (fun (s, ty) ->
        let s' = map_str sb s in
        if Med_planner.canonical_literal ty s' = None then
          raise (Unrebindable "a view literal is not canonical for its column");
        (s', ty))
      c.Med_planner.literals
  in
  {
    Med_planner.absorbed = List.map (map_expr sb) c.Med_planner.absorbed;
    literals;
    defs =
      List.map
        (fun (d : Med_planner.composed_def) ->
          { d with Med_planner.sub = map_compiled sb d.Med_planner.sub })
        c.Med_planner.defs;
  }

and map_compiled sb (c : Med_planner.compiled) =
  {
    Med_planner.plan = map_plan sb c.Med_planner.plan;
    accesses = List.map (map_access sb) c.Med_planner.accesses;
    construct = map_tpl sb c.Med_planner.construct;
    source_query = map_query sb c.Med_planner.source_query;
    residual_conditions =
      List.map (map_expr sb) c.Med_planner.residual_conditions;
    opt_info = c.Med_planner.opt_info;
  }

(* Structural equality; plans never carry closures here (Dep_join is
   rejected above), but compare defensively. *)
let compiled_equal a b = try a = b with Invalid_argument _ -> false

(* {2 The cache} *)

type kind =
  | Parametric of {
      compiled : Med_planner.compiled;  (* holds sentinels *)
      binds : (string * Value.t) list;  (* param name -> its sentinel *)
    }
  | Exact of Med_planner.compiled

type entry = {
  e_key : string;
  e_kind : kind;
  e_sources : string list;  (* transitive closure, for invalidation *)
  e_epoch : int;  (* stats epoch at compile time; stale plans re-optimize *)
  e_idx_epoch : int;
      (* index-registry epoch at compile time: plans optimized before an
         index appeared (or after one dropped) recompile so their access
         estimates see the current indexes *)
  mutable e_last_used : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  fallbacks : int;
}

type t = {
  cat : Med_catalog.t;
  cap : int;
  entries : (string, entry) Hashtbl.t;
  poisoned : (string, unit) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable fallbacks : int;
  m_hits : Obs_metrics.counter;
  m_misses : Obs_metrics.counter;
  m_evictions : Obs_metrics.counter;
  m_invalidations : Obs_metrics.counter;
  m_size : Obs_metrics.gauge;
}

let capacity t = t.cap
let size t = Hashtbl.length t.entries
let sync_size t = Obs_metrics.set_gauge t.m_size (float_of_int (size t))

let create ?(capacity = 32) cat =
  let t =
    {
      cat;
      cap = max 0 capacity;
      entries = Hashtbl.create 32;
      poisoned = Hashtbl.create 7;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
      fallbacks = 0;
      m_hits = Obs_metrics.counter "srv.plancache.hits";
      m_misses = Obs_metrics.counter "srv.plancache.misses";
      m_evictions = Obs_metrics.counter "srv.plancache.evictions";
      m_invalidations = Obs_metrics.counter "srv.plancache.invalidations";
      m_size = Obs_metrics.gauge "srv.plancache.size";
    }
  in
  Med_catalog.on_mutation cat (fun name ->
      let victims =
        Hashtbl.fold
          (fun key e acc ->
            let hit =
              List.exists
                (fun s ->
                  s = name || String.starts_with ~prefix:(name ^ ".") s)
                e.e_sources
            in
            if hit then key :: acc else acc)
          t.entries []
      in
      List.iter (Hashtbl.remove t.entries) victims;
      t.invalidations <- t.invalidations + List.length victims;
      if victims <> [] then
        Obs_metrics.inc ~by:(List.length victims) t.m_invalidations;
      sync_size t);
  t

let invalidate t name =
  let before = size t in
  Med_catalog.notify_invalidation t.cat name;
  before - size t

let clear t =
  Hashtbl.reset t.entries;
  Hashtbl.reset t.poisoned;
  sync_size t

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    fallbacks = t.fallbacks;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.e_last_used <- t.tick

let note_hit t = t.hits <- t.hits + 1; Obs_metrics.inc t.m_hits
let note_miss t = t.misses <- t.misses + 1; Obs_metrics.inc t.m_misses

(* A plan compiled under an older statistics epoch may carry a join
   order the refreshed statistics would no longer choose; one compiled
   under another index epoch carries access estimates that ignore an
   index that has since been built (or trust one that was dropped).
   Drop it and recompile instead of silently reusing it. *)
let find_fresh t key =
  match Hashtbl.find_opt t.entries key with
  | Some e
    when e.e_epoch < Med_catalog.stats_epoch t.cat
         || e.e_idx_epoch <> Idx_manager.epoch () ->
    Hashtbl.remove t.entries key;
    t.invalidations <- t.invalidations + 1;
    Obs_metrics.inc t.m_invalidations;
    sync_size t;
    None
  | found -> found

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some best when best.e_last_used <= e.e_last_used -> acc
        | _ -> Some e)
      t.entries None
  in
  match victim with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.entries e.e_key;
    t.evictions <- t.evictions + 1;
    Obs_metrics.inc t.m_evictions

let rec source_closure cat acc name =
  if List.mem name acc then acc
  else
    let acc = name :: acc in
    let deps = try Med_catalog.dependencies cat name with _ -> [] in
    List.fold_left (source_closure cat) acc deps

let sources_of t (c : Med_planner.compiled) =
  List.fold_left
    (fun acc (_, a) -> source_closure t.cat acc (Med_planner.access_target a))
    [] c.Med_planner.accesses

let store t key kind compiled =
  while t.cap > 0 && size t >= t.cap do
    evict_lru t
  done;
  let e =
    { e_key = key; e_kind = kind; e_sources = sources_of t compiled;
      e_epoch = Med_catalog.stats_epoch t.cat;
      e_idx_epoch = Idx_manager.epoch (); e_last_used = 0 }
  in
  touch t e;
  Hashtbl.replace t.entries key e;
  sync_size t

let compile_cold t lens query resolved =
  Med_planner.compile t.cat (Fe_lens.instantiate_values lens query resolved)

let subst_for binds resolved =
  make_subst
    (List.map (fun (name, sent) -> (sent, List.assoc name resolved)) binds)

(* Compile once against sentinels, rebind to the first valuation, and
   only admit the parametric entry when the rebound plan is structurally
   identical to the cold compile of that same valuation. *)
let attempt_parametric t lens query resolved cold =
  let rebindables = List.filter (fun (_, v) -> Fe_lens.rebindable v) resolved in
  let binds =
    List.mapi (fun i (n, v) -> (n, Fe_lens.sentinel_for i v)) rebindables
  in
  let sentinel_values =
    List.map
      (fun (n, v) ->
        match List.assoc_opt n binds with Some s -> (n, s) | None -> (n, v))
      resolved
  in
  match
    let q = Fe_lens.instantiate_values lens query sentinel_values in
    let compiled = Med_planner.compile t.cat q in
    let rebound = map_compiled (subst_for binds resolved) compiled in
    if compiled_equal rebound cold then Some (Parametric { compiled; binds })
    else None
  with
  | result -> result
  | exception Unrebindable _ -> None
  | exception Fe_lens.Lens_error _ -> None
  | exception Med_planner.Plan_error _ -> None

let lookup_exact t lens query args resolved =
  let key = Fe_lens.param_shape_exact lens query args in
  match find_fresh t key with
  | Some ({ e_kind = Exact c; _ } as e) ->
    touch t e;
    note_hit t;
    (c, true)
  | Some _ | None ->
    let cold = compile_cold t lens query resolved in
    note_miss t;
    store t key (Exact cold) cold;
    (cold, false)

let lookup t ~lens ~query ~args =
  let resolved = Fe_lens.resolve_args lens query args in
  if t.cap = 0 then (compile_cold t lens query resolved, false)
  else begin
    let shape = Fe_lens.param_shape lens query args in
    if Hashtbl.mem t.poisoned shape then lookup_exact t lens query args resolved
    else
      match find_fresh t shape with
      | Some ({ e_kind = Parametric { compiled; binds }; _ } as e) -> (
        match map_compiled (subst_for binds resolved) compiled with
        | rebound ->
          touch t e;
          note_hit t;
          (rebound, true)
        | exception Unrebindable _ ->
          (* Cannot happen for a verified entry, but stay safe. *)
          Hashtbl.remove t.entries shape;
          Hashtbl.replace t.poisoned shape ();
          t.fallbacks <- t.fallbacks + 1;
          lookup_exact t lens query args resolved)
      | Some _ | None -> (
        let cold = compile_cold t lens query resolved in
        note_miss t;
        match attempt_parametric t lens query resolved cold with
        | Some kind ->
          store t shape kind cold;
          (cold, false)
        | None ->
          Hashtbl.replace t.poisoned shape ();
          t.fallbacks <- t.fallbacks + 1;
          let key = Fe_lens.param_shape_exact lens query args in
          store t key (Exact cold) cold;
          (cold, false))
  end

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "plan cache: size=%d/%d hits=%d misses=%d evictions=%d \
        invalidations=%d fallbacks=%d"
       (size t) t.cap t.hits t.misses t.evictions t.invalidations t.fallbacks);
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> compare b.e_last_used a.e_last_used)
  in
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "\n  %s %s  sources=%s"
           (match e.e_kind with
            | Parametric _ -> "param"
            | Exact _ -> "exact")
           e.e_key
           (String.concat "," (List.sort compare e.e_sources))))
    entries;
  Buffer.contents b
