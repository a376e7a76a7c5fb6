(* Lens plan cache: one parsed query per parameter shape.

   An entry holds the shape's XML-QL AST, parsed once with sentinel
   stand-ins for its rebindable parameters.  A lookup writes the actual
   values over the sentinels in the AST and plans the result with
   [Med_planner.compile]: the cache skips the parser, never the planner,
   so every plan sees the current catalog, statistics and indexes. *)

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

(* Sentinel text inside a clause source ([IN "…"]) is part of a name
   the mappers do not rewrite: the parse is value-dependent there. *)
exception Unrebindable

let leak_check sb s =
  if List.exists (fun (tok, _) -> contains_sub s tok) sb.sb_strs then
    raise Unrebindable

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
          leak_check sb c.Xq_ast.clause_source;
          { c with Xq_ast.clause_pattern = map_pattern sb c.Xq_ast.clause_pattern })
        q.Xq_ast.clauses;
    conditions = List.map (map_expr sb) q.Xq_ast.conditions;
    construct = map_tpl sb q.Xq_ast.construct;
    order_by =
      List.map (fun (e, asc) -> (map_expr sb e, asc)) q.Xq_ast.order_by;
    limit = Option.map (map_int sb) q.Xq_ast.limit;
  }

(* {2 The cache} *)

type entry = {
  e_key : string;
  e_query : Xq_ast.query;  (* parsed with sentinels *)
  e_binds : (string * Value.t) list;  (* param name -> its sentinel *)
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
  poisoned : (string, unit) Hashtbl.t;  (* shapes that parse cold *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable fallbacks : int;
  m_hits : Obs_metrics.counter;
  m_misses : Obs_metrics.counter;
  m_evictions : Obs_metrics.counter;
  m_size : Obs_metrics.gauge;
}

let capacity t = t.cap
let size t = Hashtbl.length t.entries
let sync_size t = Obs_metrics.set_gauge t.m_size (float_of_int (size t))

let create ?(capacity = 32) cat =
  {
    cat;
    cap = max 0 capacity;
    entries = Hashtbl.create 32;
    poisoned = Hashtbl.create 7;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    fallbacks = 0;
    m_hits = Obs_metrics.counter "srv.plancache.hits";
    m_misses = Obs_metrics.counter "srv.plancache.misses";
    m_evictions = Obs_metrics.counter "srv.plancache.evictions";
    m_size = Obs_metrics.gauge "srv.plancache.size";
  }

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = 0;
    fallbacks = t.fallbacks;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.e_last_used <- t.tick

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

let store t e =
  while size t >= t.cap do
    evict_lru t
  done;
  touch t e;
  Hashtbl.replace t.entries e.e_key e;
  sync_size t

let subst_for binds resolved =
  make_subst
    (List.map (fun (name, sent) -> (sent, List.assoc name resolved)) binds)

(* Parse once against sentinels and admit the entry only when writing
   the first valuation over them rebuilds exactly the AST a direct parse
   of that valuation gives ([direct]). *)
let admit lens query resolved direct key =
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
  try
    let q = Fe_lens.instantiate_values lens query sentinel_values in
    if map_query (subst_for binds resolved) q = direct then
      Some { e_key = key; e_query = q; e_binds = binds; e_last_used = 0 }
    else None
  with Unrebindable | Fe_lens.Lens_error _ -> None

let parse t lens query resolved =
  let key = Fe_lens.param_shape lens query resolved in
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    touch t e;
    t.hits <- t.hits + 1;
    Obs_metrics.inc t.m_hits;
    (map_query (subst_for e.e_binds resolved) e.e_query, true)
  | None ->
    let direct = Fe_lens.instantiate_values lens query resolved in
    t.misses <- t.misses + 1;
    Obs_metrics.inc t.m_misses;
    if not (Hashtbl.mem t.poisoned key) then begin
      match admit lens query resolved direct key with
      | Some e -> store t e
      | None ->
        Hashtbl.replace t.poisoned key ();
        t.fallbacks <- t.fallbacks + 1
    end;
    (direct, false)

let lookup t ~lens ~query ~args =
  let resolved = Fe_lens.resolve_args lens query args in
  let q, hit =
    if t.cap = 0 then (Fe_lens.instantiate_values lens query resolved, false)
    else parse t lens query resolved
  in
  (Med_planner.compile t.cat q, hit)

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "plan cache: size=%d/%d hits=%d misses=%d evictions=%d fallbacks=%d"
       (size t) t.cap t.hits t.misses t.evictions t.fallbacks);
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> compare b.e_last_used a.e_last_used)
  |> List.iter (fun e -> Buffer.add_string b ("\n  param " ^ e.e_key));
  Hashtbl.fold (fun key () acc -> key :: acc) t.poisoned []
  |> List.sort compare
  |> List.iter (fun key -> Buffer.add_string b ("\n  cold " ^ key));
  Buffer.contents b
