type view = {
  view_name : string;
  definitions : Xq_ast.query list;
  description : string;
}

type t = {
  reg : Src_registry.t;
  views : (string, view) Hashtbl.t;
  fb : Obs_feedback.t;
  stats : Med_stats.t;
  mutable optimizer : Med_optimize.mode;
  retry : Src_retry.t;
  mutable frag : Frag_cache.t;
  mutable sem : Sem_cache.t;
  mutable fetch : Fetch_sched.options;
  mutable exec : Alg_exec.mode;
  mutable listeners : (string -> unit) list;
      (* mutation subscribers (the facade's result cache), fired with the
         affected name *)
}

exception Catalog_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Catalog_error m)) fmt

let create ?frag_ttl_ms ?(frag_capacity = 0) ?(sem_budget_bytes = 0) () =
  {
    reg = Src_registry.create ();
    views = Hashtbl.create 16;
    fb = Obs_feedback.create ();
    stats = Med_stats.create ();
    optimizer = Med_optimize.Greedy;
    retry = Src_retry.create ();
    frag = Frag_cache.create ?ttl_ms:frag_ttl_ms ~capacity:frag_capacity ();
    sem = Sem_cache.create ~budget_bytes:sem_budget_bytes ();
    fetch = Fetch_sched.default_options;
    exec = Alg_exec.Tuple;
    listeners = [];
  }

let on_mutation t f = t.listeners <- t.listeners @ [ f ]

(* Mutations invalidate the fragment and semantic caches and the
   source's document indexes before the subscribers hear about them: a
   query re-run against the new catalog must not find stale fragments,
   extents or index entries.  XML stores re-register from
   their live trees so the next probe rebuilds; anything else just loses
   its entries and the engines fall back to walking. *)
let notify_invalidation t name =
  ignore (Frag_cache.invalidate_source t.frag name);
  ignore (Sem_cache.invalidate_name t.sem name);
  Idx_manager.drop_prefix ("src:" ^ name ^ "/");
  (* Local XML stores re-register straight from their live trees — not
     through the registered source, whose network wrappers would charge
     phantom traffic for an index rebuild. *)
  (match Src_registry.find t.reg name with
  | Some src when src.Source.kind = Source.Xml_store -> Xml_source.reindex name
  | Some _ | None -> ());
  List.iter (fun f -> f name) t.listeners

let registry t = t.reg

let feedback t = t.fb

let stats t = t.stats

let optimizer t = t.optimizer

let set_optimizer t mode = t.optimizer <- mode

let analyze_counter = Obs_metrics.counter "opt.analyze_runs"

(* Collect exact statistics for every relational export; the planner
   reads them on its next compile. *)
let analyze t =
  Obs_metrics.inc analyze_counter;
  Med_stats.analyze t.stats t.reg

let retry t = t.retry

let retry_policy t = Src_retry.policy t.retry

let set_retry_policy t pol = Src_retry.set_policy t.retry pol

let frag_cache t = t.frag

(* Re-setting a cache to its current configuration keeps its entries
   and counters: only a change of size, TTL or budget rebuilds it. *)
let configure_frag_cache t ?ttl_ms ~capacity () =
  if capacity <> Frag_cache.capacity t.frag || ttl_ms <> Frag_cache.ttl_ms t.frag then
    t.frag <- Frag_cache.create ?ttl_ms ~capacity ()

let sem_cache t = t.sem

let configure_sem_cache t ~budget_bytes () =
  if budget_bytes <> Sem_cache.budget t.sem then t.sem <- Sem_cache.create ~budget_bytes ()

let fetch_options t = t.fetch

let set_fetch_options t options = t.fetch <- options

let exec_mode t = t.exec

let set_exec_mode t mode = t.exec <- mode

let register_source t src =
  (try Src_registry.register t.reg src
   with Invalid_argument m -> fail "%s" m);
  notify_invalidation t src.Source.name

let source_names t = Src_registry.names t.reg

let find_view t name = Hashtbl.find_opt t.views name

let view_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.views [] |> List.sort String.compare

let is_known_name t name =
  Hashtbl.mem t.views name || Src_registry.resolve_export t.reg name <> None

let view_sources v =
  List.concat_map Xq_ast.all_sources_of v.definitions
  |> List.sort_uniq String.compare

let dependencies t name =
  match find_view t name with
  | None -> []
  | Some v -> view_sources v

(* Would defining [name := qs] introduce a cycle through existing views? *)
let creates_cycle t name qs =
  let rec reachable seen from =
    if List.mem from seen then seen
    else
      let seen = from :: seen in
      match find_view t from with
      | None -> seen
      | Some v -> List.fold_left reachable seen (view_sources v)
  in
  let deps = List.concat_map Xq_ast.all_sources_of qs in
  let reached = List.fold_left reachable [] deps in
  List.mem name reached

let define_union_view t ?(description = "") name qs =
  if qs = [] then fail "view %s: empty definition" name;
  if Hashtbl.mem t.views name then fail "view %s already defined" name;
  if Src_registry.resolve_export t.reg name <> None then
    fail "name %s collides with a source export" name;
  List.iter
    (fun dep ->
      if not (is_known_name t dep) then
        fail "view %s references unknown source or view %S" name dep)
    (List.concat_map Xq_ast.all_sources_of qs);
  if creates_cycle t name qs then fail "view %s would create a cyclic definition" name;
  Hashtbl.replace t.views name { view_name = name; definitions = qs; description };
  notify_invalidation t name

let define_view t ?description name q = define_union_view t ?description name [ q ]

let define_view_text t ?description name text =
  match Xq_parser.parse_union text with
  | Ok qs -> define_union_view t ?description name qs
  | Error m -> fail "view %s: %s" name m

let set_description t name description =
  match Hashtbl.find_opt t.views name with
  | Some v -> Hashtbl.replace t.views name { v with description }
  | None -> fail "unknown view %s" name

let drop_view t name =
  if not (Hashtbl.mem t.views name) then fail "unknown view %s" name;
  let dependents =
    Hashtbl.fold
      (fun vname v acc ->
        if vname <> name && List.mem name (view_sources v) then
          vname :: acc
        else acc)
      t.views []
  in
  if dependents <> [] then
    fail "cannot drop view %s: required by %s" name (String.concat ", " dependents);
  Hashtbl.remove t.views name;
  notify_invalidation t name

let rec view_depth t name =
  match find_view t name with
  | None -> 0
  | Some v ->
    let deps = view_sources v in
    1 + List.fold_left (fun acc dep -> max acc (view_depth t dep)) 0 deps
