type result = {
  trees : Dtree.t list;
  bindings : Alg_env.t list;
  skipped_sources : string list;
  stale_sources : string list;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let compile = Med_planner.compile

type view_lookup = string -> Dtree.t list option

let no_lookup : view_lookup = fun _ -> None

(* The reference resolver: exports serve documents, views evaluate
   recursively by direct pattern matching. *)
let rec direct_resolver catalog name =
  match Med_catalog.find_view catalog name with
  | Some view ->
    List.concat_map
      (Xq_eval.eval (fun n -> direct_resolver catalog n))
      view.Med_catalog.definitions
  | None -> Src_registry.documents (Med_catalog.registry catalog) name

(* ------------------------------------------------------------------ *)
(* Access execution                                                    *)
(* ------------------------------------------------------------------ *)

let envs_of_sql_rows (fragment : Med_sqlgen.fragment) rows =
  List.map
    (fun row ->
      let var_bindings =
        List.map
          (fun (var, col) ->
            let v = Option.value ~default:Value.Null (Tuple.get row col) in
            (var, Dtree.atom v))
          fragment.Med_sqlgen.binds
      in
      let row_binding =
        match fragment.Med_sqlgen.row_var with
        | Some var -> [ (var, Dtree.of_tuple "row" row) ]
        | None -> []
      in
      Alg_env.of_bindings (var_bindings @ row_binding))
    rows

let match_documents pattern docs =
  List.concat_map (fun doc -> Xq_eval.match_anywhere pattern doc) docs

let access_target = Med_planner.access_target

let access_push = function
  | Med_planner.A_sql { fragment; _ } | Med_planner.A_sql_bind { fragment; _ } ->
    fragment.Med_sqlgen.sql_text
  | Med_planner.A_sql_join { fragment; _ } -> fragment.Med_sqlgen.jf_sql_text
  | Med_planner.A_path { path; _ } -> Xml_path.to_string path
  | Med_planner.A_match { pattern; _ } | Med_planner.A_view { pattern; _ } ->
    Xq_pretty.pattern_to_string pattern

let capability_fallbacks = Obs_metrics.counter "mediator.capability_fallbacks"
let batch_fallbacks = Obs_metrics.counter "fetch.batch_fallbacks"

module Key_set = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Distinct non-NULL key values of [var] across the driver's rows, in
   first-seen order (deterministic SQL text), one per [Value.equal]
   class; [None] as soon as a key past [Med_planner.max_bind_keys]
   turns up.  NULL keys are dropped: the equi-join above the bound
   access never matches them anyway. *)
let bind_key_values envs var =
  let seen = Key_set.create 16 in
  let rec go acc n = function
    | [] -> Some (List.rev acc)
    | env :: rest ->
      let v = Alg_env.value_of env var in
      if v = Value.Null || Key_set.mem seen v then go acc n rest
      else if n = Med_planner.max_bind_keys then None
      else begin
        Key_set.add seen v ();
        go (v :: acc) (n + 1) rest
      end
  in
  go [] 0 envs

(* The keys as literals of a column's type, when each key's text is
   canonical for it ([Med_planner.canonical_literal]): then the source
   comparing the column with the literal agrees with the mediator
   comparing values.  ["014"] never ships to an INT column. *)
let typed_keys ty keys =
  let rec go ty acc = function
    | [] -> Some (List.rev acc)
    | k :: rest -> (
      match Med_planner.canonical_literal ty (Value.to_string k) with
      | Some v -> go ty (v :: acc) rest
      | None -> None)
  in
  Option.bind ty (fun ty -> go ty [] keys)

let column_type catalog ~source ~table col =
  match Src_registry.find (Med_catalog.registry catalog) source with
  | None -> None
  | Some src ->
    Option.bind
      (List.find_opt (fun r -> String.equal r.Dschema.rel_name table) (src.Source.relations ()))
      (fun schema -> Option.map (fun c -> c.Dschema.col_ty) (Dschema.find_column schema col))

let narrow_select (select : Sql_ast.select) col keys =
  let in_list = Sql_ast.In_list (col, List.map (fun v -> Sql_ast.Lit v) keys) in
  let where =
    match select.Sql_ast.where with
    | None -> Some in_list
    | Some w -> Some (Sql_ast.Binop (Sql_ast.And, w, in_list))
  in
  { select with Sql_ast.where }

(* An IN-list over no keys matches nothing: such a fragment never ships
   (see [fetch_sql]). *)
let matches_nothing (select : Sql_ast.select) =
  match select.Sql_ast.where with
  | None -> false
  | Some w ->
    List.exists (function Sql_ast.In_list (_, []) -> true | _ -> false) (Sql_ast.conjuncts w)

let narrow_fragment (fragment : Med_sqlgen.fragment) col keys =
  let select = narrow_select fragment.Med_sqlgen.sql (Sql_ast.Col (None, col)) keys in
  { fragment with Med_sqlgen.sql = select; sql_text = Sql_print.select_to_string select }

(* The source column behind a join fragment's output alias. *)
let join_column (fragment : Med_sqlgen.join_fragment) out =
  let rec tables = function
    | Sql_ast.From_table t -> [ t ]
    | Sql_ast.From_join (f, _, t, _) -> tables f @ [ t ]
  in
  let select = fragment.Med_sqlgen.jf_sql in
  match
    List.find_map
      (function Sql_ast.Expr_item (e, Some a) when a = out -> Some e | _ -> None)
      select.Sql_ast.items
  with
  | Some (Sql_ast.Col (Some alias, col) as e) ->
    Option.map
      (fun (t : Sql_ast.table_ref) -> (e, t.Sql_ast.table, col))
      (List.find_opt
         (fun (t : Sql_ast.table_ref) -> t.Sql_ast.alias = Some alias)
         (match select.Sql_ast.from with Some f -> tables f | None -> []))
  | Some _ | None -> None

let all_some xs = if List.for_all Option.is_some xs then Some (List.map Option.get xs) else None

let all_ok xs =
  List.fold_right (fun x acc -> Result.bind x (fun x -> Result.map (List.cons x) acc)) xs (Ok [])

(* Whether no value an access binds can hold an element labelled [tag]:
   SQL values are atoms (a row variable's [<row>] element aside), and an
   XML store's documents are checked against their structural guide. *)
let binds_no_element tag = function
  | Med_planner.A_sql { fragment; _ } | Med_planner.A_sql_bind { fragment; _ } ->
    fragment.Med_sqlgen.row_var = None
  | Med_planner.A_sql_join _ -> true
  | Med_planner.A_path { source_name; export; _ } | Med_planner.A_match { source_name; export; _ }
    ->
    Idx_manager.lacks_label (Xml_source.idx_name source_name export) tag
  | Med_planner.A_view _ -> false

(* A copy of [access] that fetches only the rows whose [v] is among
   [keys], without recompiling: every fragment reading [v] from a column
   gains [col IN (keys)], every path access binding [v] at a fixed site
   gains [site in (keys)], and a composed view narrows each definition
   that binds [v] to an atom, recursively.  Accesses that do not narrow
   on [v] come back unchanged.  [Error reason] when the access must run
   unbound: a key is not canonical for a narrowed column or path
   (["non-canonical"]), or every definition that could narrow may hide
   a deeper match in element content (["element-content"]). *)
let rec narrow_access catalog v keys (access : Med_planner.access) =
  let ( let* ) = Result.bind in
  let canonical x = Option.to_result ~none:"non-canonical" x in
  let narrowed_fragment source_name export (fragment : Med_sqlgen.fragment) =
    let col = List.assoc v fragment.Med_sqlgen.binds in
    let* typed =
      canonical (typed_keys (column_type catalog ~source:source_name ~table:export col) keys)
    in
    Ok (narrow_fragment fragment col typed)
  in
  if not (Med_planner.narrows_on access v) then Ok access
  else
    match access with
    | Med_planner.A_sql r ->
      let* fragment = narrowed_fragment r.source_name r.export r.fragment in
      Ok (Med_planner.A_sql { r with fragment })
    | Med_planner.A_sql_bind r ->
      let* fragment = narrowed_fragment r.source_name r.export r.fragment in
      Ok (Med_planner.A_sql_bind { r with fragment })
    | Med_planner.A_sql_join r ->
      let* col, table, name =
        canonical (join_column r.fragment (List.assoc v r.fragment.Med_sqlgen.jf_binds))
      in
      let* typed =
        canonical (typed_keys (column_type catalog ~source:r.source_name ~table name) keys)
      in
      let jf_sql = narrow_select r.fragment.Med_sqlgen.jf_sql col typed in
      Ok
        (Med_planner.A_sql_join
           { r with
             fragment =
               { r.fragment with
                 Med_sqlgen.jf_sql;
                 jf_sql_text = Sql_print.select_to_string jf_sql } })
    | Med_planner.A_path r -> (
      match Med_pathgen.bind_site r.path r.pattern v with
      | None -> Ok access
      | Some site ->
        let* texts = canonical (all_some (List.map Med_pathgen.key_text keys)) in
        Ok
          (Med_planner.A_path
             { r with
               path = Med_pathgen.narrow r.path site texts;
               shape = Med_pathgen.shape ~bound:(site, texts) r.path r.pattern }))
    | Med_planner.A_view ({ composed = Some c; _ } as r) ->
      let* c = narrow_composed catalog r.pattern.Xq_ast.tag v keys c in
      Ok (Med_planner.A_view { r with composed = Some c })
    | Med_planner.A_view { composed = None; _ } | Med_planner.A_match _ -> Ok access

(* Each definition binding [v] to an atom narrows its sub-plan on the
   variable it maps [v] to.  One whose other variables may carry element
   content (§16) narrows only when nothing its accesses read can hold an
   element labelled [tag], the caller's root tag: a row the narrowing
   drops could otherwise hold a deeper match binding [v] to a key.  Such
   a definition runs unnarrowed beside the others. *)
and narrow_composed catalog tag v keys (c : Med_planner.composed) =
  let defs =
    List.map
      (fun (d : Med_planner.composed_def) ->
        let accesses = d.Med_planner.sub.Med_planner.accesses in
        let narrow v' (aid, a) = Result.map (fun a -> (aid, a)) (narrow_access catalog v' keys a) in
        match Med_planner.def_var d v with
        | Some v' when List.exists (fun (_, a) -> Med_planner.narrows_on a v') accesses ->
          if d.Med_planner.element_vars <> []
             && not (List.for_all (fun (_, a) -> binds_no_element tag a) accesses)
          then Ok (d, `Refused)
          else
            Result.map
              (fun accesses ->
                ({ d with Med_planner.sub = { d.Med_planner.sub with accesses } }, `Narrowed))
              (all_ok (List.map (narrow v') accesses))
        | Some _ | None -> Ok (d, `Kept))
      c.Med_planner.defs
  in
  Result.bind (all_ok defs) (fun defs ->
      let outcomes = List.map snd defs in
      if List.mem `Refused outcomes && not (List.mem `Narrowed outcomes) then
        Error "element-content"
      else Ok { c with Med_planner.defs = List.map fst defs })

(* ------------------------------------------------------------------ *)
(* Fragment cache plumbing                                             *)
(* ------------------------------------------------------------------ *)

(* The fragment string is the cache identity of what ships to the
   source; it doubles as a human-readable label.  SQL fragments are
   cached under their text verbatim. *)
let frag_key_path export path shape =
  Printf.sprintf "path:%s:%s%s" export (Xml_path.to_string path) (Source.shape_to_string shape)

let frag_key_scan export = "scan:" ^ export
let frag_key_doc doc = "doc:" ^ doc

(* The wire half of [frag_call], for a fragment whose exact-key probe
   already missed: only successful results are cached, so rejections and
   outages keep their live semantics. *)
let frag_ship catalog (src : Source.t) ~fragment call =
  let frag = Med_catalog.frag_cache catalog in
  let retry = Med_catalog.retry catalog in
  match Src_retry.call retry ~source:src.Source.name call with
  | r ->
    Frag_cache.put frag ~source:src.Source.name ~fragment r;
    r
  | exception (Source.Unavailable _ as e) ->
    (* Partial-mode degradation: once the retry budget is spent, a
       stale extent beats losing the source's whole contribution.
       Strict mode never degrades — the exception propagates. *)
    (match
       if Src_retry.stale_ok retry then
         Frag_cache.get_stale frag ~source:src.Source.name ~fragment
       else None
     with
    | Some r ->
      Src_retry.note_stale retry ~source:src.Source.name;
      r
    | None -> raise e)

(* One remote call through the fragment cache: a hit skips the wire
   (and the network simulator) entirely. *)
let frag_call catalog (src : Source.t) ~fragment call =
  match Frag_cache.get (Med_catalog.frag_cache catalog) ~source:src.Source.name ~fragment with
  | Some r -> r
  | None -> frag_ship catalog src ~fragment call

let frag_fetch catalog (src : Source.t) ~fragment q =
  frag_call catalog src ~fragment (fun () -> src.Source.execute q)

(* SQL fragments key the exact-key cache by their canonical rendering
   (stable alias numbering, sorted conjuncts) rather than the shipped
   text, so cosmetically different renderings of one fragment share an
   entry. *)
let frag_key_sql select = Sql_print.canonical_select select

(* ------------------------------------------------------------------ *)
(* Semantic cache plumbing                                             *)
(* ------------------------------------------------------------------ *)

(* The SQL AST and shipped text of a SQL access's fragment. *)
let sql_of_access = function
  | Med_planner.A_sql { fragment; _ } ->
    (fragment.Med_sqlgen.sql, fragment.Med_sqlgen.sql_text)
  | Med_planner.A_sql_join { fragment; _ } ->
    (fragment.Med_sqlgen.jf_sql, fragment.Med_sqlgen.jf_sql_text)
  | _ -> fail "internal: not a SQL access"

(* The semantic layer sits below the exact-key cache: it is asked only
   about a fragment whose exact key missed, and may answer it from a
   cached extent (ship nothing), rewrite it to a remainder query, or
   pass it through untouched.  Only relational sources participate —
   their fragments have SQL ASTs to reason about. *)
let sem_plan catalog (src : Source.t) ~key access =
  if src.Source.kind <> Source.Relational then None
  else
    let mk select sql_text exports =
      let samples =
        Obs_feedback.samples (Med_catalog.feedback catalog)
          (Med_planner.access_key access)
      in
      (* The exact key already missed: a reship goes straight to the wire. *)
      let reship () =
        frag_ship catalog src ~fragment:key (fun () ->
            src.Source.execute (Source.Q_sql sql_text))
      in
      Sem_rewrite.plan (Med_catalog.sem_cache catalog) ~reship
        {
          Sem_rewrite.req_source = src.Source.name;
          req_select = select;
          req_sql_text = sql_text;
          req_exports = exports;
          req_samples = samples;
        }
    in
    match access with
    | Med_planner.A_sql { export; fragment; _ } ->
      Some (mk fragment.Med_sqlgen.sql fragment.Med_sqlgen.sql_text [ export ])
    | Med_planner.A_sql_join { fragment; exports; _ } ->
      Some (mk fragment.Med_sqlgen.jf_sql fragment.Med_sqlgen.jf_sql_text exports)
    | _ -> None

(* How a SQL fragment whose canonical [key] missed ships, as the
   semantic layer planned it ([None]: it sat out): the text sent, the key
   its raw result caches under — a remainder query's own text, or [key]
   — and how the result comes back. *)
let shipment access ~key plan =
  let _, sql_text = sql_of_access access in
  match plan with
  | Some (Sem_rewrite.P_ship { ship_sql; finish }) when ship_sql <> sql_text ->
    (ship_sql, ship_sql, finish)
  | Some (Sem_rewrite.P_ship { finish; _ }) -> (sql_text, key, finish)
  | Some (Sem_rewrite.P_local _) | None -> (sql_text, key, fun r -> (r, None))

(* Ship one such fragment alone, with the semantic layer's verdict. *)
let ship_sql catalog (src : Source.t) access ~key plan =
  match plan with
  | Some (Sem_rewrite.P_local (r, hit)) -> (r, Some hit)
  | _ ->
    let text, putkey, finish = shipment access ~key plan in
    finish
      (frag_ship catalog src ~fragment:putkey (fun () ->
           src.Source.execute (Source.Q_sql text)))

(* A path narrowed by no keys matches nothing, like [col IN ()]. *)
let path_matches_nothing (path : Xml_path.t) =
  List.exists
    (fun (step : Xml_path.step) ->
      List.exists
        (function Xml_path.In_list { keys = []; _ } -> true | _ -> false)
        step.Xml_path.preds)
    path.Xml_path.steps

(* Whether an access was narrowed by no keys: it never ships. *)
let ships_nothing = function
  | Med_planner.A_sql { fragment; _ } -> matches_nothing fragment.Med_sqlgen.sql
  | Med_planner.A_sql_join { fragment; _ } -> matches_nothing fragment.Med_sqlgen.jf_sql
  | Med_planner.A_path { path; _ } -> path_matches_nothing path
  | _ -> false

(* What a fetch that matches nothing does instead of a call: it checks
   the source's availability, so strict and partial outcomes do not
   depend on whether a bind join narrowed it. *)
let require_available catalog (src : Source.t) =
  if
    not
      (Src_retry.call_available (Med_catalog.retry catalog) ~source:src.Source.name
         src.Source.is_available)
  then raise (Source.Unavailable src.Source.name)

(* Fetch one SQL access's raw result through both cache layers — the
   exact key first, the semantic layer only on a miss — with the
   semantic layer's verdict when it was consulted. *)
let fetch_sql catalog (src : Source.t) access =
  let select, _ = sql_of_access access in
  if matches_nothing select then begin
    require_available catalog src;
    (Source.R_rows ([], []), None)
  end
  else
    let key = frag_key_sql select in
    match Frag_cache.get (Med_catalog.frag_cache catalog) ~source:src.Source.name ~fragment:key with
    | Some r -> (r, None)
    | None -> ship_sql catalog src access ~key (sem_plan catalog src ~key access)

let frag_documents catalog (src : Source.t) doc =
  match
    frag_call catalog src ~fragment:(frag_key_doc doc) (fun () ->
        Source.R_trees (src.Source.documents doc))
  with
  | Source.R_trees trees -> trees
  | Source.R_rows _ | Source.R_batch _ -> fail "unexpected rows for document %s" doc

(* The XML view of an export, shipping rows (not trees) for tabular
   sources and rebuilding the document client-side. *)
let export_documents catalog (src : Source.t) export =
  match src.Source.kind with
  | Source.Relational | Source.Flat_file -> (
    match frag_fetch catalog src ~fragment:(frag_key_scan export) (Source.Q_scan export) with
    | Source.R_rows (_, rows) -> [ Source.table_document export rows ]
    | Source.R_trees trees -> trees
    | Source.R_batch _ -> fail "unexpected batch result from %s" src.Source.name)
  | Source.Xml_store -> frag_documents catalog src export

(* Turn one SQL fragment's raw result into bound environments. *)
let envs_of_sql_access access r =
  match access with
  | Med_planner.A_sql { fragment; pattern; _ } -> (
    match r with
    | Source.R_rows (_, rows) -> envs_of_sql_rows fragment rows
    | Source.R_trees trees -> match_documents pattern trees
    | Source.R_batch _ -> fail "unexpected nested batch result")
  | _ -> fail "internal: non-SQL access in a batch"

(* ------------------------------------------------------------------ *)
(* Scatter-gather prefetch                                             *)
(* ------------------------------------------------------------------ *)

type bind_outcome =
  | Narrowed of int
  | Unbound of string

type fetch_info = {
  fi_round : int;
  fi_shared : bool;
  fi_cache_hits : int;
}

let fetch_cells fi =
  Obs_report.fetch_cells ~round:fi.fi_round ~shared:fi.fi_shared ~cache_hits:fi.fi_cache_hits

type prefetched = {
  pf_result : (Alg_env.t list, exn) Stdlib.result;
  pf_info : fetch_info;
}

type access_stat = {
  stat_id : string;
  stat_access : Med_planner.access;
  stat_est_rows : float;
  mutable stat_calls : int;
  mutable stat_rows : int;
  mutable stat_ms : float;
  mutable stat_fetch : fetch_info option;
  mutable stat_bind : bind_outcome option;
  mutable stat_sem : Sem_cache.outcome option;
  mutable stat_idx : int * int * int;
  mutable stat_retry : int * int * int;
}

(* The per-query record EXPLAIN ANALYZE reads: one entry per top-level
   access id, each fact written where the executor learns it, plus the
   engine's root statistics.  Only the top-level plan writes it: nested
   view executions run without one (their access ids are their own), so
   a view access's figures include its sub-plans' work. *)
type record = {
  rec_accesses : access_stat list;
  mutable rec_root : (Alg_ops.op_stats * string list) option;
}

let entry record aid =
  Option.bind record (fun r -> List.find_opt (fun st -> st.stat_id = aid) r.rec_accesses)

(* The entries whose access has fetch key [key]: accesses sharing a key
   share one fetch, and each reports it. *)
let entries_of_key record key =
  List.filter
    (fun st -> Med_planner.access_key st.stat_access = key)
    (match record with Some r -> r.rec_accesses | None -> [])

let sem_sink sts verdict = List.iter (fun st -> st.stat_sem <- Some verdict) sts

(* Run one fetch and charge the index outcomes (value probes, guide
   probes, walker fallbacks) and retry-engine work (retries, give-ups,
   breaker fast-fails) it caused to [sts].  Fetches run on the caller's
   domain, so the counter deltas are this fetch's alone. *)
let charged sts fetch =
  let (g0, p0, m0), (r0, u0, f0) = (Idx_manager.counters (), Src_retry.counters ()) in
  let x = fetch () in
  let (g1, p1, m1), (r1, u1, f1) = (Idx_manager.counters (), Src_retry.counters ()) in
  List.iter
    (fun st ->
      let (p, g, m), (r, u, f) = (st.stat_idx, st.stat_retry) in
      st.stat_idx <- (p + p1 - p0, g + g1 - g0, m + m1 - m0);
      st.stat_retry <- (r + r1 - r0, u + u1 - u0, f + f1 - f0))
    sts;
  x

(* A plain SQL access's environments from [fetch]'s raw result and
   verdict ([sem] hears the verdict). *)
let sql_envs ~sem catalog (src : Source.t) access fetch =
  match access with
  | Med_planner.A_sql { export; fragment; pattern; _ } -> (
    try
      let r, verdict = fetch () in
      Option.iter sem verdict;
      envs_of_sql_access access r
    with Source.Query_rejected _ ->
      (* Capability miss at runtime: ship the whole export and re-apply
         the conditions the fragment would have evaluated (they left the
         residual pool at plan time). *)
      Obs_metrics.inc capability_fallbacks;
      let envs = match_documents pattern (export_documents catalog src export) in
      List.filter
        (fun env ->
          List.for_all
            (fun cond -> Alg_expr.eval_pred env cond)
            fragment.Med_sqlgen.pushed_conditions)
        envs)
  | _ -> fail "internal: not a plain SQL access"

let bind_of = function
  | Med_planner.A_sql_bind { bind; _ } -> Some bind
  | Med_planner.A_view { bind; _ } -> bind
  | Med_planner.A_sql _ | Med_planner.A_sql_join _ | Med_planner.A_path _
  | Med_planner.A_match _ -> None

(* A bound access as the plain access it narrows. *)
let unbound = function
  | Med_planner.A_sql_bind { source_name; export; fragment; pattern; _ } ->
    Med_planner.A_sql { source_name; export; fragment; pattern }
  | Med_planner.A_view r -> Med_planner.A_view { r with bind = None }
  | access -> access

(* Execute one access; may recurse through the compiler for views.
   [sem] hears the semantic cache's verdict on a SQL fragment. *)
let rec run_access ?(sem = ignore) catalog ~opts ~view_lookup access : Alg_env.t list =
  match access with
  | Med_planner.A_sql { source_name; _ } ->
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    sql_envs ~sem catalog src access (fun () -> fetch_sql catalog src access)
  | Med_planner.A_sql_join { source_name; fragment; exports = _ } -> (
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    let r, verdict = fetch_sql catalog src access in
    Option.iter sem verdict;
    match r with
    | Source.R_rows (_, rows) ->
      List.map
        (fun row ->
          Alg_env.of_bindings
            (List.map
               (fun (var, col) ->
                 (var, Dtree.atom (Option.value ~default:Value.Null (Tuple.get row col))))
               fragment.Med_sqlgen.jf_binds))
        rows
    | Source.R_trees _ -> fail "join fragment returned trees from %s" source_name
    | Source.R_batch _ -> fail "unexpected batch result from %s" source_name)
  | Med_planner.A_path { source_name; export; path; pattern; shape } -> (
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    if path_matches_nothing path then begin
      require_available catalog src;
      []
    end
    else
      try
        match
          frag_fetch catalog src ~fragment:(frag_key_path export path shape)
            (Source.Q_path (export, path, shape))
        with
        | Source.R_trees candidates ->
          (* Preselection is a superset; full matching verifies and binds. *)
          List.concat_map (Xq_eval.match_pattern pattern) candidates
        | Source.R_rows _ -> match_documents pattern (export_documents catalog src export)
        | Source.R_batch _ -> fail "unexpected batch result from %s" source_name
      with Source.Query_rejected _ ->
        Obs_metrics.inc capability_fallbacks;
        match_documents pattern (export_documents catalog src export))
  | Med_planner.A_match { source_name; export; pattern } ->
    let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
    match_documents pattern (export_documents catalog src export)
  | Med_planner.A_sql_bind _ ->
    (* Reached only without a resolved driver (e.g. a live re-pull after
       the prefetch buffer missed): ship the unbound fragment — always a
       correct superset of the bound fetch.  Likewise for a bound view
       below. *)
    run_access ~sem catalog ~opts ~view_lookup (unbound access)
  | Med_planner.A_view { view; pattern; composed; bind = _ } -> (
    match view_lookup view with
    | Some trees ->
      (* A materialized copy serves the view; conditions a composed
         access absorbed left the caller's plan, so they apply here. *)
      let absorbed =
        match composed with Some c -> c.Med_planner.absorbed | None -> []
      in
      List.filter
        (fun env -> List.for_all (fun cond -> Alg_expr.eval_pred env cond) absorbed)
        (match_documents pattern trees)
    | None -> (
      match composed with
      | Some c -> run_composed catalog ~opts ~view_lookup pattern c
      | None -> (
        match Med_catalog.find_view catalog view with
        | None -> fail "unknown view %s" view
        | Some v ->
          let trees =
            List.concat_map
              (fun def ->
                let sub = Med_planner.compile ~opts catalog def in
                (exec catalog ~opts ~partial:false ~view_lookup sub).trees)
              v.Med_catalog.definitions
          in
          match_documents pattern trees)))

(* A composed view access: run each specialized definition and bind the
   caller's variables from its rows.  A row whose template values are
   all atoms yields exactly the one root match its tree would; a row
   carrying element content instantiates its tree and matches it, as
   the tree path does.  Sub-plans run strict, inheriting the enclosing
   query's retry context, like the tree path's nested executions. *)
and run_composed catalog ~opts ~view_lookup pattern (c : Med_planner.composed) =
  let resolver = direct_resolver catalog in
  let atom_or_unbound env v =
    match Alg_env.get env v with Some (Dtree.Node _) -> false | Some (Dtree.Atom _) | None -> true
  in
  let bind env (x, b) =
    match b with
    | Med_planner.B_var v ->
      (x, Option.value ~default:(Dtree.atom Value.Null) (Alg_env.get env v))
    | Med_planner.B_const t -> (x, t)
  in
  List.concat_map
    (fun (d : Med_planner.composed_def) ->
      let envs =
        fst
          (Src_retry.with_query (Med_catalog.retry catalog) ~partial:false (fun () ->
               fst (run_plan catalog ~opts ~partial:false ~view_lookup d.Med_planner.sub)))
      in
      List.concat_map
        (fun env ->
          if List.for_all (atom_or_unbound env) d.Med_planner.element_vars then
            [ Alg_env.of_bindings (List.map (bind env) d.Med_planner.binds) ]
          else
            match_documents pattern
              (Xq_eval.instantiate resolver env d.Med_planner.sub.Med_planner.construct))
        envs)
    c.Med_planner.defs

(* Several SQL fragments bound for one relational source, shipped as a
   single batched round trip (one latency charge).  Each member's exact
   key is probed once; the semantic layer is asked about the misses,
   whose full hits resolve locally; the rest ship in one batch —
   possibly as remainder queries, merged back on arrival.  A source
   without batch capability falls back to individual calls inside the
   same scheduling lane. *)
and run_sql_batch ?record catalog source_name members =
  let sem key = sem_sink (entries_of_key record key) in
  let frag = Med_catalog.frag_cache catalog in
  let src = Src_registry.find_exn (Med_catalog.registry catalog) source_name in
  let envs access r = try Ok (envs_of_sql_access access r) with e -> Error e in
  let probed =
    List.map
      (fun (key, access) ->
        let ckey = frag_key_sql (fst (sql_of_access access)) in
        (key, access, ckey, Frag_cache.get frag ~source:source_name ~fragment:ckey))
      members
  in
  let settled : (string, (Alg_env.t list, exn) Stdlib.result) Hashtbl.t =
    Hashtbl.create (max 1 (List.length members))
  in
  let to_ship =
    List.filter_map
      (fun (key, access, ckey, cached) ->
        match cached with
        | Some _ -> None
        | None -> (
          match sem_plan catalog src ~key:ckey access with
          | Some (Sem_rewrite.P_local (r, hit)) ->
            sem key hit;
            Hashtbl.replace settled key (envs access r);
            None
          | plan -> Some (key, access, ckey, plan)))
      probed
  in
  let solo (key, access, ckey, plan) =
    Hashtbl.replace settled key
      (try
         Ok
           (sql_envs ~sem:(sem key) catalog src access (fun () ->
                ship_sql catalog src access ~key:ckey plan))
       with e -> Error e)
  in
  let land_result (key, access, ckey, plan) r =
    let _, putkey, finish = shipment access ~key:ckey plan in
    Frag_cache.put frag ~source:source_name ~fragment:putkey r;
    Hashtbl.replace settled key
      (try
         let r, verdict = finish r in
         Option.iter (sem key) verdict;
         envs access r
       with e -> Error e)
  in
  (match to_ship with
  | [] -> ()
  | [ m ] -> solo m
  | _ -> (
    let queries =
      List.map
        (fun (_, access, ckey, plan) ->
          let text, _, _ = shipment access ~key:ckey plan in
          Source.Q_sql text)
        to_ship
    in
    match
      Src_retry.call (Med_catalog.retry catalog) ~source:source_name (fun () ->
          src.Source.execute (Source.Q_batch queries))
    with
    | Source.R_batch results when List.length results = List.length to_ship ->
      List.iter2 land_result to_ship results
    | _ ->
      (* Malformed batch reply: refetch the members one by one. *)
      List.iter solo to_ship
    | exception Source.Query_rejected _ ->
      (* No batch capability at this source. *)
      Obs_metrics.inc batch_fallbacks;
      List.iter solo to_ship
    | exception e ->
      (* The whole round trip failed (e.g. the source is offline):
         every member shares the outcome, as one call would have. *)
      List.iter (fun (key, _, _, _) -> Hashtbl.replace settled key (Error e)) to_ship));
  List.map
    (fun (key, access, _, cached) ->
      match cached with
      | Some r -> (key, envs access r, 1)
      | None -> (key, Hashtbl.find settled key, 0))
    probed

(* Collect the plan's source accesses and issue them as overlapped
   rounds; the returned buffer (keyed by access key) then resolves
   scans without touching the wire.  View accesses recurse through the
   compiler and stay lazy. *)
and prefetch ?record catalog ~opts ~view_lookup (compiled : Med_planner.compiled) =
  let fo = Med_catalog.fetch_options catalog in
  match fo.Fetch_sched.mode with
  | Fetch_sched.Sequential -> None
  | Fetch_sched.Gather ->
    let fetchable =
      List.filter_map
        (fun (_aid, access) ->
          match access with
          (* Views stay lazy; bind joins resolve after their driver, in
             [resolve_binds] — prefetching one here would ship the
             unbound fragment and defeat the optimizer's choice.  An
             access narrowed by no keys never ships: it resolves at pull
             time, through [fetch_sql] or [run_access]. *)
          | Med_planner.A_view _ | Med_planner.A_sql_bind _ -> None
          | a when ships_nothing a -> None
          | a -> Some a)
        compiled.Med_planner.accesses
    in
    let is_rel_sql = function
      | Med_planner.A_sql { source_name; _ } -> (
        match Src_registry.find (Med_catalog.registry catalog) source_name with
        | Some src -> src.Source.kind = Source.Relational
        | None -> false)
      | _ -> false
    in
    (* SQL fragments for one relational source group into a batch;
       within a group, identical fragments collapse (counted as dedup
       hits alongside the scheduler's own key dedup). *)
    let groups : (string, (string * Med_planner.access) list ref) Hashtbl.t =
      Hashtbl.create 4
    in
    let dedup_hits = ref 0 in
    List.iter
      (fun access ->
        if is_rel_sql access then begin
          let source = Med_planner.access_target access in
          let key = Med_planner.access_key access in
          let cell =
            match Hashtbl.find_opt groups source with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add groups source c;
              c
          in
          if List.mem_assoc key !cell then incr dedup_hits
          else cell := (key, access) :: !cell
        end)
      fetchable;
    if !dedup_hits > 0 then
      Obs_metrics.inc ~by:!dedup_hits (Obs_metrics.counter "fetch.dedup_hits");
    let individual_task access =
      let key = Med_planner.access_key access in
      {
        Fetch_sched.task_key = key;
        task_run =
          (fun () ->
            let st = Frag_cache.stats (Med_catalog.frag_cache catalog) in
            let h0 = st.Frag_cache.frag_hits in
            let r =
              try
                Ok
                  (run_access ~sem:(sem_sink (entries_of_key record key)) catalog ~opts
                     ~view_lookup access)
              with e -> Error e
            in
            [ (key, r, st.Frag_cache.frag_hits - h0) ]);
      }
    in
    let batch_task source members =
      {
        Fetch_sched.task_key =
          "batch|" ^ source ^ "|" ^ String.concat "\x00" (List.map fst members);
        task_run =
          (fun () ->
            try run_sql_batch ?record catalog source members
            with e -> List.map (fun (key, _) -> (key, Error e, 0)) members);
      }
    in
    (* One task per access, in plan order; each relational-SQL group is
       emitted once, at its first member's position. *)
    let emitted : (string, unit) Hashtbl.t = Hashtbl.create 4 in
    let tasks =
      List.filter_map
        (fun access ->
          if is_rel_sql access then begin
            let source = Med_planner.access_target access in
            if Hashtbl.mem emitted source then None
            else begin
              Hashtbl.add emitted source ();
              match List.rev !(Hashtbl.find groups source) with
              | [ (_, a) ] -> Some (individual_task a)
              | members -> Some (batch_task source members)
            end
          end
          else Some (individual_task access))
        fetchable
    in
    let outcomes = Fetch_sched.run ~fanout:fo.Fetch_sched.fanout tasks in
    let buffer : (string, prefetched) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (o : _ Fetch_sched.outcome) ->
        match o.Fetch_sched.result with
        | Ok entries ->
          List.iter
            (fun (key, pf_result, cache_hits) ->
              if not (Hashtbl.mem buffer key) then begin
                let info =
                  {
                    fi_round = o.Fetch_sched.round;
                    fi_shared = o.Fetch_sched.shared;
                    fi_cache_hits = cache_hits;
                  }
                in
                Hashtbl.replace buffer key { pf_result; pf_info = info };
                List.iter (fun st -> st.stat_fetch <- Some info) (entries_of_key record key)
              end)
            entries
        | Error _ ->
          (* Tasks capture their own failures; an escape here means the
             access resolves live at pull time instead. *)
          ())
      outcomes;
    Some buffer

(* ------------------------------------------------------------------ *)
(* Bind-join resolution                                                *)
(* ------------------------------------------------------------------ *)

(* Resolve every bind-join access, SQL or view, along one path: fetch
   (or reuse) its driver, take the driver's distinct keys, narrow a copy
   of the access to them, and land both results in the prefetch buffer
   so scans pull them without touching the wire.  The access runs
   unbound instead when the driver failed (strict errors and partial
   skips stay those of the unbound plan), when the keys exceed the cap,
   when a key is not canonical for a narrowed column, or when a
   materialized copy serves the view.  Bound accesses resolve in join
   order, and drivers come earlier, so a bound access can drive a later
   one.  Runs under both fetch modes — sequential execution creates a
   buffer here just for the bound accesses and their drivers. *)
and resolve_binds ?record catalog ~opts ~view_lookup (compiled : Med_planner.compiled)
    buffer =
  let accesses = compiled.Med_planner.accesses in
  if not (List.exists (fun (_, a) -> bind_of a <> None) accesses) then buffer
  else begin
    let buf = match buffer with Some b -> b | None -> Hashtbl.create 8 in
    let narrow access v keys =
      match access with
      | Med_planner.A_view { view; _ } when view_lookup view <> None -> Error "materialized"
      | _ -> narrow_access catalog v keys (unbound access)
    in
    let rec result aid =
      match List.assoc_opt aid accesses with
      | None -> Error (Exec_error ("unknown bind driver " ^ aid))
      | Some access -> (
        let key = Med_planner.access_key access in
        match Hashtbl.find_opt buf key with
        | Some p -> p.pf_result
        | None ->
          (* The scan later reads the buffer without fetching, so the
             fetch's cache hits, index and retry work are charged here. *)
          let sts = entries_of_key record key in
          let run a =
            let hits () = (Frag_cache.stats (Med_catalog.frag_cache catalog)).Frag_cache.frag_hits in
            let h0 = hits () in
            let r =
              charged sts (fun () ->
                  try Ok (run_access ~sem:(sem_sink sts) catalog ~opts ~view_lookup a)
                  with e -> Error e)
            in
            (r, hits () - h0)
          in
          let (r, cache_hits), bind =
            match bind_of access with
            | None -> (run access, None)
            | Some { Med_planner.bind_driver; bind_var } -> (
              let narrowed =
                match result bind_driver with
                | Error _ -> Error "driver-failed"
                | Ok envs -> (
                  match bind_key_values envs bind_var with
                  | None -> Error (Printf.sprintf "keys>%d" Med_planner.max_bind_keys)
                  | Some keys ->
                    Result.map (fun a -> (a, List.length keys)) (narrow access bind_var keys))
              in
              match narrowed with
              | Ok (a, n) -> (run a, Some (Narrowed n))
              | Error why -> (run (unbound access), Some (Unbound why)))
          in
          let info = { fi_round = 0; fi_shared = false; fi_cache_hits = cache_hits } in
          Hashtbl.replace buf key { pf_result = r; pf_info = info };
          List.iter
            (fun st ->
              st.stat_fetch <- Some info;
              st.stat_bind <- bind)
            sts;
          r)
    in
    List.iter
      (fun aid ->
        match List.assoc_opt aid accesses with
        | Some a when bind_of a <> None -> ignore (result aid)
        | Some _ | None -> ())
      (Alg_plan.free_sources compiled.Med_planner.plan);
    Some buf
  end

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

and source_fn_of ?record catalog ~opts ~view_lookup ?buffer
    (compiled : Med_planner.compiled) : Alg_exec.source_fn =
  let find_access aid =
    match List.assoc_opt aid compiled.Med_planner.accesses with
    | None -> fail "internal: unknown access id %s" aid
    | Some access -> access
  in
  let buffer_entry access =
    match buffer with
    | None -> None
    | Some b -> Hashtbl.find_opt b (Med_planner.access_key access)
  in
  let resolve =
    Alg_exec.buffered
      (fun aid -> Option.map (fun p -> p.pf_result) (buffer_entry (find_access aid)))
      (fun aid _binding ->
        List.to_seq
          (run_access
             ~sem:(sem_sink (Option.to_list (entry record aid)))
             catalog ~opts ~view_lookup (find_access aid)))
  in
  let traced access_id binding =
    let access = find_access access_id in
    let target = access_target access in
    Obs_trace.with_span "mediator.access" (fun span ->
        Obs_span.set span "id" access_id;
        Obs_span.set span "target" target;
        Obs_span.set span "push" (access_push access);
        Option.iter
          (fun p -> List.iter (fun (k, v) -> Obs_span.set span k v) (fetch_cells p.pf_info))
          (buffer_entry access);
        Obs_metrics.inc
          (Obs_metrics.counter (Printf.sprintf "source.%s.accesses" target));
        try
          let envs = List.of_seq (resolve access_id binding) in
          let n = List.length envs in
          Obs_span.set_int span "rows" n;
          Obs_metrics.inc ~by:n
            (Obs_metrics.counter (Printf.sprintf "source.%s.rows" target));
          (* The feedback loop: whatever this access shipped is the best
             cardinality estimate for its next compilation. *)
          Obs_feedback.record (Med_catalog.feedback catalog)
            (Med_planner.access_key access) n;
          (* An unfiltered single-table fetch doubles as a row-count
             observation for the statistics catalog (seeding tables no
             one has analyzed yet). *)
          (match access with
          | Med_planner.A_sql { source_name; export; fragment; _ }
            when fragment.Med_sqlgen.sql.Sql_ast.where = None
                 && fragment.Med_sqlgen.sql.Sql_ast.limit = None
                 && fragment.Med_sqlgen.sql.Sql_ast.group_by = []
                 && not fragment.Med_sqlgen.sql.Sql_ast.distinct ->
            Med_stats.observe_rows (Med_catalog.stats catalog)
              ~source:source_name ~export n
          | _ -> ());
          List.to_seq envs
        with Source.Unavailable name ->
          Obs_metrics.inc
            (Obs_metrics.counter (Printf.sprintf "source.%s.unavailable" target));
          raise (Alg_exec.Source_unavailable name))
  in
  fun access_id binding ->
    match entry record access_id with
    | None -> traced access_id binding
    | Some st ->
      let t0 = Obs_clock.wall_ms () in
      let envs = charged [ st ] (fun () -> List.of_seq (traced access_id binding)) in
      st.stat_calls <- st.stat_calls + 1;
      st.stat_rows <- st.stat_rows + List.length envs;
      st.stat_ms <- st.stat_ms +. (Obs_clock.wall_ms () -. t0);
      List.to_seq envs

and exec ?record catalog ~opts ~partial ~view_lookup (compiled : Med_planner.compiled) =
  (* The whole execution runs under one retry-budget context: nested
     view executions inherit the enclosing query's deadline, and the
     sources served stale (partial mode only) surface in the result. *)
  let (trees, envs, skipped), stale =
    Src_retry.with_query (Med_catalog.retry catalog) ~partial (fun () ->
        let envs, skipped = run_plan ?record catalog ~opts ~partial ~view_lookup compiled in
        (* Instantiate the CONSTRUCT template per binding.  Correlated
           subqueries re-enter through the direct resolver. *)
        let resolver = direct_resolver catalog in
        ( List.concat_map
            (fun env -> Xq_eval.instantiate resolver env compiled.Med_planner.construct)
            envs,
          envs,
          skipped ))
  in
  { trees; bindings = envs; skipped_sources = skipped; stale_sources = stale }

(* Fetch and run the plan: the bindings and the sources partial mode
   skipped.  With a [record], the engine runs instrumented and the record
   receives each access's facts and the root operator statistics. *)
and run_plan ?record catalog ~opts ~partial ~view_lookup (compiled : Med_planner.compiled) =
  Obs_trace.with_span "query" (fun qspan ->
      let buffer = prefetch ?record catalog ~opts ~view_lookup compiled in
      let buffer = resolve_binds ?record catalog ~opts ~view_lookup compiled buffer in
      let sources = source_fn_of ?record catalog ~opts ~view_lookup ?buffer compiled in
      let skipped = ref [] in
      let sources = if partial then Alg_exec.partial_guard skipped sources else sources in
      let plan = compiled.Med_planner.plan in
      (* Feedback/statistics/index-backed cardinalities, so the parallel
         engine pre-sizes its per-partition join tables from real
         estimates instead of the blind scan default. *)
      let cost_rows plan =
        let src aid =
          Med_planner.source_rows ~feedback:(Med_catalog.feedback catalog)
            ~stats:(Med_catalog.stats catalog) compiled aid
        in
        (Alg_cost.estimate ~source_rows:src plan).Alg_cost.rows
      in
      let mode = Med_catalog.exec_mode catalog in
      let envs =
        match record with
        | None -> Alg_exec.run_mode ~cost_rows mode sources plan
        | Some r ->
          let envs, root, root_cells =
            match mode with
            | Alg_exec.Tuple ->
              let envs, root = Alg_exec.run_instrumented sources plan in
              (envs, root, [])
            | Alg_exec.Parallel { domains; chunk } ->
              let envs, pstats = Alg_exec.run_parallel ~domains ~chunk ~cost_rows sources plan in
              (envs, pstats.Alg_par.root, Alg_par.root_cells pstats)
          in
          if Obs_trace.enabled () then Obs_trace.emit (Alg_ops.span_of_stats root);
          r.rec_root <- Some (root, root_cells);
          envs
      in
      let skipped = List.rev !skipped in
      if skipped <> [] then begin
        (* Partial-result degradation (section 3.4): the answer shipped,
           but not all sources contributed. *)
        Obs_metrics.inc (Obs_metrics.counter "mediator.partial.degraded");
        Obs_metrics.inc ~by:(List.length skipped)
          (Obs_metrics.counter "mediator.partial.skipped_sources");
        Obs_span.set qspan "skipped" (String.concat "," skipped)
      end;
      Obs_span.set_int qspan "rows" (List.length envs);
      (envs, skipped))

let run_compiled ?(view_lookup = no_lookup) catalog compiled =
  exec catalog ~opts:Med_sqlgen.default_options ~partial:false ~view_lookup compiled

let run_compiled_partial ?(view_lookup = no_lookup) catalog compiled =
  exec catalog ~opts:Med_sqlgen.default_options ~partial:true ~view_lookup compiled

let run ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup) catalog q =
  (exec catalog ~opts ~partial:false ~view_lookup (Med_planner.compile ~opts catalog q)).trees

let run_text ?opts ?view_lookup catalog text =
  match Xq_parser.parse text with
  | Ok q -> run ?opts ?view_lookup catalog q
  | Error m -> fail "%s" m

let run_partial ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup) catalog q =
  let r =
    exec catalog ~opts ~partial:true ~view_lookup (Med_planner.compile ~opts catalog q)
  in
  (r.trees, r.skipped_sources)

let explain_text catalog text =
  match Xq_parser.parse text with
  | Ok q -> Med_planner.explain (Med_planner.compile catalog q)
  | Error m -> fail "%s" m

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)
(* ------------------------------------------------------------------ *)

type analysis = {
  analyzed_result : result;
  analyzed_compiled : Med_planner.compiled;
  analyzed_source_rows : string -> float;
  analyzed_actual : Alg_plan.t -> (int * float) option;
  analyzed_cells : Alg_plan.t -> string list;
      (* engine cells per node (morsels, fallback, idx, root domains/skew) *)
  analyzed_mode : Alg_exec.mode;
  analyzed_accesses : access_stat list;
  analyzed_wall_ms : float;
  analyzed_virtual_ms : float;
}

let run_analyzed ?(opts = Med_sqlgen.default_options) ?(view_lookup = no_lookup)
    catalog q =
  let fb = Med_catalog.feedback catalog in
  let compiled = Med_planner.compile ~opts ~feedback:fb catalog q in
  (* Snapshot the estimates BEFORE executing: the whole point of the
     report is comparing what the planner believed going in against what
     the run measured (the run itself updates the feedback store). *)
  let est aid =
    Med_planner.source_rows ~feedback:fb ~stats:(Med_catalog.stats catalog) compiled aid
  in
  let fresh (aid, access) =
    {
      stat_id = aid;
      stat_access = access;
      stat_est_rows = est aid;
      stat_calls = 0;
      stat_rows = 0;
      stat_ms = 0.0;
      stat_fetch = None;
      stat_bind = None;
      stat_sem = None;
      stat_idx = (0, 0, 0);
      stat_retry = (0, 0, 0);
    }
  in
  let record = { rec_accesses = List.map fresh compiled.Med_planner.accesses; rec_root = None } in
  let source_rows aid =
    Option.fold ~none:Alg_cost.default_scan_rows
      ~some:(fun st -> st.stat_est_rows)
      (entry (Some record) aid)
  in
  let t0 = Obs_clock.wall_ms () in
  let v0 = Obs_clock.virtual_ms () in
  let result = exec ~record catalog ~opts ~partial:false ~view_lookup compiled in
  let root, root_cells = Option.get record.rec_root in
  {
    analyzed_result = result;
    analyzed_compiled = compiled;
    analyzed_source_rows = source_rows;
    analyzed_actual = Alg_ops.actual_of_stats root;
    analyzed_cells = Alg_ops.cells_of_stats ~root_cells root;
    analyzed_mode = Med_catalog.exec_mode catalog;
    analyzed_accesses = record.rec_accesses;
    analyzed_wall_ms = Obs_clock.wall_ms () -. t0;
    analyzed_virtual_ms = Obs_clock.virtual_ms () -. v0;
  }

let analysis_to_string a =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Alg_cost.explain_analyze ~extra:a.analyzed_cells
       ~source_rows:a.analyzed_source_rows ~actual:a.analyzed_actual
       a.analyzed_compiled.Med_planner.plan);
  (match a.analyzed_compiled.Med_planner.opt_info with
  | None -> ()
  | Some oi ->
    Buffer.add_string buf (Med_planner.opt_info_to_string oi);
    Buffer.add_char buf '\n');
  Buffer.add_string buf "accesses:\n";
  List.iter
    (fun st ->
      let fetch = Option.fold ~none:[] ~some:fetch_cells st.stat_fetch in
      let bind =
        match st.stat_bind with
        | None -> []
        | Some (Narrowed n) -> [ Obs_report.int_cell "keys" n ]
        | Some (Unbound why) -> [ ("unbound", why) ]
      in
      let sem = Option.fold ~none:[] ~some:Sem_cache.outcome_cells st.stat_sem in
      let idx =
        let p, g, m = st.stat_idx in
        if p + g = 0 then []
        else [ ("idx", Printf.sprintf "probe:%d/guide:%d/miss:%d" p g m) ]
      in
      (* Retry cells appear only when something actually happened, like
         the idx cell — fault-free reports stay byte-identical. *)
      let retry =
        let r, u, f = st.stat_retry in
        (if r > 0 then [ Obs_report.int_cell "retries" r ] else [])
        @ (if u > 0 then [ Obs_report.int_cell "gave_up" u ] else [])
        @ if f > 0 then [ ("breaker", "open") ] else []
      in
      Buffer.add_string buf
        (Med_planner.access_to_string (st.stat_id, st.stat_access));
      Buffer.add_string buf
        (Printf.sprintf "  [%s]\n"
           (Obs_report.cells
              ([
                 ("est", Printf.sprintf "%.0f" st.stat_est_rows);
                 Obs_report.int_cell "calls" st.stat_calls;
                 Obs_report.int_cell "rows" st.stat_rows;
                 ("time", Printf.sprintf "%.2fms" st.stat_ms);
               ]
              @ fetch @ bind @ sem @ idx @ retry)))
      )
    a.analyzed_accesses;
  let exec_note =
    match a.analyzed_mode with
    | Alg_exec.Tuple -> ""
    | Alg_exec.Parallel { domains; chunk } ->
      Printf.sprintf " [parallel domains=%d chunk=%d]" domains chunk
  in
  Buffer.add_string buf
    (Printf.sprintf "-- %d rows in %.2fms (virtual %.2fms)%s\n"
       (List.length a.analyzed_result.bindings)
       a.analyzed_wall_ms a.analyzed_virtual_ms exec_note);
  Buffer.contents buf
