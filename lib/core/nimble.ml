type cleaner = {
  cl_flow : Cl_flow.flow;
  cl_key_field : string;
  cl_query : Xq_ast.query;
  cl_concordance : Cl_concordance.t;
  cl_lineage : Cl_lineage.t;
  mutable cl_exceptions : (string * string) list;
}

type t = {
  sys_name : string;
  cat : Med_catalog.t;
  mat : Mat_store.t;
  results : Mat_cache.t;
  accounts : Fe_auth.t;
  lenses : (string, Fe_lens.t) Hashtbl.t;
  cleaners : (string, cleaner) Hashtbl.t;
  (* The morsel size the [parallel] knob switches on with; kept here so
     [chunk-size] holds its value while plans run tuple-at-a-time. *)
  mutable chunk : int;
}

let create ?(name = "nimble") ?(cache_capacity = 64) ?cache_ttl_ms ?(frag_capacity = 0)
    ?frag_ttl_ms ?(sem_budget_bytes = 0) () =
  let cat = Med_catalog.create ?frag_ttl_ms ~frag_capacity ~sem_budget_bytes () in
  let results = Mat_cache.create ?ttl_ms:cache_ttl_ms ~capacity:cache_capacity () in
  (* Whole-query results hear every catalog change: a redefined or
     dropped view, a new source, an out-of-band update. *)
  Med_catalog.on_mutation cat (fun name -> ignore (Mat_cache.invalidate_source results name));
  {
    sys_name = name;
    cat;
    mat = Mat_store.create cat;
    results;
    accounts = Fe_auth.create ();
    lenses = Hashtbl.create 8;
    cleaners = Hashtbl.create 4;
    chunk = Alg_exec.default_chunk;
  }

let name t = t.sys_name
let catalog t = t.cat
let store t = t.mat
let cache t = t.results
let auth t = t.accounts

(* Uniform error wrapping: every known subsystem exception becomes a
   string error instead of escaping to the caller. *)
let guard f =
  try Ok (f ()) with
  | Med_catalog.Catalog_error m
  | Med_exec.Exec_error m
  | Mat_store.Mat_error m
  | Fe_lens.Lens_error m
  | Fe_auth.Auth_error m
  | Xq_eval.Eval_error m
  | Cl_flow.Flow_error m
  | Rel_db.Sql_error m -> Error m
  | Med_planner.Plan_error m -> Error ("planning: " ^ m)
  | Source.Unavailable s -> Error (Printf.sprintf "source %s is unavailable" s)
  | Alg_exec.Source_unavailable s -> Error (Printf.sprintf "source %s is unavailable" s)
  | Source.Query_rejected m -> Error ("source rejected query: " ^ m)
  | Invalid_argument m -> Error m

let register_source t src = guard (fun () -> Med_catalog.register_source t.cat src)

let define_view t ?description vname text =
  guard (fun () -> Med_catalog.define_view_text t.cat ?description vname text)

let drop_view t vname =
  guard (fun () ->
      (* Catalog first: its dependency check may refuse, and the
         materialized copy must survive a refused drop. *)
      Med_catalog.drop_view t.cat vname;
      Mat_store.drop t.mat vname)

let materialize_view t ?policy vname =
  guard (fun () -> ignore (Mat_store.materialize t.mat ?policy vname))

let refresh_view t vname = guard (fun () -> Mat_store.refresh t.mat vname)

let dematerialize_view t vname = Mat_store.drop t.mat vname

let add_user t ?role uname password =
  guard (fun () -> Fe_auth.add_user t.accounts ?role uname password)

(* ------------------------------------------------------------------ *)
(* Dynamic cleaning sources                                            *)
(* ------------------------------------------------------------------ *)

(* A query-time cleaning source: every access recomputes the base query
   and runs the flow, replaying recorded determinations (section 3.2's
   extraction phase). *)
let register_cleaned_source t ~name ~key_field ~flow ~from_query =
  match Xq_parser.parse from_query with
  | Error m -> Error m
  | Ok q ->
    guard (fun () ->
        let cleaner =
          {
            cl_flow = flow;
            cl_key_field = key_field;
            cl_query = q;
            cl_concordance = Cl_concordance.create ();
            cl_lineage = Cl_lineage.create ();
            cl_exceptions = [];
          }
        in
        let clean_rows () =
          let trees = Med_exec.run t.cat cleaner.cl_query in
          let tuples = List.map Dtree.to_tuple trees in
          let records = Cl_flow.records_of_tuples ~key_field tuples in
          let report =
            Cl_flow.run ~concordance:cleaner.cl_concordance ~lineage:cleaner.cl_lineage
              cleaner.cl_flow records
          in
          cleaner.cl_exceptions <- report.Cl_flow.exceptions;
          List.map (fun r -> r.Cl_merge_purge.data) report.Cl_flow.output
        in
        let execute = function
          | Source.Q_scan _ ->
            let rows = clean_rows () in
            let names =
              match rows with
              | row :: _ -> Tuple.field_names row
              | [] -> []
            in
            Source.R_rows (names, rows)
          | Source.Q_sql _ | Source.Q_path _ | Source.Q_batch _ ->
            raise (Source.Query_rejected "cleaned sources accept scans only")
        in
        let src =
          {
            Source.name;
            kind = Source.Flat_file;
            capability = Source.scan_only;
            relations = (fun () -> []);
            document_names = (fun () -> [ name ]);
            documents = (fun _ -> [ Source.table_document name (clean_rows ()) ]);
            execute;
            is_available = (fun () -> true);
          }
        in
        Med_catalog.register_source t.cat src;
        Hashtbl.replace t.cleaners name cleaner)

let cleaning_exceptions t name =
  match Hashtbl.find_opt t.cleaners name with
  | Some c -> c.cl_exceptions
  | None -> []

let resolve_match t name verdict a b =
  match Hashtbl.find_opt t.cleaners name with
  | None -> Error (Printf.sprintf "no cleaned source named %s" name)
  | Some c ->
    ignore (Cl_concordance.resolve c.cl_concordance verdict a b);
    Ok ()

let cleaning_lineage t name =
  Option.map (fun c -> c.cl_lineage) (Hashtbl.find_opt t.cleaners name)

let report t =
  Fe_admin.system_report t.cat ~store:t.mat ~cache:t.results ()

(* Source closure of a query: clause sources plus, through views, the
   base sources they read — the invalidation tags of cached entries. *)
let rec source_closure t q =
  List.concat_map
    (fun src_name ->
      match Med_catalog.find_view t.cat src_name with
      | Some v ->
        src_name :: List.concat_map (source_closure t) v.Med_catalog.definitions
      | None -> (
        match Hashtbl.find_opt t.cleaners src_name with
        (* Cleaned sources read through their base query, so updates to
           the underlying sources must invalidate them too. *)
        | Some cleaner -> src_name :: source_closure t cleaner.cl_query
        | None -> (
          match String.index_opt src_name '.' with
          | Some i -> [ src_name; String.sub src_name 0 i ]
          | None -> [ src_name ])))
    (Xq_ast.all_sources_of q)
  |> List.sort_uniq String.compare

(* Every cache level hears the catalog's one invalidation path.  The
   return counts query-level entries (the historical contract); fragment
   drops are visible in the fragcache counters. *)
let invalidate_source t source_name =
  let before = Mat_cache.size t.results in
  Med_catalog.notify_invalidation t.cat source_name;
  before - Mat_cache.size t.results

(* ------------------------------------------------------------------ *)
(* Execution knobs                                                     *)
(* ------------------------------------------------------------------ *)

type 'a knob = {
  name : string;
  docv : string;
  doc : string;
  get : 'a -> string;
  set : 'a -> string -> (unit, string) result;
}

(* [bad n] is the error text for a value out of range, if it is. *)
let int_knob name docv doc ~get ~bad ~apply =
  let set t v =
    match int_of_string_opt v with
    | None -> Error (Printf.sprintf "invalid value %S for %s (expected an integer)" v name)
    | Some n -> (
      match bad n with
      | Some m -> Error m
      | None -> Ok (apply t n))
  in
  { name; docv; doc; get = (fun t -> string_of_int (get t)); set }

let on_off_knob name what doc ~get ~apply =
  let set t = function
    | "on" -> Ok (apply t true)
    | "off" -> Ok (apply t false)
    | s -> Error (Printf.sprintf "unknown %s mode %S (on, off)" what s)
  in
  { name; docv = "on|off"; doc; get = (fun t -> if get t then "on" else "off"); set }

let fetch t = Med_catalog.fetch_options t.cat
let set_fetch t f = Med_catalog.set_fetch_options t.cat (f (fetch t))
let retry_policy t = Med_catalog.retry_policy t.cat
let set_retry_policy t pol = Med_catalog.set_retry_policy t.cat pol

(* Every retry knob edits one field of the one policy. *)
let set_retry t f = set_retry_policy t (f (retry_policy t))

let chunk t =
  match Med_catalog.exec_mode t.cat with
  | Alg_exec.Parallel { chunk; _ } -> chunk
  | Alg_exec.Tuple -> t.chunk

let non_negative what n = if n < 0 then Some (what ^ " must be non-negative") else None

(* One entry per knob; the CLI flags, the repl's [\set]/[\show], the
   saved scripts' [set] lines and the unit tests all read this list.
   Each setter carries the knob's validation and its error text. *)
let knobs =
  [
    {
      name = "fetch-mode";
      docv = "MODE";
      doc =
        "Source fetch scheduling: seq (one access at a time) or gather \
         (scatter-gather rounds of --fetch-fanout overlapped accesses, with \
         per-source batching and dedup).";
      get = (fun t -> Fetch_sched.mode_to_string (fetch t).Fetch_sched.mode);
      set =
        (fun t v ->
          match Fetch_sched.mode_of_string v with
          | Some mode -> Ok (set_fetch t (fun o -> { o with mode }))
          | None -> Error (Printf.sprintf "unknown fetch mode %S (seq, gather)" v));
    };
    int_knob "fetch-fanout" "K" "Accesses per scatter-gather round (gather mode only)."
      ~get:(fun t -> (fetch t).Fetch_sched.fanout)
      ~bad:(fun _ -> None)
      ~apply:(fun t n -> set_fetch t (fun o -> { o with fanout = max 1 n }));
    int_knob "frag-cache" "N"
      "Enable a fragment-level source result cache of N entries (0 \
       disables; sits below the whole-query result cache)."
      ~get:(fun t -> Frag_cache.capacity (Med_catalog.frag_cache t.cat))
      ~bad:(non_negative "fragment cache capacity")
      ~apply:(fun t capacity ->
        let ttl_ms = Frag_cache.ttl_ms (Med_catalog.frag_cache t.cat) in
        Med_catalog.configure_frag_cache t.cat ?ttl_ms ~capacity ());
    int_knob "sem-cache" "BYTES"
      "Enable the semantic fragment cache with a budget of BYTES bytes (0 \
       disables).  Cached extents answer repeated source fragments whose \
       predicate is contained in a cached one without contacting the \
       source, and overlapping predicates ship only the remainder."
      ~get:(fun t -> Sem_cache.budget (Med_catalog.sem_cache t.cat))
      ~bad:(non_negative "semantic cache budget")
      ~apply:(fun t budget_bytes -> Med_catalog.configure_sem_cache t.cat ~budget_bytes ());
    int_knob "retry" "N"
      "Retry transiently unavailable source calls up to N times with \
       capped exponential backoff and seeded jitter, charged to the \
       virtual clock (0, the default, disables retries)."
      ~get:(fun t -> (retry_policy t).Src_retry.max_retries)
      ~bad:(non_negative "--retry")
      ~apply:(fun t n -> set_retry t (fun p -> { p with Src_retry.max_retries = n }));
    {
      name = "retry-deadline";
      docv = "MS";
      doc =
        "Per-call retry budget in virtual milliseconds: a retry whose \
         backoff would overshoot the budget gives up instead (0 disables \
         the deadline).";
      get =
        (fun t ->
          Option.fold ~none:"0" ~some:(Printf.sprintf "%g")
            (retry_policy t).Src_retry.call_deadline_ms);
      set =
        (fun t v ->
          match float_of_string_opt v with
          | None -> Error (Printf.sprintf "invalid value %S for retry-deadline (expected a number)" v)
          | Some d when d < 0.0 -> Error "--retry-deadline must be non-negative"
          | Some d ->
            let call_deadline_ms = if d > 0.0 then Some d else None in
            Ok (set_retry t (fun p -> { p with Src_retry.call_deadline_ms })));
    };
    on_off_knob "breaker" "breaker"
      "Per-source circuit breakers: after consecutive failures the \
       breaker opens and calls fail fast (no latency paid) until a \
       cool-down admits a half-open probe."
      ~get:(fun t -> (retry_policy t).Src_retry.breaker)
      ~apply:(fun t breaker -> set_retry t (fun p -> { p with Src_retry.breaker }));
    on_off_knob "retry-stale" "stale"
      "Partial-results mode may serve expired fragment-cache extents for \
       a source whose retry budget is exhausted, and names it stale."
      ~get:(fun t -> (retry_policy t).Src_retry.serve_stale)
      ~apply:(fun t serve_stale -> set_retry t (fun p -> { p with Src_retry.serve_stale }));
    int_knob "chunk-size" "N" "Rows per morsel on the morsel-driven engine." ~get:chunk
      ~bad:(fun n -> if n <= 0 then Some "chunk size must be positive" else None)
      ~apply:(fun t n ->
        t.chunk <- n;
        match Med_catalog.exec_mode t.cat with
        | Alg_exec.Parallel p -> Med_catalog.set_exec_mode t.cat (Alg_exec.Parallel { p with chunk = n })
        | Alg_exec.Tuple -> ());
    int_knob "parallel" "N"
      "Run plans on the morsel-driven engine with N domains (the calling \
       domain included; 1 is the sequential chunked mode); 0, the \
       default, runs them tuple-at-a-time.  Answers are identical either \
       way."
      ~get:(fun t ->
        match Med_catalog.exec_mode t.cat with
        | Alg_exec.Parallel { domains; _ } -> domains
        | Alg_exec.Tuple -> 0)
      ~bad:(non_negative "parallelism")
      ~apply:(fun t domains ->
        Med_catalog.set_exec_mode t.cat
          (if domains = 0 then Alg_exec.Tuple else Alg_exec.Parallel { domains; chunk = chunk t }));
    {
      name = "optimize";
      docv = "MODE";
      doc =
        "Join-order strategy: greedy (connected cheapest-next walk, the \
         default) or dp (DPsize dynamic-programming enumeration over the \
         statistics catalog and network profiles, converting large \
         fragments to bind joins; dp:N caps enumeration at N relations, \
         falling back to greedy past it).  Answers are identical in both \
         modes.";
      get = (fun t -> Med_optimize.mode_to_string (Med_catalog.optimizer t.cat));
      set =
        (fun t v ->
          match Med_optimize.mode_of_string v with
          | Some m -> Ok (Med_catalog.set_optimizer t.cat m)
          | None -> Error (Printf.sprintf "unknown optimizer mode %S (greedy, dp, dp:N)" v));
    };
    {
      name = "index";
      docv = "MODE";
      doc =
        "Path/value index mode: auto (build structural guides on first \
         probe, the default), eager (build them when a view materializes or \
         a document registers) or off (always walk trees).  Answers are \
         identical in all modes.";
      get = (fun _ -> Idx_manager.mode_to_string (Idx_manager.mode ()));
      set = (fun _ v -> Result.map Idx_manager.set_mode (Idx_manager.mode_of_string v));
    };
  ]

(* Read once, on a system created before anything runs: the index mode
   is process-wide, so a system created later would report whatever an
   earlier one set. *)
let defaults =
  let fresh = create () in
  List.map (fun k -> (k.name, k.get fresh)) knobs

let knob_default k = List.assoc k.name defaults

let find_knob name =
  match List.find_opt (fun k -> k.name = name) knobs with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown knob %S (%s)" name
         (String.concat ", " (List.map (fun k -> k.name) knobs)))

let set_knob t name v = Result.bind (find_knob name) (fun k -> k.set t v)

(* ------------------------------------------------------------------ *)
(* Knob reports                                                        *)
(* ------------------------------------------------------------------ *)

let sem_cache t = Med_catalog.sem_cache t.cat

let sem_report t = Sem_cache.report (Med_catalog.sem_cache t.cat) ^ "\n"

let fetch_report t =
  let frag = Med_catalog.frag_cache t.cat in
  let st = Frag_cache.stats frag in
  let ttl =
    match Frag_cache.ttl_ms frag with
    | None -> ""
    | Some ms -> Printf.sprintf " ttl=%.0fms" ms
  in
  Printf.sprintf
    "fetch: %s\n\
     fragment cache: %d/%d entries,%s hits=%d misses=%d evictions=%d \
     expirations=%d invalidations=%d\n"
    (Fetch_sched.options_to_string (fetch t))
    (Frag_cache.size frag) (Frag_cache.capacity frag) ttl st.Frag_cache.frag_hits
    st.Frag_cache.frag_misses st.Frag_cache.frag_evictions
    st.Frag_cache.frag_expirations st.Frag_cache.frag_invalidations

let retry_report t = Src_retry.report (Med_catalog.retry t.cat)

let exec_report t =
  Printf.sprintf "exec: %s\n"
    (Alg_exec.mode_to_string (Med_catalog.exec_mode t.cat))

(* Views register under "view:<name>"; a raw registry key (with its
   prefix) is accepted too, so documents are reachable. *)
let index_key name = if String.contains name ':' then name else "view:" ^ name

let build_index (_ : t) name =
  let key = index_key name in
  match Idx_manager.build key with
  | Some (paths, nodes, bytes) ->
    Ok
      (Printf.sprintf "built index %s: %d paths, %d nodes, %d bytes\n" key paths
         nodes bytes)
  | None -> Error (Printf.sprintf "nothing registered under %s" key)

let index_report (_ : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "index: mode=%s epoch=%d bytes=%d\n"
       (Idx_manager.mode_to_string (Idx_manager.mode ()))
       (Idx_manager.epoch ()) (Idx_manager.total_bytes ()));
  List.iter
    (fun (name, built, roots, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-40s %s roots=%d bytes=%d\n" name
           (if built then "guide" else "unbuilt")
           roots bytes))
    (Idx_manager.registered ());
  Buffer.contents buf

let optimizer_report t =
  Printf.sprintf "optimizer: %s\n"
    (Med_optimize.mode_to_string (Med_catalog.optimizer t.cat))

(* ------------------------------------------------------------------ *)
(* Configuration scripts                                               *)
(* ------------------------------------------------------------------ *)

let policy_to_directive = function
  | Mat_store.Manual -> "manual"
  | Mat_store.On_access -> "on-access"
  | Mat_store.Every_n_queries n -> Printf.sprintf "every:%d" n

let policy_of_directive = function
  | "manual" -> Some Mat_store.Manual
  | "on-access" -> Some Mat_store.On_access
  | s when String.length s > 6 && String.sub s 0 6 = "every:" ->
    Option.map
      (fun n -> Mat_store.Every_n_queries n)
      (int_of_string_opt (String.sub s 6 (String.length s - 6)))
  | _ -> None

let save_config t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# nimble configuration script\n";
  (* Knobs first, so a replayed materialize runs under the restored
     index mode. *)
  List.iter
    (fun k ->
      let v = k.get t in
      if v <> knob_default k then
        Buffer.add_string buf (Printf.sprintf "set %s %s\n" k.name v))
    knobs;
  (* Views in dependency order so a replay re-creates them cleanly. *)
  let views =
    List.sort
      (fun a b -> Int.compare (Med_catalog.view_depth t.cat a) (Med_catalog.view_depth t.cat b))
      (Med_catalog.view_names t.cat)
  in
  List.iter
    (fun vname ->
      match Med_catalog.find_view t.cat vname with
      | None -> ()
      | Some v ->
        Buffer.add_string buf
          (Printf.sprintf "view %s := %s
" vname
             (String.concat " UNION "
                (List.map Xq_pretty.query_to_string v.Med_catalog.definitions)));
        if v.Med_catalog.description <> "" then
          Buffer.add_string buf
            (Printf.sprintf "describe %s %s
" vname v.Med_catalog.description))
    views;
  List.iter
    (fun vname ->
      match Mat_store.peek t.mat vname with
      | Some e ->
        Buffer.add_string buf
          (Printf.sprintf "materialize %s %s
" vname (policy_to_directive e.Mat_store.policy))
      | None -> ())
    (Mat_store.materialized_names t.mat);
  Buffer.contents buf

let load_config t script =
  let directive line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok ()
    else
      match String.index_opt line ' ' with
      | None -> Error (Printf.sprintf "malformed directive %S" line)
      | Some i -> (
        let keyword = String.sub line 0 i in
        let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        match keyword with
        | "set" -> (
          match String.index_opt rest ' ' with
          | Some j ->
            let name = String.sub rest 0 j in
            let v = String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) in
            Result.map_error (Printf.sprintf "set %s: %s" name) (set_knob t name v)
          | None -> Error (Printf.sprintf "malformed set directive %S" line))
        | "view" -> (
          match String.index_opt rest ' ' with
          | Some j
            when j + 2 < String.length rest
                 && String.sub rest (j + 1) 2 = ":=" ->
            let vname = String.sub rest 0 j in
            let body = String.trim (String.sub rest (j + 3) (String.length rest - j - 3)) in
            (match define_view t vname body with
            | Ok () -> Ok ()
            | Error m -> Error (Printf.sprintf "view %s: %s" vname m))
          | _ -> Error (Printf.sprintf "malformed view directive %S" line))
        | "describe" -> (
          match String.index_opt rest ' ' with
          | Some j ->
            let vname = String.sub rest 0 j in
            let desc = String.sub rest (j + 1) (String.length rest - j - 1) in
            guard (fun () -> Med_catalog.set_description t.cat vname desc)
          | None -> Error (Printf.sprintf "malformed describe directive %S" line))
        | "materialize" -> (
          match String.split_on_char ' ' rest with
          | [ vname; pol ] -> (
            match policy_of_directive pol with
            | Some policy -> materialize_view t ~policy vname
            | None -> Error (Printf.sprintf "unknown policy %S" pol))
          | [ vname ] -> materialize_view t vname
          | _ -> Error (Printf.sprintf "malformed materialize directive %S" line))
        | kw -> Error (Printf.sprintf "unknown directive %S" kw))
  in
  let rec run_lines = function
    | [] -> Ok ()
    | line :: rest -> (
      match directive line with
      | Ok () -> run_lines rest
      | Error m -> Error m)
  in
  run_lines (String.split_on_char '\n' script)

let analyze_stats t =
  guard (fun () ->
      let analyzed = Med_catalog.analyze t.cat in
      Printf.sprintf "analyzed %d tables\n%s" (List.length analyzed)
        (Med_stats.report (Med_catalog.stats t.cat)))

let stats_catalog_report t = Med_stats.report (Med_catalog.stats t.cat)

let view_lookup t vname =
  match Mat_store.lookup t.mat vname with
  | Some trees -> Some trees
  | None ->
    (* Not materialized by name: a materialized view that {e subsumes}
       this one can still answer, filtered locally (Mat_contain). *)
    Mat_contain.answer t.mat ~sem:(Med_catalog.sem_cache t.cat) t.cat vname

let tick_views t = Mat_store.tick t.mat

let parse_query text =
  match Xq_parser.parse text with
  | Ok q -> Ok q
  | Error m -> Error m

let query t text =
  match parse_query text with
  | Error m -> Error m
  | Ok q ->
    guard (fun () ->
        Mat_store.tick t.mat;
        Mat_cache.get_or_compute t.results ~sources:(source_closure t q) text (fun () ->
            Med_exec.run ~view_lookup:(view_lookup t) t.cat q))

let query_partial_ex t text =
  match parse_query text with
  | Error m -> Error m
  | Ok q ->
    guard (fun () ->
        Mat_store.tick t.mat;
        match Mat_cache.get t.results text with
        | Some trees -> (trees, [], [])
        | None ->
          let r =
            Med_exec.run_compiled_partial ~view_lookup:(view_lookup t) t.cat
              (Med_exec.compile t.cat q)
          in
          (* Only complete, fresh answers are worth caching: a stale
             degradation must not outlive the outage it papered over. *)
          if r.Med_exec.skipped_sources = [] && r.Med_exec.stale_sources = [] then
            Mat_cache.put t.results ~sources:(source_closure t q) text
              r.Med_exec.trees;
          (r.Med_exec.trees, r.Med_exec.skipped_sources, r.Med_exec.stale_sources))

let query_partial t text =
  Result.map (fun (trees, skipped, _stale) -> (trees, skipped)) (query_partial_ex t text)

let query_formatted t ~device text =
  Result.map (Fe_format.render device) (query t text)

let explain t text = guard (fun () -> Med_exec.explain_text t.cat text)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let explain_analyze t ?(repeat = 1) text =
  match parse_query text with
  | Error m -> Error m
  | Ok q ->
    guard (fun () ->
        (* Deliberately bypasses the result cache: the point is to
           measure execution, and each run feeds the cardinality
           observations the next compilation plans with. *)
        let buf = Buffer.create 512 in
        for i = 1 to max 1 repeat do
          if repeat > 1 then Buffer.add_string buf (Printf.sprintf "== run %d ==\n" i);
          let a = Med_exec.run_analyzed ~view_lookup:(view_lookup t) t.cat q in
          Buffer.add_string buf (Med_exec.analysis_to_string a)
        done;
        Buffer.contents buf)

let stats_report t =
  Src_registry.publish_availability (Med_catalog.registry t.cat);
  (* Index counters live in atomics (probes tick on worker domains);
     mirror them into the metrics registry on the caller before
     rendering. *)
  Idx_manager.publish_metrics ();
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Obs_report.metrics_report ());
  Buffer.add_string buf (Obs_report.source_breakdown ());
  (match Obs_feedback.to_rows (Med_catalog.feedback t.cat) with
  | [] -> ()
  | rows ->
    Buffer.add_string buf "observed cardinalities:\n";
    List.iter
      (fun (key, observed, samples) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s rows=%.0f samples=%d\n" key observed samples))
      rows);
  Buffer.contents buf

let trace_report (_ : t) = Obs_report.trace_report ()

let set_tracing enabled = Obs_trace.set_enabled enabled

let add_lens t lens =
  guard (fun () ->
      let lname = lens.Fe_lens.lens_name in
      if Hashtbl.mem t.lenses lname then
        invalid_arg (Printf.sprintf "lens %s already exists" lname);
      Hashtbl.replace t.lenses lname lens)

let lens_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.lenses [] |> List.sort String.compare

let find_lens t lname = Hashtbl.find_opt t.lenses lname

let run_lens t ~user ~password ~lens ~query:query_name args =
  match Hashtbl.find_opt t.lenses lens with
  | None -> Error (Printf.sprintf "unknown lens %s" lens)
  | Some l -> (
    match Fe_auth.authenticate t.accounts user password with
    | None -> Error "authentication failed"
    | Some role ->
      if not (Fe_auth.role_allows l.Fe_lens.required_role role) then
        Error
          (Printf.sprintf "user %s (%s) lacks the %s role required by lens %s" user
             (Fe_auth.role_to_string role)
             (Fe_auth.role_to_string l.Fe_lens.required_role)
             lens)
      else
        guard (fun () ->
            let q = Fe_lens.instantiate l query_name args in
            Mat_store.tick t.mat;
            let key = Xq_pretty.query_to_string q in
            let trees =
              Mat_cache.get_or_compute t.results ~sources:(source_closure t q) key
                (fun () -> Med_exec.run ~view_lookup:(view_lookup t) t.cat q)
            in
            Fe_format.render l.Fe_lens.device trees))
