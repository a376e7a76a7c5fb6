(** Execution of compiled queries against the catalog's live sources.

    Two modes, per section 3.4: {e strict} (any offline source aborts
    the query) and {e partial} (offline sources contribute nothing and
    the answer is annotated with the skipped source names, so callers can
    tell the user "the results were not complete"). *)

type result = {
  trees : Dtree.t list;          (** constructed results, in order *)
  bindings : Alg_env.t list;     (** the variable bindings behind them *)
  skipped_sources : string list; (** non-empty only in partial mode *)
  stale_sources : string list;
      (** sources answered from stale fragment-cache extents because
          their retry budget was exhausted — non-empty only in partial
          mode with {!Src_retry.policy.serve_stale} on *)
}

exception Exec_error of string

val compile :
  ?opts:Med_sqlgen.options ->
  ?feedback:Obs_feedback.t ->
  Med_catalog.t ->
  Xq_ast.query ->
  Med_planner.compiled

type view_lookup = string -> Dtree.t list option
(** Hook consulted before a mediated schema is recomputed: when it
    returns [Some trees] (a materialized local copy, section 3.3), the
    executor matches against the copy instead of going to the sources. *)

val run_compiled :
  ?view_lookup:view_lookup -> Med_catalog.t -> Med_planner.compiled -> result
(** Strict mode.  @raise Source.Unavailable when a source is offline. *)

val run_compiled_partial :
  ?view_lookup:view_lookup -> Med_catalog.t -> Med_planner.compiled -> result

val run :
  ?opts:Med_sqlgen.options ->
  ?view_lookup:view_lookup ->
  Med_catalog.t ->
  Xq_ast.query ->
  Dtree.t list
(** Compile-and-run, strict. *)

val run_text :
  ?opts:Med_sqlgen.options ->
  ?view_lookup:view_lookup ->
  Med_catalog.t ->
  string ->
  Dtree.t list
(** Parse, compile and run.  @raise Exec_error on syntax errors. *)

val run_partial :
  ?opts:Med_sqlgen.options ->
  ?view_lookup:view_lookup ->
  Med_catalog.t ->
  Xq_ast.query ->
  Dtree.t list * string list

val explain_text : Med_catalog.t -> string -> string

(** {1 EXPLAIN ANALYZE}

    The query runs through the same executor as {!run} (strict mode),
    with a per-query record: each access's facts are written into it
    where the executor learns them, and the engine runs instrumented,
    counting rows and inclusive wall time per plan operator.  Observed
    cardinalities reach the catalog's feedback store for the next
    compilation, as on every run. *)

type bind_outcome =
  | Narrowed of int
      (** the access shipped narrowed to this many distinct driver keys *)
  | Unbound of string
      (** the access ran unbound, and why: ["driver-failed"],
          ["keys>1024"] (the {!Med_planner.max_bind_keys} cap),
          ["non-canonical"] (a key is not {!Med_planner.canonical_literal}
          for a narrowed column, or has no {!Med_pathgen.key_text} for a
          narrowed path), ["element-content"] (every definition that
          could narrow may hide a deeper match in element content) or
          ["materialized"] (a local copy served the view) *)
(** What a bind join ([A_sql_bind] or a bound [A_view]) did at fetch
    time. *)

type fetch_info = {
  fi_round : int;      (** scatter-gather round the fetch rode in *)
  fi_shared : bool;    (** served by another access's execution (dedup) *)
  fi_cache_hits : int; (** fragment-cache hits while fetching it *)
}
(** How an access was fetched when the catalog's {!Fetch_sched.options}
    select gather mode, or when it was a bind join or a bind join's
    driver; surfaces in span attributes and EXPLAIN ANALYZE. *)

type access_stat = {
  stat_id : string;                  (** Scan-leaf access id *)
  stat_access : Med_planner.access;
  stat_est_rows : float;             (** planner's estimate {e before} the run *)
  mutable stat_calls : int;          (** times the executor opened the access *)
  mutable stat_rows : int;           (** rows shipped, total over calls *)
  mutable stat_ms : float;           (** wall time inside the access *)
  mutable stat_fetch : fetch_info option;
      (** [None] under sequential fetching, unless the access is a bind
          join or a bind join's driver *)
  mutable stat_bind : bind_outcome option;  (** [Some] exactly on bound accesses *)
  mutable stat_sem : Sem_cache.outcome option;
      (** the semantic cache's verdict on the access's own fetch this
          run ([None] when the cache is off, the access is ineligible,
          or the exact-key cache answered first) *)
  mutable stat_idx : int * int * int;
      (** (value probes, guide probes, walker fallbacks) the index
          subsystem answered inside this access's fetches — non-zero
          only for path accesses against indexed XML stores *)
  mutable stat_retry : int * int * int;
      (** (retries, give-ups, breaker fast-fails) the retry engine spent
          inside this access's fetches — all zero with the default inert
          policy *)
}
(** One entry of the per-query record: the executor fills it in while
    the query runs. *)

type analysis = {
  analyzed_result : result;
  analyzed_compiled : Med_planner.compiled;
  analyzed_source_rows : string -> float;
      (** the pre-run estimate snapshot, keyed by access id *)
  analyzed_actual : Alg_plan.t -> (int * float) option;
      (** per-operator (rows, inclusive ms), by physical node identity *)
  analyzed_cells : Alg_plan.t -> string list;
      (** the engine's per-operator cells ({!Alg_ops.cells_of_stats}):
          [idx=…] in either engine; [morsels=…], [fallback=tuple] and the
          root's [domains=…]/[skew=…] when the run was parallel *)
  analyzed_mode : Alg_exec.mode;
      (** the engine that executed the analyzed run *)
  analyzed_accesses : access_stat list;
  analyzed_wall_ms : float;
  analyzed_virtual_ms : float;
      (** simulated network time the run consumed (overlap-aware) *)
}

val run_analyzed :
  ?opts:Med_sqlgen.options ->
  ?view_lookup:view_lookup ->
  Med_catalog.t ->
  Xq_ast.query ->
  analysis
(** Compiles {e with} the catalog's feedback store (so a repeated query
    plans with observed cardinalities), snapshots the estimates, then
    executes instrumented.  @raise Source.Unavailable as {!run}. *)

val analysis_to_string : analysis -> string
(** The EXPLAIN ANALYZE report: the operator tree with estimated vs
    actual rows and per-operator time, the access table with per-fragment
    estimates, calls, rows and time, and a total footer. *)

val direct_resolver : Med_catalog.t -> Xq_eval.resolver
(** The reference-semantics resolver: source exports serve their XML
    view; mediated schemas evaluate their definitions recursively via
    {!Xq_eval} (no compilation).  Used as the oracle in tests and for
    correlated subqueries inside templates. *)
