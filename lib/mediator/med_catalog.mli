(** The metadata server (section 2.1): sources plus mediated schemas.

    A {e mediated schema} is a named XML-QL view over source exports
    and/or other mediated schemas (global-as-view).  Views compose
    hierarchically — "we can define successive schemas as views over
    other underlying schemas" — and the catalog enforces acyclicity so
    expansion terminates. *)

type t

type view = {
  view_name : string;
  definitions : Xq_ast.query list;
      (** one or more queries; results concatenate (bag UNION) *)
  description : string;
}

exception Catalog_error of string

val create :
  ?frag_ttl_ms:float -> ?frag_capacity:int -> ?sem_budget_bytes:int -> unit -> t
(** [frag_capacity] (default 0: disabled) sizes the fragment-level
    result cache consulted below the network simulator; [frag_ttl_ms]
    ages its entries on the virtual clock.  [sem_budget_bytes]
    (default 0: disabled) budgets the semantic fragment cache that
    answers contained/overlapping predicates by rewriting. *)

val registry : t -> Src_registry.t

(** {1 Mutation listeners} *)

val on_mutation : t -> (string -> unit) -> unit
(** Subscribe to catalog changes: the callback fires with the affected
    source or view name after every {!register_source},
    {!define_view}/{!define_union_view}, {!drop_view}, and every
    explicit {!notify_invalidation}.  Consumers (the facade's result
    cache) use it to evict artifacts derived from stale metadata. *)

val notify_invalidation : t -> string -> unit
(** The one invalidation path: drop the fragment-cache, semantic-cache
    and index entries derived from [name], then tell subscribers (the
    facade's result cache) that their artifacts derived from it are
    stale.  Every catalog mutation runs it; the
    facade's [invalidate_source] is a single call to it after an
    out-of-band source update. *)

val feedback : t -> Obs_feedback.t
(** The catalog's observed-cardinality store: every execution records
    how many rows each access produced, and cost-model consumers
    ({!Med_planner.source_rows}, EXPLAIN ANALYZE) read estimates back
    from it.  Scoped to the catalog so independent engines (and tests)
    never share observations. *)

(** {1 Statistics and optimizer mode} *)

val stats : t -> Med_stats.t
(** The catalog's per-source statistics: row counts, distincts and
    histograms feeding the cost-based optimizer.  Scoped to the catalog
    like {!feedback}. *)

val analyze : t -> (string * int) list
(** Collect exact statistics for every relational export of every
    registered source (the repl's bare [\analyze]); the next compile
    plans with them.  Returns [(table, rows)] per export analyzed. *)

val optimizer : t -> Med_optimize.mode
(** Join-order strategy used by {!Med_planner.compile} against this
    catalog: the greedy walk (default) or DPsize enumeration. *)

val set_optimizer : t -> Med_optimize.mode -> unit

(** {1 Retry policy} *)

val retry : t -> Src_retry.t
(** The catalog's retry/breaker engine ({!Src_retry}): every source
    call the executor makes against this catalog routes through it.
    Scoped to the catalog like {!feedback}, so independent engines
    never share breaker state. *)

val retry_policy : t -> Src_retry.policy
(** Shorthand for [Src_retry.policy (retry t)]. *)

val set_retry_policy : t -> Src_retry.policy -> unit
(** Install a retry policy, resetting breaker state. *)

(** {1 Fetch scheduling and fragment caching} *)

val frag_cache : t -> Frag_cache.t
(** The catalog's fragment-level result cache (LRU+TTL, below
    {!Mat_cache}'s whole-query cache).  Capacity 0 — the default —
    means every access goes to the wire. *)

val configure_frag_cache : t -> ?ttl_ms:float -> capacity:int -> unit -> unit
(** Replace the fragment cache (dropping its contents) when the capacity
    or TTL differs from the current one; otherwise a no-op that keeps
    its entries and counters. *)

val sem_cache : t -> Sem_cache.t
(** The catalog's semantic fragment cache ({!Sem_cache}): extents
    cached with their defining predicates, probed by containment in
    {!Med_exec}'s SQL fetch path.  Budget 0 — the default — disables
    it.  Catalog mutations ({!notify_invalidation}) drop affected
    extents before subscribers run. *)

val configure_sem_cache : t -> budget_bytes:int -> unit -> unit
(** Replace the semantic cache (dropping its contents) when the budget
    differs from the current one; otherwise a no-op. *)

val fetch_options : t -> Fetch_sched.options
(** How executions against this catalog issue their source accesses:
    sequential (the default) or scatter-gather rounds. *)

val set_fetch_options : t -> Fetch_sched.options -> unit

val exec_mode : t -> Alg_exec.mode
(** How executions against this catalog evaluate their plans:
    tuple-at-a-time (the default) or morsel-driven with a configured
    domain count and morsel size ([domains = 1] is the sequential
    chunked mode). *)

val set_exec_mode : t -> Alg_exec.mode -> unit

(** {1 Sources} *)

val register_source : t -> Source.t -> unit
val source_names : t -> string list

(** {1 Mediated schemas} *)

val define_view : t -> ?description:string -> string -> Xq_ast.query -> unit
(** @raise Catalog_error when the name collides, a clause references an
    unknown source/view, or the definition would create a cycle. *)

val define_union_view :
  t -> ?description:string -> string -> Xq_ast.query list -> unit
(** A mediated schema integrating several queries (typically one per
    source) into one shape; answers concatenate in query order.
    @raise Catalog_error on an empty list or any {!define_view} error. *)

val define_view_text : t -> ?description:string -> string -> string -> unit
(** Parse the XML-QL text first — [UNION]-separated queries define a
    union view.  @raise Catalog_error on syntax errors. *)

val set_description : t -> string -> string -> unit
(** @raise Catalog_error for unknown views. *)

val drop_view : t -> string -> unit
(** @raise Catalog_error when other views depend on it. *)

val find_view : t -> string -> view option
val view_names : t -> string list

val view_depth : t -> string -> int
(** 1 for a view over base sources only; 1 + max child depth otherwise. *)

val is_known_name : t -> string -> bool
(** Is the name resolvable as a view or a source export? *)

val dependencies : t -> string -> string list
(** Direct sources/views a view reads from. *)
