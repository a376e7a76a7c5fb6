(** Morsel-driven multicore execution of physical plans.

    The second engine, next to {!Alg_exec}'s tuple-at-a-time
    reference: operator outputs are materialized bottom-up, per-row
    work is cut into {e morsels} of [chunk] rows, and morsels run on a
    fixed, process-wide pool of OCaml domains (hand-rolled
    mutex/condition work queue — the caller participates as worker 0).  Workers claim morsels from a shared counter, so a
    fast domain steals the tail of a slow one (Leis et al.,
    "Morsel-Driven Parallelism", SIGMOD 2014); per-morsel outputs are
    stitched back in morsel order.

    {b Sequential mode.}  With [domains = 1] every region runs inline on
    the caller — no pool, no locks — so the engine is a sequential
    chunked executor: compiled expressions, a fused select+project
    pass, and one growable output array per morsel.

    {b Determinism.}  Answers are byte-identical to the tuple engine,
    by construction:

    - maps/filters/expansions stitch per-morsel outputs in input order;
    - the hash join partitions its build side by key hash, each
      partition preserving per-key build order, and probes left rows in
      order against read-only tables (exchange-style, after Graefe's
      Volcano);
    - grouping partitions groups (not rows) across domains, so every
      group folds its rows in ascending input order — float sums
      associate exactly as in the sequential fold — and groups are
      emitted in first-occurrence order;
    - sort runs a parallel stable merge sort over decorated keys where
      ties always take the earlier morsel.

    Operators whose state is inherently order-entangled (nested-loop,
    merge and dependent joins, distinct) fall back to the tuple engine,
    on the caller.

    {b Thread discipline.}  Only pure row work runs on pool domains.
    Scans, the tuple-engine fallback and all {!Obs_metrics} ticks run
    on the caller's domain: source functions reach process-global state
    (fetch scheduler, caches, network simulation), and the metrics
    registry is not thread-safe.  Scans materialize eagerly in plan
    order, so strict/partial source-failure semantics — including
    which sources are recorded as skipped — match the tuple engine. *)

(** {1 Statistics} *)

type stats = {
  domains : int;
  chunk_size : int;  (** the morsel size *)
  busy : float array;  (** per-domain busy ms; slot 0 is the caller *)
  mutable morsels : int;  (** total parallel tasks over the whole run *)
  root : Alg_ops.op_stats;
      (** per-operator rows, time, morsels, fallbacks and index outcomes *)
}

val root_cells : stats -> string list
(** The plan root's extra EXPLAIN ANALYZE cells: [domains=…] and
    [skew=MAX/MINms] — the busiest vs. idlest domain's busy time. *)

(** {1 Running} *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val run :
  ?domains:int ->
  chunk:int ->
  ?cost_rows:(Alg_plan.t -> float) ->
  sources:(string -> string -> Alg_env.t Seq.t) ->
  fallback:(Alg_plan.t -> Alg_env.t Seq.t) ->
  template:(Alg_env.t -> Alg_plan.template -> Dtree.t) ->
  Alg_plan.t ->
  Alg_env.t list * stats
(** Evaluate the plan with [domains] workers (default
    {!default_domains}, caller included, clamped to the pool limit)
    over morsels of [chunk] rows.  [sources] resolves scans (raise
    {!Alg_exec.Source_unavailable} as usual; they run on the caller);
    [fallback] runs a subtree on the tuple engine; [template]
    instantiates CONSTRUCT templates; [cost_rows] estimates a subplan's
    output rows so per-partition hash-join tables pre-size from real
    cardinalities (default: the blind cost model over
    {!Alg_cost.default_scan_rows}).  Most callers want
    {!Alg_exec.run_parallel}.  The domain pool is global
    and reused across runs; it grows to the largest [domains] ever
    requested and is joined at exit. *)
