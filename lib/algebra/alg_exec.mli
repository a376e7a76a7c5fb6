(** Volcano-style execution of physical plans.

    Plans pull environments lazily through [Seq.t]; blocking operators
    (sort, group, distinct, hash-join build side) materialize their
    input.  Sources are resolved through a caller-supplied function, so
    the same plan can run against live sources, materialized views or
    test fixtures. *)

type source_fn = string -> string -> Alg_env.t Seq.t
(** [source_fn source binding] yields the environments of a scan.  Raise
    {!Source_unavailable} to signal an offline source (section 3.4). *)

exception Source_unavailable of string
exception Exec_error of string

val run : source_fn -> Alg_plan.t -> Alg_env.t Seq.t
(** Lazy execution; source and evaluation errors surface when the
    sequence is forced. *)

val run_list : source_fn -> Alg_plan.t -> Alg_env.t list
(** Force the whole result. *)

val run_partial :
  source_fn -> Alg_plan.t -> Alg_env.t list * string list
(** Partial-results mode (section 3.4): scans whose source raises
    {!Source_unavailable} contribute no rows instead of failing; the
    returned list names the sources that were skipped, so the caller can
    annotate the answer as incomplete. *)

val partial_guard : string list ref -> source_fn -> source_fn
(** The source side of {!run_partial}, for either engine: a scan whose
    source raises {!Source_unavailable} contributes no rows, and the
    source's name is consed onto the list (once). *)

(** {1 Engines}

    Two engines evaluate the same physical plans with the same answers,
    the same order and the same strict/partial semantics: this module's
    tuple engine ({!run_list}, the default and the reference) and the
    morsel-driven engine of {!Alg_par}.  With [domains = 1] the latter
    is the sequential chunked mode: it runs every region inline, with
    no pool and no locks.  Unlike the tuple engine it materializes every
    operator's input, so a [LIMIT] evaluates its whole input. *)

val default_chunk : int
(** 1024: the default morsel size. *)

type mode =
  | Tuple  (** {!run_list} — the default *)
  | Parallel of { domains : int; chunk : int }
      (** {!run_parallel} — [domains] workers (the caller included) over
          morsels of [chunk] rows *)
(** The knob surfaced through the mediator, the facade and the CLI
    ([--parallel]/[--chunk-size], repl [\exec]). *)

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Accepts ["tuple"] and ["parallel"] ({!Alg_par.default_domains}
    domains, chunk {!default_chunk}). *)

val run_parallel :
  ?domains:int ->
  ?chunk:int ->
  ?cost_rows:(Alg_plan.t -> float) ->
  source_fn ->
  Alg_plan.t ->
  Alg_env.t list * Alg_par.stats
(** Run on the morsel-driven engine of {!Alg_par} ([domains] default
    {!Alg_par.default_domains}, morsel size default {!default_chunk}),
    returning the rows plus the per-operator statistics.  [cost_rows]
    estimates a subplan's output rows so per-partition hash-join tables
    pre-size from real cardinalities (the mediator passes its
    feedback/statistics-backed estimator); default is the blind cost
    model. *)

val run_mode :
  ?cost_rows:(Alg_plan.t -> float) ->
  mode -> source_fn -> Alg_plan.t -> Alg_env.t list
(** {!run_list} or {!run_parallel} according to the mode ([cost_rows]
    reaches the parallel engine only). *)

val run_partial_mode :
  ?cost_rows:(Alg_plan.t -> float) ->
  mode -> source_fn -> Alg_plan.t -> Alg_env.t list * string list
(** {!run_partial} under either engine: unavailable sources contribute
    no rows and are reported, whichever engine executes the plan. *)

val buffered :
  (string -> (Alg_env.t list, exn) result option) ->
  source_fn ->
  source_fn
(** [buffered lookup fallback] resolves scans against a prefetched
    buffer: when [lookup access_id] finds an entry, its environments
    are served (or its captured exception re-raised — at pull time, so
    strict/partial semantics match sequential fetching); otherwise the
    scan falls through to [fallback].  The scatter-gather fetch path. *)

(** {1 Instrumented execution}

    The observability path: identical semantics to {!run_list}, plus a
    per-operator {!Alg_ops.op_stats} tree (rows out, inclusive wall
    time, index outcomes) mirroring the plan — the raw material of
    EXPLAIN ANALYZE. *)

val run_instrumented :
  source_fn -> Alg_plan.t -> Alg_env.t list * Alg_ops.op_stats
(** Force the whole result, counting rows and charging inclusive time per
    operator.  Allocates only the statistics tree; results are
    identical to {!run_list}. *)

val build_template :
  Alg_env.t -> Alg_plan.template -> Dtree.t
(** Instantiate a CONSTRUCT template against one environment. *)

val of_tuples : string -> Tuple.t list -> Alg_env.t Seq.t
(** Helper: wrap rows as environments binding one variable per row
    ([binding] bound to the row as a tree labelled with the source
    name)... see implementation note in the interface of the mediator:
    each tuple becomes a tree [<binding><col>v</col>...</binding>]. *)
