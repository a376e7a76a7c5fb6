(** Operator semantics and per-operator statistics shared by the two
    engines: {!Alg_exec} (tuple-at-a-time, the reference) and {!Alg_par}
    (morsel-driven; its one-domain case is the sequential chunked mode).

    Both engines call the same sort, grouping, aggregate, navigation and
    compiled-expression code, so their answers cannot drift, and both
    fill the same {!op_stats} tree, which EXPLAIN ANALYZE and the trace
    sink read. *)

(** {1 Shared operator semantics}

    One implementation of the order- and null-sensitive pieces, used by
    {e both} engines so they cannot drift: sort comparison, outer-union
    schema, and grouping/aggregation (deterministic over empty input —
    a keyless group over no rows yields exactly one row of aggregate
    identities — and over [Value.Null] keys, which form a group like
    any other value). *)

val navigate_matches :
  Dtree.t -> Xml_path.t -> Dtree.t list * [ `Probe | `Guide | `Miss ]
(** One Navigate binding, shared by both engines: answered from the
    index subsystem when the tree is a registered root and the path is
    indexable ([`Probe] used a value index, [`Guide] the structural
    summary), otherwise by walking the tree ([`Miss]).  Results are
    byte-identical either way and safe to call from worker domains. *)

val sort_decorate :
  Alg_plan.sort_spec list -> Alg_env.t array -> (Value.t array * Alg_env.t) array
(** Evaluate every sort key once per row: the decorated pair carries the
    key column the comparators read. *)

val sort_compare_keys :
  Alg_plan.sort_spec list -> Value.t array -> Value.t array -> int
(** Compare two precomputed key rows under the specs' directions:
    [Value.compare] per key, negated for descending keys, first
    difference wins. *)

val sort_list : Alg_plan.sort_spec list -> Alg_env.t list -> Alg_env.t list
(** The tuple engine's sort: stable, via decorate–sort–undecorate.  Rows
    with equal keys keep their input order. *)

val union_vars : Alg_env.t list -> string list
(** All variables bound in any of the envs, first-occurrence order. *)

(** {1 Compiled row functions}

    Per-operator expression compilation: name resolution and AST
    dispatch happen once, the returned closure runs per row.  Only hot
    shapes are specialized; everything else falls back to
    {!Alg_expr.eval}, so semantics cannot drift. *)

val compile_value : Alg_expr.t -> Alg_env.t -> Value.t
val compile_pred : Alg_expr.t -> Alg_env.t -> bool

val compile_project : string list -> Alg_env.t -> Alg_env.t
(** With the no-op fast path: a row already laid out as [vars] is
    returned unchanged. *)

val group_rows :
  ?size_hint:int ->
  (string * Alg_expr.t) list ->
  (string * Alg_plan.agg) list ->
  Alg_env.t list ->
  Alg_env.t list
(** Group by the key expressions (groups in first-occurrence order) and
    fold the aggregates.  [sum]/[avg]/[min]/[max] of an all-null group
    are [Null]; ["count(*)"] of the empty keyless group is 0. *)

(** {2 Aggregate accumulators}

    The mutable per-(group, aggregate) state {!group_rows} folds with.
    Exposed so the parallel engine can fold per-domain partial states
    with the {e same} code — notably the same fold order dependence for
    float sums — and render results identically. *)

type agg_state

val new_state : unit -> agg_state
val feed : Alg_env.t -> agg_state -> Alg_plan.agg -> unit
val result : agg_state -> Alg_plan.agg -> Dtree.t

(** {1 Per-operator statistics}

    One record per plan node, the same for both engines.  The tuple
    engine counts rows as they are pulled; {!Alg_par} counts each
    operator's materialized output and its morsels. *)

type op_stats = {
  op_plan : Alg_plan.t;  (** the node these numbers describe *)
  mutable op_pulled : bool;  (** false: the executor never reached it *)
  mutable op_rows : int;  (** rows this operator produced *)
  mutable op_ms : float;  (** inclusive wall time (with inputs) *)
  mutable op_morsels : int;  (** parallel tasks issued by this operator *)
  mutable op_fallback : bool;
      (** the parallel engine ran this subtree on the tuple engine *)
  op_idx_probe : int Atomic.t;
      (** Navigate bindings answered by a value probe (atomic: Navigate
          expansion runs on worker domains) *)
  op_idx_guide : int Atomic.t;  (** … answered by the structural guide *)
  op_idx_miss : int Atomic.t;  (** … that fell back to the tree walker *)
  op_kids : op_stats list;  (** same shape as {!Alg_plan.children} *)
}

val make_stats : Alg_plan.t -> op_stats
(** A zeroed statistics tree mirroring the plan. *)

val count_idx : op_stats -> [ `Probe | `Guide | `Miss ] -> unit
(** Tally one Navigate binding's index outcome; safe from any domain. *)

type index
(** Plan node → statistics, by physical identity. *)

val index : op_stats -> index
val find : index -> Alg_plan.t -> op_stats option

val actual_of_stats : op_stats -> Alg_plan.t -> (int * float) option
(** [actual_of_stats root] builds the identity index once and returns the
    lookup suitable as the [actual] argument of
    {!Alg_cost.explain_analyze}: (rows, inclusive ms), [None] for nodes
    never pulled. *)

val cells_of_stats : ?root_cells:string list -> op_stats -> Alg_plan.t -> string list
(** The engine columns of EXPLAIN ANALYZE for one node, from an index
    built once: [fallback=tuple] for a subtree the parallel engine handed
    to the tuple engine, [morsels=N] for an operator that ran parallel
    tasks, and the [idx=…] cell; [root_cells] (the parallel engine's
    [domains=…]/[skew=…]) are appended on the plan root.  Tuple-mode
    statistics show only the [idx=…] cell. *)

val span_of_stats : op_stats -> Obs_span.t
(** Statistics as a span tree, for the trace sink: [rows], duration, and
    [morsels] where the operator ran parallel tasks. *)
