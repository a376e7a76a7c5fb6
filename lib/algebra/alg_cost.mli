(** Cardinality and cost estimation for physical plans.

    The estimates drive nothing automatically (the mediator's join order
    is variable-connectivity-greedy), but they power EXPLAIN annotations
    and let tests and benches reason about operator choice.  The model is
    the textbook one: per-operator output cardinalities from input
    estimates and predicate selectivities, and a unit-cost charge per
    tuple touched. *)

type estimate = {
  rows : float;      (** expected output cardinality *)
  cost : float;      (** cumulative work in touched-tuple units *)
}

val selectivity : Alg_expr.t -> float
(** Heuristic predicate selectivity: equality 0.05, range 0.3, LIKE 0.25,
    AND multiplies, OR saturating-adds, NOT complements, everything else
    0.5. *)

val estimate :
  ?path_rows:(Xml_path.t -> float option) ->
  source_rows:(string -> float) ->
  Alg_plan.t ->
  estimate
(** [estimate ~source_rows plan] — [source_rows name] supplies the
    expected cardinality of each scan (return a default such as 1000.0
    for unknown sources).  Dependent joins assume one expansion per input
    row; navigate/unnest assume a fan-out of 3.  [path_rows] consults
    the index subsystem: when it answers with a path's exact match
    count, that Navigate estimates the count and is costed as a probe
    (result-sized) instead of a fanned-out subtree walk — what makes
    the optimizer prefer index-answerable navigation.  Default: no
    index knowledge. *)

val default_scan_rows : float
(** 1000.0 — the cardinality assumed for a scan nobody has observed. *)

val annotate :
  ?path_rows:(Xml_path.t -> float option) ->
  source_rows:(string -> float) ->
  Alg_plan.t ->
  string
(** {!Alg_plan.explain} output with an estimated-rows annotation per
    operator line, plus a total [-- estimated: …] footer. *)

val explain_analyze :
  ?extra:(Alg_plan.t -> string list) ->
  ?path_rows:(Xml_path.t -> float option) ->
  source_rows:(string -> float) ->
  actual:(Alg_plan.t -> (int * float) option) ->
  Alg_plan.t ->
  string
(** EXPLAIN ANALYZE body: per operator line, estimated rows next to the
    measured (rows, inclusive milliseconds) that [actual] reports for
    that plan node (physical identity); nodes the executor never pulled
    from print [never executed].  [extra] appends engine-specific cells
    to a node's annotation ({!Alg_ops.cells_of_stats}: morsel counts,
    fallbacks, index outcomes); it defaults to none. *)
