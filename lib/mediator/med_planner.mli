(** The query compiler: XML-QL to physical plans.

    Pipeline (section 3.1: "we translate a query into an internal
    representation, and from there directly to query execution plans in
    the physical algebra"):

    + each clause gets an {e access}: a SQL fragment pushed into a
      relational source ({!Med_sqlgen}), a path-preselected or plain
      client-side pattern match over an export's XML view, or an
      access over another mediated schema — composed at compile time
      with the view's definitions where that is exact, a match over the
      view's instantiated trees otherwise (hierarchical composition); clause
      groups over one join-capable relational source collapse into a
      single SQL join fragment when {e all} of the group's clauses are
      row-shaped and variable-connected (a partially-connected group
      falls back to per-clause fragments — correct, but it ships rows
      the source could have joined);
    + conditions whose variables one SQL clause binds travel into that
      fragment's WHERE when the source's capability allows;
    + clauses join on their shared variables (hash join, greedy
      connected order), remaining conditions filter on top;
    + ORDER BY / LIMIT become Sort / Limit operators.

    The CONSTRUCT template is carried alongside the plan; {!Med_exec}
    instantiates it per binding (templates may contain correlated
    subqueries, which re-enter the mediator). *)

type access =
  | A_sql of {
      source_name : string;
      export : string;              (** table *)
      fragment : Med_sqlgen.fragment;
      pattern : Xq_ast.pattern;     (** kept for capability fallback *)
    }
  | A_sql_join of {
      source_name : string;
      fragment : Med_sqlgen.join_fragment;
      exports : string list;        (** the grouped tables *)
    }
      (** several clauses over one join-capable relational source,
          compiled into a single SQL join fragment.  The source's
          declared [can_join] capability is trusted: a runtime rejection
          of the fragment is an error, not a fallback. *)
  | A_path of {
      source_name : string;
      export : string;
      path : Xml_path.t;         (** preselection pushed to the store *)
      pattern : Xq_ast.pattern;  (** verified on the candidates *)
      shape : Source.shape;
          (** what of each candidate ships ({!Med_pathgen.shape}) *)
    }
  | A_match of {
      source_name : string;
      export : string;
      pattern : Xq_ast.pattern;
    }
  | A_view of {
      view : string;
      pattern : Xq_ast.pattern;
      composed : composed option;
          (** the view's definitions specialized for this clause; [None]
              when the view cannot be composed exactly and runs the tree
              path (instantiate every tree, then match [pattern]) *)
      bind : bind option;
          (** a bind join into the composed view (never on the tree
              path): each definition that binds [bind_var] to an atom
              runs on a copy of its sub-plan whose fragments reading
              that atom carry [col IN (driver keys)] and whose path
              accesses binding it carry [site in (driver keys)]; the
              other definitions run unnarrowed *)
    }
  | A_sql_bind of {
      source_name : string;
      export : string;
      fragment : Med_sqlgen.fragment;
      pattern : Xq_ast.pattern;
      bind : bind;
    }
      (** A bind join chosen by the cost-based optimizer: the fragment
          ships with an extra [col IN (...)] filter on the column it
          reads [bind_var] from, built from the driver access's distinct
          key values at fetch time. *)

(** The driver half of a bind join, shared by [A_sql_bind] and a bound
    [A_view].  The IN-list is a superset filter of the equi-join above
    the bound access (NULL keys never join), so answers are untouched —
    only shipped rows shrink.  When the driver fails, has more than
    {!max_bind_keys} distinct keys, or has a key that is not canonical
    for a narrowed column ({!canonical_literal}) or path
    ({!Med_pathgen.key_text}), the executor runs the access unbound
    instead. *)
and bind = {
  bind_driver : string;  (** access id whose rows supply the keys *)
  bind_var : string;     (** join variable shared with the driver *)
}

(** A clause over a view, composed with the view's definitions at
    compile time.  The clause's literals and the candidate conditions
    over its variables became conditions on the definitions' variables
    (pushed into their fragments by the definitions' compilation); the
    access binds the clause's variables straight from each sub-plan's
    environments, without building the view's trees. *)
and composed = {
  absorbed : Alg_expr.t list;
      (** caller conditions absorbed into every definition, over the
          caller's variables; re-applied when a materialized copy serves
          the view instead *)
  literals : (string * Value.ty) list;
      (** caller literals pushed as typed equalities, with the column
          type they were parsed at (see {!canonical_literal}) *)
  defs : composed_def list;  (** in definition order *)
}

and composed_def = {
  sub : compiled;  (** the definition plus its absorbed conditions *)
  binds : (string * view_bind) list;
      (** caller variable -> where its value comes from, in pattern
          order *)
  element_vars : string list;
      (** template variables whose values may carry element content.  A
          row binding one to an element instantiates the template and
          matches it (the tree path, for that row only).  Empty when
          every value is known to be an atom — the only case in which
          conditions are absorbed. *)
}

and view_bind =
  | B_var of string    (** the definition variable spliced under the tag *)
  | B_const of Dtree.t (** a literal template child *)

and opt_info = {
  oi_mode : string;   (** ["dp"], or ["dp-fallback:greedy"] past the cap *)
  oi_order : string;  (** chosen join tree, e.g. [((a1 ⋈ a0) ⋈ a2)] *)
  oi_est_rows : float;
  oi_est_cost_ms : float;
  oi_binds : (string * string) list;
      (** bound access id -> driver id, SQL binds first, then view
          binds *)
}

and compiled = {
  plan : Alg_plan.t;
  accesses : (string * access) list;  (** access id -> spec, for Scan leaves *)
  construct : Xq_ast.template;
  source_query : Xq_ast.query;
  residual_conditions : Alg_expr.t list;
  opt_info : opt_info option;
      (** present when the catalog's optimizer mode is [Dp] and the
          query had at least two accesses *)
}

exception Plan_error of string

val compile :
  ?opts:Med_sqlgen.options ->
  ?feedback:Obs_feedback.t ->
  Med_catalog.t ->
  Xq_ast.query ->
  compiled
(** @raise Plan_error on unknown sources.

    Join order follows the catalog's {!Med_catalog.optimizer} mode.
    Under [Greedy] (the default) the access with the fewest estimated
    rows starts the pipeline and, at each step, the cheapest
    variable-connected access joins next.  Under [Dp] the DPsize
    enumerator ({!Med_optimize}) picks the cheapest bushy/left-deep
    tree costed with the network simulator's per-source parameters, and
    large relational fragments may be converted to bind joins
    ([A_sql_bind]); past the relation cap the plan falls back to the
    greedy walk.  Under either mode, once the join order is fixed, a
    composed view access becomes a bind join on the earliest earlier
    access sharing a variable it {!narrows_on}.

    Estimates come from {!estimated_rows}: execution [feedback] first,
    the catalog's statistics ({!Med_stats}) second,
    {!Alg_cost.default_scan_rows} last.  Without feedback or statistics
    every access weighs the same default and the order degenerates to
    the original first-come greedy walk. *)

val canonical_literal : Value.ty -> string -> Value.t option
(** The value a caller literal stands for at a column type, when
    comparing a column value's text with the literal (XML-QL's
    semantics) is the same as comparing the value with it: the literal
    prints back as itself and is not the text of NULL.  Floats print
    lossily and never qualify; nor do literals such as ["014"] at
    [TInt]. *)

val max_bind_keys : int
(** Distinct driver keys a bind join expands into an IN-list.  Past the
    cap the bound access ships unbound — a mile-long IN-list costs more
    to ship and parse than the rows it would save — and the DP optimizer
    never picks a driver estimated above it. *)

val def_var : composed_def -> string -> string option
(** The definition variable a caller variable maps to when the
    definition binds it to an atom ([B_var] outside [element_vars]) —
    the variable a bind join narrows that definition on. *)

val narrows_on : access -> string -> bool
(** Whether a fetch of the access can be narrowed to the rows whose
    variable is among a set of keys: a SQL fragment (without a LIMIT)
    or a join fragment reading the variable from a column, or a composed
    view some definition of which maps the variable through {!def_var}
    to a variable one of its sub-plan accesses narrows on, or a path
    access whose pattern binds the variable at a fixed site
    ({!Med_pathgen.bind_site}).  The one eligibility test behind every
    bind join. *)

val estimated_rows :
  ?feedback:Obs_feedback.t -> ?stats:Med_stats.t -> access -> float
(** The unified cardinality estimate for one access — the single entry
    point behind every planner row-count guess. *)

val access_key : access -> string
(** Stable identity of an access across compilations — the key under
    which {!Obs_feedback} stores observed cardinalities.  Built from the
    shipped artifact (SQL text, path + pattern, view name + pattern +
    the conditions a composed view absorbed), plus a bind join's
    variable and driver, so the same logical access in a recompiled
    query maps to the same observations, and a narrowed fetch never
    records under the unbound access's key. *)

val access_target : access -> string
(** The source (or view) name an access ships work to — the name under
    which per-source counters accumulate and the dedup scope of the
    fetch scheduler's batching. *)

val source_rows :
  ?feedback:Obs_feedback.t -> ?stats:Med_stats.t -> compiled -> string -> float
(** Cardinality provider for {!Alg_cost.estimate}: maps a Scan leaf's
    access id through {!estimated_rows}. *)

val explain : compiled -> string
(** Operator tree plus, per SQL access, the fragment shipped to the
    source; under the DP optimizer also the chosen order and its
    estimates.  A composed view's line is followed by its definitions'
    accesses, indented one level deeper; a bound view's line ends in
    [[narrowed by keys of <driver>.$<var>]], and each path access the
    bind narrows beneath it in the predicate the keys will fill,
    [[product/@sku in keys of <driver>.$<var>]]. *)

val opt_info_to_string : opt_info -> string
(** The one-line optimizer cell EXPLAIN and EXPLAIN ANALYZE print. *)

val access_to_string : string * access -> string
(** One [explain] line (two-space indented): access id, strategy, and
    the artifact shipped to the source. *)
