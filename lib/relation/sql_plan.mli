(** Physical planning for the relational substrate.

    The planner turns the FROM/WHERE part of a SELECT into a physical
    plan: access paths per table (sequential scan, index equality, index
    range) and a join tree (hash join for equi-joins, nested loop
    otherwise).  Inner-join-only queries are reordered greedily by
    estimated cardinality; any outer join freezes the syntactic order,
    and the WHERE conjuncts that do not belong to the leftmost table
    filter the joined rows.

    Grouping, projection, ordering and limits are applied by
    {!Sql_exec} above the plan. *)

type catalog = {
  table_of : string -> Rel_table.t option;
}

type access =
  | Seq_scan
  | Index_eq of string * Value.t
      (** column and key; served by a hash or B+tree index *)
  | Index_range of string * (Value.t * bool) option * (Value.t * bool) option
      (** column, lo bound, hi bound (value, inclusive); B+tree only *)

type plan =
  | Scan of {
      table : string;
      binding : string;  (** alias fields are prefixed with *)
      access : access;
      filter : Sql_ast.expr option;  (** residual single-table predicate *)
      est : float;
    }
  | Nl_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      cond : Sql_ast.expr option;
      est : float;
    }
  | Hash_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      left_key : Sql_ast.expr;   (** evaluated against left tuples *)
      right_key : Sql_ast.expr;  (** evaluated against right tuples *)
      residual : Sql_ast.expr option;
      est : float;
    }
  | Filter of { input : plan; pred : Sql_ast.expr; est : float }
      (** WHERE conjuncts applied above a LEFT OUTER join tree, where
          they must drop rows rather than pad them *)

exception Plan_error of string

val plan_select : catalog -> Sql_ast.select -> plan option
(** [None] when the select has no FROM clause. *)

val estimated_rows : plan -> float

val bindings_of_plan : plan -> string list
(** Aliases produced, left to right. *)

val explain : plan -> string
(** Indented operator tree with access paths and estimates — the
    EXPLAIN output. *)

val column_literal :
  Rel_table.t -> alias:string -> Sql_ast.expr -> (string * Sql_ast.binop * Value.t) option
(** Match a conjunct as [column op literal], the literal not NULL,
    over the table bound to [alias], in either orientation (a literal on the left flips the
    comparison).  The column is named bare or qualified by [alias], and
    must belong to the table.  This is the test index selection applies
    to every conjunct. *)

val selectivity : Sql_ast.expr -> float
(** Heuristic selectivity of a predicate (used for estimates). *)
