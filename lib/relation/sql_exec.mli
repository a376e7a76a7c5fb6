(** Execution of SELECT statements over a catalog of tables.

    The FROM/WHERE plan runs over the tables' stored positional rows:
    every expression is compiled once per statement against its input's
    layout, and joined rows carry alias-qualified field names
    ([a.col]).  Named tuples are built only for the projected output
    rows, under bare column names or aliases.  Grouping, HAVING,
    DISTINCT, ORDER BY and LIMIT follow standard SQL semantics (NULLs
    sort first; UNKNOWN predicates drop rows). *)

exception Exec_error of string

val run_select : Sql_plan.catalog -> Sql_ast.select -> string list * Tuple.t list
(** Full SELECT pipeline: the output column names, in order, and the
    rows. *)
