(** A self-contained in-memory relational database.

    This is the "RDB source" substrate of the reproduction: the mediator
    compiles query fragments to SQL text (section 2.1) and ships them
    here.  The database parses, plans (index selection, join ordering)
    and executes them, exactly the contract a remote commercial RDBMS
    would provide. *)

type t

type result =
  | Rows of string list * Tuple.t list  (** column names and rows *)
  | Affected of int                     (** DML row count *)
  | Created                             (** DDL acknowledgement *)

exception Sql_error of string
(** Any parse, plan, execution or constraint failure, with a message. *)

val create : ?name:string -> unit -> t

val name : t -> string

(** {1 Statement interface} *)

val exec : t -> string -> result
(** Parse and run one SQL statement.  @raise Sql_error on any failure. *)

val exec_statement : t -> Sql_ast.statement -> result
(** Run one parsed statement: {!exec} without the parse, for callers
    that already hold the AST.  @raise Sql_error on any failure. *)

val query : t -> string -> Tuple.t list
(** [exec] specialized to SELECT; returns the rows.
    @raise Sql_error when the statement is not a SELECT. *)

val query_names : t -> string -> string list * Tuple.t list
(** Like {!query} but also returns output column names in order. *)

val explain : t -> string -> string
(** The physical plan the SELECT would run ([EXPLAIN]). *)

(** {1 Direct (non-SQL) interface} *)

val create_table : t -> ?primary_key:string -> Dschema.relational -> unit
val drop_table : t -> string -> unit
val table : t -> string -> Rel_table.t option
val table_exn : t -> string -> Rel_table.t
val tables : t -> string list
val insert_tuple : t -> string -> Tuple.t -> unit
val insert_many : t -> string -> Tuple.t list -> unit

val catalog : t -> Sql_plan.catalog
(** Planner view of this database. *)

val total_rows : t -> int
(** Sum of live rows across all tables (statistics). *)
