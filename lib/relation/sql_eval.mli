(** Evaluation of SQL expressions, with SQL's three-valued logic
    ([Value.Null] plays UNKNOWN).

    Expressions are compiled against a {!layout} — the field names of a
    positional row — so every column reference is resolved to a slot
    once, and the resulting closure reads [Value.t array] rows directly.
    The tuple-level {!eval} and {!eval_pred} are wrappers over
    {!compile}. *)

exception Eval_error of string

type layout = string array
(** Field names of a positional row, in slot order.  Fields may be
    qualified ([alias.column]). *)

val slot : layout -> string option -> string -> (int, string) result
(** Resolve a column reference to a slot.  A qualified [q.n] matches a
    field named [q.n], else one named [n].  An unqualified [n] matches a
    field named exactly [n], else the unique field ending in [.n].
    [Error] carries the "unknown column" or "ambiguous column" message. *)

val compile : layout -> Sql_ast.expr -> Value.t array -> Value.t
(** [compile layout e] resolves [e]'s columns against [layout] and
    returns its evaluator over rows of that layout.  Comparisons return
    [Bool] or [Null]; [And]/[Or] follow Kleene logic.  Compilation never
    fails: a reference that does not resolve, or an unknown function,
    raises [Eval_error] only when the closure reaches it, so a
    statement over no rows succeeds. *)

val compile_pred : layout -> Sql_ast.expr -> Value.t array -> bool
(** {!compile} with SQL WHERE semantics: true only for a truthy non-null
    value (UNKNOWN rows are dropped). *)

val eval : Tuple.t -> Sql_ast.expr -> Value.t
(** Evaluate a scalar expression over one named tuple.
    @raise Eval_error on unknown columns or functions. *)

val eval_pred : Tuple.t -> Sql_ast.expr -> bool
(** {!eval} with WHERE semantics, as {!compile_pred}. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] (any run) and [_] (any single char), case
    sensitive. *)

val scalar_functions : string list
(** Names accepted by [Fncall]: upper, lower, length, abs, coalesce,
    substr, trim, round, concat. *)
