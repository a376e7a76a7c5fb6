(** Render {!Sql_ast} back to SQL text.

    This is the emission half of the mediator's compiler (section 2.1):
    translated fragments are printed and shipped to relational sources as
    text.  Output round-trips through {!Sql_parser}. *)

val expr_to_string : Sql_ast.expr -> string
(** Fully parenthesized where precedence requires it. *)

val select_to_string : Sql_ast.select -> string

val statement_to_string : Sql_ast.statement -> string

val canonical_select : Sql_ast.select -> string
(** Normalized rendering for cache keys: table aliases renumbered
    [t0..tn] in FROM order (dropped entirely for a single unaliased
    table), WHERE/HAVING conjuncts sorted by rendered text with exact
    duplicates removed, no redundant whitespace.  Structurally identical
    fragments that differ only in alias choice or conjunct order map to
    the same string.  Not semantics-preserving as SQL to {e execute} (alias
    renaming changes qualified output names); keys only. *)

val value_literal : Value.t -> string
(** SQL literal syntax for a value (strings quoted with [''] doubling,
    dates as [DATE '...']). *)
