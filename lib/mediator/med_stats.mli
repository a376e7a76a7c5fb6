(** Per-source statistics catalog for the cost-based optimizer.

    One entry per exported table: row count plus per-column distinct
    count, null count, min/max and an equi-height histogram.  Exact
    entries come from {!analyze} (a [Q_scan] of every relational export);
    approximate entries are seeded from execution feedback through
    {!observe_rows}.  The planner reads them on every compile, so a
    refresh shows in the next plan. *)

type bucket = {
  b_lo : Value.t;
  b_hi : Value.t;
  b_rows : int;
}

type col_stats = {
  cs_distinct : int;  (** distinct non-null values *)
  cs_nulls : int;
  cs_min : Value.t option;
  cs_max : Value.t option;
  cs_hist : bucket array;  (** equi-height over non-null values; [[||]] when empty *)
}

type table_stats = {
  ts_rows : int;
  ts_exact : bool;  (** computed by {!analyze}, not merely seeded *)
  ts_cols : (string * col_stats) list;
}

type t

val create : unit -> t

val table_key : source:string -> export:string -> string

val find : t -> source:string -> export:string -> table_stats option

val table_names : t -> string list

val set_table : t -> source:string -> export:string -> table_stats -> unit
(** Install exact statistics. *)

val observe_rows : t -> source:string -> export:string -> int -> unit
(** Seed (or correct) a table's row count from an observed full-table
    fetch.  The count only moves on {e material} drift — a first
    observation or a row count crossing a 2x ratio — so steady-state
    execution does not keep changing the estimates plans are chosen by. *)

val of_rows : schema:Dschema.relational -> Tuple.t list -> table_stats
(** Exact statistics for one table's rows. *)

val analyze_source : t -> Source.t -> (string * int) list
(** Scan every relational export of one source through [Q_scan] and
    install exact statistics; unavailable or scan-rejecting sources are
    skipped.  Returns [(table, rows)] for each export analyzed. *)

val analyze : t -> Src_registry.t -> (string * int) list
(** {!analyze_source} over every registered source. *)

(** {1 Estimation primitives} *)

val eq_fraction : table_stats -> string -> Value.t -> float option
(** Estimated fraction of rows where [column = v]: uniform over distinct
    non-null values, zero outside the observed min/max, zero for NULL
    probes and all-NULL columns.  [None] when the column is unknown. *)

val cmp_fraction :
  table_stats -> string -> [ `Lt | `Le | `Gt | `Ge ] -> Value.t -> float option
(** Estimated fraction of rows satisfying a range predicate, from the
    equi-height histogram (boundary buckets count half). *)

val distinct_of : table_stats -> string -> int option
(** Distinct non-null count; [None] for unknown or all-NULL columns. *)

val report : t -> string
(** Human-readable catalog listing for the repl's [\analyze]. *)
