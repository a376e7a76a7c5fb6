(** In-memory table storage for the relational substrate.

    Rows are stored positionally against the table schema in a growable
    slot array; deletions tombstone the slot.  Secondary indexes (B+tree
    or hash) map column values to row ids and are maintained on every
    mutation. *)

type t

type index_kind = Btree_index | Hash_index

exception Constraint_violation of string
(** Raised on duplicate primary key or schema violations. *)

val create : ?primary_key:string -> Dschema.relational -> t
(** @raise Invalid_argument when the primary key is not a schema column. *)

val schema : t -> Dschema.relational
val name : t -> string
val row_count : t -> int
val primary_key : t -> string option

val columns : t -> string array
(** Column names in schema order: the layout of every positional row
    this module hands out. *)

(** {1 Mutation} *)

val insert : t -> Tuple.t -> int
(** Coerce the tuple into schema shape and append it; returns the row id.
    @raise Constraint_violation when coercion fails or the primary key is
    duplicated. *)

val insert_values : t -> Value.t list -> int
(** Positional insert (must match schema arity). *)

val delete_rows : ?ids:int list -> t -> (Value.t array -> bool) -> int
(** Delete the rows satisfying the predicate; returns how many.  With
    [ids], only those row ids are visited (in ascending order), so they
    must include every row the predicate accepts. *)

val update_rows :
  ?ids:int list -> t -> (Value.t array -> bool) -> (Value.t array -> Tuple.t) -> int
(** Replace each row satisfying the predicate by the function's result,
    coerced into schema shape, and keep the indexes in step; returns how
    many.  [ids] restricts the visit as in {!delete_rows}.
    @raise Constraint_violation when coercion fails. *)

val clear : t -> unit

(** {1 Access}

    The positional readers hand out the table's stored rows themselves,
    laid out as {!columns}: callers must not mutate them.  Updates
    replace a row's array rather than writing into it, so a row read
    earlier keeps its values.  The tuple readers wrap them. *)

val iter_rows : t -> (int -> Value.t array -> unit) -> unit
(** Iterate live rows (with their ids) in insertion order. *)

val rows : t -> Value.t array list
(** Live rows in insertion order. *)

val get : t -> int -> Tuple.t option
(** Fetch by row id; [None] for deleted or out-of-range ids. *)

val scan : t -> (int -> Tuple.t -> unit) -> unit
(** {!iter_rows} over named tuples. *)

val to_list : t -> Tuple.t list
(** {!rows} as named tuples. *)

(** {1 Indexes} *)

val create_index : t -> kind:index_kind -> string -> unit
(** Index a column; backfills from existing rows.
    @raise Invalid_argument for unknown columns or duplicate index. *)

val has_index : t -> string -> index_kind option

val eq_ids : t -> string -> Value.t -> int list option
(** Ids of the rows whose column is equal to the value as the column's
    index stores keys; [None] when the column has no index. *)

val lookup_eq_rows : t -> string -> Value.t -> Value.t array list
(** Equality lookup through an index when one exists, else a scan. *)

val lookup_range_rows :
  t -> string -> ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> Value.t array list
(** Range lookup; uses a B+tree index when available, else a scan with
    filtering.  NULL lies in no range.  Results are in key order when
    served by the index. *)

val lookup_eq : t -> string -> Value.t -> Tuple.t list
(** {!lookup_eq_rows} as named tuples. *)

val lookup_range :
  t -> string -> ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> Tuple.t list
(** {!lookup_range_rows} as named tuples. *)

val index_served : t -> string -> [ `Eq | `Range ] -> bool
(** Would {!lookup_eq} / {!lookup_range} on this column be index-backed?
    (The planner's costing hook.) *)
