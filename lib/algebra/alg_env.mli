(** Variable environments: the unit of data flow in the physical algebra.

    An environment binds variable names to {e trees} of the Nimble data
    model.  Flat relational rows are environments whose bindings are
    atoms; XML processing binds whole subtrees.  This is exactly the
    "slightly more structured than XML" hybrid of section 3.1: one
    operator signature covers both shapes. *)

type t

val empty : t

val of_bindings : (string * Dtree.t) list -> t
(** @raise Invalid_argument on duplicate variables. *)

val of_tuple : Tuple.t -> t
(** Each field becomes an atom binding. *)

val to_tuple : t -> Tuple.t
(** Atom bindings keep their value; tree bindings flatten to their text. *)

val bindings : t -> (string * Dtree.t) list
val vars : t -> string list
val arity : t -> int

val get : t -> string -> Dtree.t option
val get_exn : t -> string -> Dtree.t
val mem : t -> string -> bool

val value_of : t -> string -> Value.t
(** The atomic value of a binding: the atom itself, a single-atom node's
    value, or the text of a larger tree.  Unbound variables yield
    [Null] — the outer-union convention of section 3.4. *)

val bind : t -> string -> Dtree.t -> t
(** Replace-or-append. *)

val bind_value : t -> string -> Value.t -> t

val unbind : t -> string -> t

val project : t -> string list -> t
(** Keep listed variables in order; missing ones bind to [Atom Null]. *)

val rename : t -> (string * string) list -> t

val has_layout : t -> string array -> bool
(** Does the environment bind exactly [names], in that order?  Cheap
    (no allocation) — compiled projections use it to skip no-op
    projections. *)

val concat : t -> t -> t
(** Left-biased union of bindings. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit
