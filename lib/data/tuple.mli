(** Flat tuples: ordered, named fields bound to atomic values.

    Tuples are the unit of data flow inside the physical algebra — the
    "slightly more structured than XML" part of the Nimble data model that
    lets relational sources be processed without tree overhead.  Field
    order is significant (it is the projection order); lookup is by
    name. *)

type t

val empty : t

val make : (string * Value.t) list -> t
(** Field order is preserved.
    @raise Invalid_argument on duplicate field names. *)

val of_arrays : string array -> Value.t array -> t
(** [of_arrays names values] is {!make} of the paired arrays, without
    an intermediate list.
    @raise Invalid_argument as {!make} does, or when the lengths
    differ. *)

val fields : t -> (string * Value.t) list
val field_names : t -> string list
val values : t -> Value.t list
val arity : t -> int

val get : t -> string -> Value.t option
val get_exn : t -> string -> Value.t
(** @raise Not_found when the field is absent. *)

val mem : t -> string -> bool

val set : t -> string -> Value.t -> t
(** Replace (or append, when absent) a binding. *)

val remove : t -> string -> t

val project : t -> string list -> t
(** Keep the listed fields, in the listed order.  Missing fields bind to
    [Null] (outer-union semantics, section 3.4). *)

val rename : t -> (string * string) list -> t
(** Apply a old-name/new-name mapping to field names. *)

val prefix : string -> t -> t
(** Qualify every field name with ["p."]. *)

val concat : t -> t -> t
(** Concatenate field lists.  When both sides bind the same name, the
    left binding wins and the right one is dropped. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Order by field names first, then values — a total order usable for
    sorting and distinct. *)

val hash : t -> int

val to_string : t -> string
(** [{a=1, b="x"}] rendering for debugging and tests. *)

val pp : Format.formatter -> t -> unit
