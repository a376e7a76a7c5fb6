(** Structural summary (DataGuide) over a [Dtree.t] forest.

    One pass over the forest assigns every element node a stable
    preorder id (atoms are skipped, mirroring [Xml_cursor], which walks
    element children only) and groups the ids by their distinct
    root-to-node label path.  Sorting ids therefore reproduces document
    order, and because every node lives under exactly one label path the
    id sets have set semantics by construction — a probe can never
    return the same node twice, no matter how many step alignments of a
    [//a//b]-style pattern reach it. *)

type t

(** Build the guide for a forest.  Roots keep their list order; ids are
    dense over the whole forest, root by root, preorder within each. *)
val build : Dtree.t list -> t

(** Number of element nodes indexed. *)
val node_count : t -> int

(** Number of distinct label paths. *)
val path_count : t -> int

(** Approximate heap footprint in bytes (ids + path strings + node
    pointers), for the manager's byte accounting. *)
val bytes : t -> int

(** The node with the given id. *)
val node : t -> int -> Dtree.t

(** [root_range t k] is the dense id interval [(lo, hi))] covering the
    [k]-th root's subtree. *)
val root_range : t -> int -> int * int

(** Ids whose label path matches the supported pattern, restricted to
    one root's subtree, ascending (= document order).  Returns [None]
    when the path uses an axis, test, or predicate placement the guide
    cannot answer exactly — callers must fall back to the walker. *)
val probe : t -> root:int -> Xml_path.t -> int list option

(** [path_key t id] is the label path of node [id], joined with ['/'].
    Used as the value-index key space. *)
val path_key : t -> int -> string

(** Ids under a label-path key within one root, ascending. *)
val ids_of_key : t -> root:int -> string -> int list

(** Whether some element of the forest carries the label. *)
val has_label : t -> string -> bool

(** Ids under a label-path key across the whole forest, ascending. *)
val all_ids_of_key : t -> string -> int list

(** Exact number of nodes (across all roots) whose label path matches
    the pattern, before final-step predicates; [None] if unsupported.
    This is the index-backed cardinality fed to the optimizer. *)
val count : t -> Xml_path.t -> int option

(** Distinct label-path keys matched by the pattern (root-independent),
    or [None] if unsupported.  The value index is keyed per path, so a
    value probe intersects these keys' posting lists. *)
val matching_keys : t -> Xml_path.t -> string list option

(** Whether a path is answerable exactly from a guide: only
    child/descendant/descendant-or-self axes, name or wildcard tests,
    and position-free predicates on the final step. *)
val supported : Xml_path.t -> bool
