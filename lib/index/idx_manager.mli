(** Registry of path/value indexes over named [Dtree.t] forests.

    Materialized views register under ["view:<name>"], local XML-store
    documents under ["src:<source>/<doc>"].  Structural guides are built
    at registration time in [Eager] mode, on first probe in [Auto] mode;
    value indexes are always built on first value probe.  Invalidation
    is by name (view refresh/drop) or prefix (source mutation), and
    every change of index availability bumps {!epoch}, which the index
    report prints.

    Probes are safe from any domain: registry snapshots are read through
    an [Atomic], built guides and value indexes are immutable, and all
    statistics are atomic counters.  Nothing here touches the (single-
    domain) [Obs_metrics] registry except {!publish_metrics}, which the
    caller must invoke from the main domain. *)

type mode =
  | Off    (** never probe *)
  | Auto   (** probe registered forests, building guides on demand *)
  | Eager  (** as [Auto], but build guides at registration time *)

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string
val set_mode : mode -> unit
val mode : unit -> mode

(** [register name forest] (re)indexes a forest under [name], replacing
    any previous registration. *)
val register : string -> Dtree.t list -> unit

val unregister : string -> unit

(** Drop every registration whose name starts with [prefix] — e.g.
    ["src:crm/"] when source [crm] is invalidated. *)
val drop_prefix : string -> unit

val clear : unit -> unit

(** Bumped on every planning-visible change: a guide or value index is
    built, an entry something was built from is replaced or dropped, or
    the mode changes.  (Registering or dropping a never-built entry
    moves nothing — no estimate could have depended on it.)  The index
    report prints it. *)
val epoch : unit -> int

(** Force-build the guide for [name]; [Some (paths, nodes, bytes)] on
    success, [None] if nothing is registered under [name]. *)
val build : string -> (int * int * int) option

(** [(name, guide_built, roots, bytes)] per registration, sorted. *)
val registered : unit -> (string * bool * int * int) list

(** Lock-free membership test; an XML store probes this before lazily
    re-registering documents dropped by a source invalidation. *)
val is_registered : string -> bool

val total_bytes : unit -> int

(** How a probe was answered: [Value] used a value index, [Guide] used
    the structural summary alone. *)
type outcome = Value | Guide

(** [try_select tree path] answers [Xml_path.select path] over a
    registered root from its indexes: [Some (results, outcome)] with the
    result nodes in document order, re-imported through the same
    XML round-trip as the walker so answers are byte-identical.  [None]
    when indexing is off, [tree] is not a registered root, or the path
    is outside the indexable subset — callers must then run the walker.
    [project] (default: identity) maps each result node before the
    round-trip, so a projecting caller copies only what it keeps. *)
val try_select :
  ?project:(Dtree.t -> Dtree.t) -> Dtree.t -> Xml_path.t -> (Dtree.t list * outcome) option

(** [node_pred_holds pred] tests [pred] on a node as the walker tests it
    on the node's XML rendering: attributes and text compare as
    {!Value.to_string} renders them, under {!Xml_path.compare_values}.
    The test is built once per predicate (an IN-list hashes its keys
    once), then applied per node.  [Position] never holds: position is a
    property of a node among its siblings, not of the node. *)
val node_pred_holds : Xml_path.pred -> Dtree.t -> bool

(** [lacks_label name label] is true when no element of the forest
    registered under [name] carries [label] — proven from its structural
    guide, which it builds if indexing is on and the guide is not built
    yet.  False whenever that cannot be proven: indexing is off or
    nothing is registered under [name]. *)
val lacks_label : string -> string -> bool

(** Index-backed cardinality: exact matching-node count from [name]'s
    built guide, refined by a value probe when one applies and its index
    is already built.  [None] when unknown (no entry, guide not built,
    or unsupported path) — estimation never forces a build. *)
val estimate : string -> Xml_path.t -> float option

(** Cumulative [(guide_hits, value_hits, misses)] — snapshot around a
    region to attribute probe activity to one operator or access. *)
val counters : unit -> int * int * int

(** Mirror the atomic statistics into [Obs_metrics] ([idx.*] counters
    and gauges).  Main domain only. *)
val publish_metrics : unit -> unit

(** Reset statistics (not registrations); for tests. *)
val reset_stats : unit -> unit
