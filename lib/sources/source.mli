(** The source abstraction: what the integration engine knows about one
    underlying system.

    Section 2.1: the compiler "considers both the type of the underlying
    source, information concerning the layout of the data within the
    sources, and the presence of indices".  A source is a record of
    closures — name, capabilities, schema/document exports, and an
    execute function accepting the source's native query form (SQL text
    for relational sources, a path for XML stores, plain scans for flat
    files). *)

type kind =
  | Relational  (** accepts SQL; exports tables *)
  | Xml_store   (** accepts path selections; exports documents *)
  | Flat_file   (** scan only *)

(** What the source can evaluate on its side — consulted by the
    capability-aware optimizer (section 4). *)
type capability = {
  can_select : bool;     (** predicate pushdown *)
  can_project : bool;    (** column pruning *)
  can_join : bool;       (** multi-relation fragments *)
  can_aggregate : bool;
  can_path : bool;       (** path-expression pushdown *)
}

(** What of each element a path selects an XML store ships: a
    projection in the sense of Marian & Siméon ("Projecting XML
    Documents"), derived from the pattern that verifies the candidates
    ({!Med_pathgen.shape}). *)
type shape =
  | Whole  (** the element and its whole subtree *)
  | Kids of (string * Xml_path.pred option * shape) list
      (** the element's attributes and, of its children, only the
          elements labelled with a listed tag — each kept only where the
          predicate, if any, holds on it, and shaped in turn.  Text
          children are dropped. *)

type query =
  | Q_sql of string          (** SQL text (relational sources) *)
  | Q_path of string * Xml_path.t * shape
      (** document name, path, and what of each match to ship (XML
          stores).  A store may ignore the shape and ship whole matches:
          the mediator verifies every candidate, so a superset is
          always correct. *)
  | Q_scan of string         (** table or document name *)
  | Q_batch of query list
      (** several fragments shipped as one round trip (the fetch
          scheduler's batching hook).  Sources that cannot batch raise
          {!Query_rejected} and the scheduler falls back to individual
          calls; batches never nest. *)

type result =
  | R_rows of string list * Tuple.t list  (** column names, rows *)
  | R_trees of Dtree.t list
  | R_batch of result list
      (** one result per member of a {!Q_batch}, in order *)

exception Unavailable of string
(** Raised by [execute]/[documents] when the source is offline
    (section 3.4). *)

exception Query_rejected of string
(** The query form is outside this source's capabilities. *)

type t = {
  name : string;
  kind : kind;
  capability : capability;
  relations : unit -> Dschema.relational list;
      (** exported relational schemas ([] for non-relational sources) *)
  document_names : unit -> string list;
      (** exported document names; relational sources export one virtual
          document per table *)
  documents : string -> Dtree.t list;
      (** the XML view of a named export: for a relational table [t],
          a single tree [<t><row>...</row>...</t>] *)
  execute : query -> result;
  is_available : unit -> bool;
}

val full_capability : capability
val scan_only : capability

val shape_to_string : shape -> string
(** Injective rendering: [""] for {!Whole},
    [{product[@sku in ('a')]{name,price}}] for a projection.  Part of
    the fragment cache's identity for a path fetch. *)

val table_document : string -> Tuple.t list -> Dtree.t
(** [<name>] wrapping one [<row>] child per tuple — the canonical XML
    view of a relation. *)
