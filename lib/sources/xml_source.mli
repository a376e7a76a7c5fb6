(** XML document source: a named collection of documents supporting path
    selection pushdown. *)

val idx_name : string -> string -> string
(** [idx_name source doc] is the {!Idx_manager} entry a store registers
    its document [doc] under: ["src:<source>/<doc>"]. *)

val projector : Source.shape -> Dtree.t -> Dtree.t
(** The projection a store applies to each selected element: attributes
    kept, text children dropped, child elements kept only when the shape
    lists their tag and its filter ({!Idx_manager.node_pred_holds})
    holds, each projected by its own shape.  Filters are compiled once
    per call of [projector]. *)

val make : name:string -> (string * Dtree.t) list -> Source.t
(** [make ~name docs] with [(doc_name, tree)] pairs.  Capability:
    select/path pushdown, no joins or aggregates.  A [Q_path] ships each
    match through {!projector}: on the index route before the matches'
    XML round-trip, on the walker route after it. *)

val of_xml_strings : name:string -> (string * string) list -> Source.t
(** Parse each document from text.
    @raise Xml_parser.Parse_error on malformed input. *)

val add_document : Source.t -> string -> Dtree.t -> unit
(** Sources made by this module are backed by a mutable store; adding a
    document makes it visible to subsequent queries.
    @raise Invalid_argument when the source was not made here. *)

val reindex : string -> unit
(** Re-register every document of the named store with {!Idx_manager}
    from its live trees — no source call, so network wrappers between
    the catalog and the store see nothing.  No-op for names this module
    never made (e.g. relational sources).  The catalog calls this after
    an invalidation drops the source's index entries. *)
