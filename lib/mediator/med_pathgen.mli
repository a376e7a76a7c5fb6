(** The path half of the query compiler: pushing pattern preselection
    into XML stores that declare the [can_path] capability.

    From a clause pattern we derive a path whose matches are a
    {e superset} of the elements the pattern matches —
    [descendant-or-self::tag] with necessary-condition predicates from
    literal attributes, attribute presence, child-tag existence and
    literal child text.  The engine then runs full pattern matching only
    on the returned candidates, so far fewer tree nodes cross the
    simulated network.

    Soundness rule: every derived predicate must be {e implied} by the
    pattern (never narrower), so preselection can only drop guaranteed
    non-matches. *)

val compile_pattern : Xq_ast.pattern -> Xml_path.t option
(** [None] when no useful narrowing exists (wildcard tag). *)

(** {1 Bind keys on a path}

    A bind join narrows a path access to the candidates whose join
    variable can equal one of the driver's keys, with one extra
    predicate on the candidate step:
    [category[product/@sku in ('S00012','S00513')]].  The soundness rule
    is the one above, with the hash join's equality as the pattern: a
    row the join keeps must satisfy the predicate. *)

(** Where a pattern binds a variable: the child tags leading from the
    pattern's root to the binding element, and the attribute read there
    ([None]: the element's text). *)
type site = { rel : string list; attr : string option }

val bind_site : Xml_path.t -> Xq_ast.pattern -> string -> site option
(** The site the pattern binds the variable at, when a path access over
    the pattern can narrow on it: the path is one step selecting the
    pattern's root (as {!compile_pattern} builds it) without a
    [position()] predicate — a filter after a positional one is not the
    same path — and the pattern binds the variable from an attribute
    ([<product sku=$s>]) or from the sole content of an element
    ([<sku>$s</sku>]) at a fixed child path whose tags, the root's
    included, are distinct and not [*].  [ELEMENT_AS] bindings and
    content shared with siblings are not sites. *)

val key_text : Value.t -> string option
(** The text a driver key ships as, when path equality on it is implied
    by the join's: a row the join keeps holds the key's value, guessed
    back from the text the path compares ([Value.of_string_guess]), or
    an element whose text is the key's text.  [None] for NULL, for
    floats whose text does not parse back to the same float, and for
    blank text, which serialization drops from element content. *)

val narrow : Xml_path.t -> site -> string list -> Xml_path.t
(** The path with [site in (keys)] added to its first step. *)

(** {1 Projection}

    A path access ships each candidate {e projected}: only what the
    pattern's match can read (Marian & Siméon, "Projecting XML
    Documents", VLDB 2003). *)

val shape : ?bound:site * string list -> Xml_path.t -> Xq_ast.pattern -> Source.shape
(** What a path access over the pattern ships of each candidate.
    Attributes are always kept.  Below each element the shape keeps the
    children whose tag one of the element's sub-patterns names, each
    projected by that sub-pattern; an element is kept whole when its
    pattern node has a variable or text child (its content is read), an
    [ELEMENT_AS], a [*] tag or a [*] child.  A tag two sibling
    sub-patterns share is kept whole.  A path that is not the one step
    {!compile_pattern} builds for the pattern's root, or that carries a
    [position()] predicate, gets {!Source.Whole}.

    [bound] is the site and key texts a bind join {!narrow}s the path
    with: the root's child on the site's path is then kept only where
    the rest of the site holds a key — [product[@sku in keys]] for site
    [product/@sku] — unless its tag is shared with a sibling sub-pattern
    or the root is kept whole.  A row the join keeps binds the variable
    through that child, so the filter drops only rows the join drops. *)
