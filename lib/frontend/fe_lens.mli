(** Lenses (section 2.1): "a lens is an object that contains a set of
    XML queries, parameters, XSL formatting, and authentication
    information."

    A lens bundles named XML-QL query templates with declared parameters
    (placeholders written [%name%] in the template text), a target
    device for formatting, and the minimum role required to run it. *)

type param = {
  param_name : string;
  param_ty : Value.ty;
  default : Value.t option;
}

type t = {
  lens_name : string;
  queries : (string * string) list;  (** query name -> XML-QL template *)
  params : param list;
  device : Fe_format.device;
  required_role : Fe_auth.role;
}

exception Lens_error of string

val make :
  ?params:param list ->
  ?device:Fe_format.device ->
  ?required_role:Fe_auth.role ->
  name:string ->
  (string * string) list ->
  t
(** Defaults: no parameters, [Text] device, [Viewer] role.
    @raise Lens_error when a template mentions an undeclared [%param%]
    or declares a duplicate query name. *)

val param : ?default:Value.t -> string -> Value.ty -> param

val instantiate :
  t -> string -> (string * string) list -> Xq_ast.query
(** [instantiate lens query_name args] substitutes each placeholder with
    the (type-checked) argument rendered as an XML-QL literal, then
    parses.  Missing arguments fall back to declared defaults.
    @raise Lens_error on unknown query names, missing/ill-typed
    arguments, or a template that fails to parse after substitution. *)

val query_names : t -> string list

val placeholders : string -> string list
(** The distinct [%name%] placeholders of a template, in order. *)

(** {1 Parameter shapes}

    The plan-cache key machinery of the concurrency server lives here so
    the shape of a lens invocation is derived in exactly one place.

    Two invocations share a {e shape} when they name the same lens and
    query and their resolved parameters differ only in {e rebindable}
    values — values a cached parse can swap in without running the
    parser again.  Rebindable classes are backslash-free strings,
    non-negative integers, and non-negative floats whose literal
    rendering round-trips through the XML-QL lexer; everything else
    (booleans, dates, NULLs, negatives, exotic floats) is {e inlined}:
    its rendered literal becomes part of the shape, so such values get a
    parse of their own. *)

val resolve_args :
  t -> string -> (string * string) list -> (string * Value.t) list
(** Typed resolution of the named query's placeholders — arguments
    checked against declared types, defaults applied — in declaration
    order, exactly as {!instantiate} resolves them.
    @raise Lens_error on unknown query names or missing/ill-typed
    arguments. *)

val instantiate_values : t -> string -> (string * Value.t) list -> Xq_ast.query
(** Substitute already-resolved values and parse — the tail half of
    {!instantiate}.  @raise Lens_error when the substituted template
    fails to parse. *)

val rebindable : Value.t -> bool
(** Can a query parsed with a sentinel stand-in of this value have the
    value written into its AST without changing what a direct parse
    would build? *)

val sentinel_for : int -> Value.t -> Value.t
(** [sentinel_for i v] is a distinct stand-in of [v]'s class for the
    [i]-th parameter: a string, integer or float that cannot
    plausibly occur in a template, so a query parsed with it can later
    be searched for the parameter's landing sites.
    @raise Invalid_argument when [v] is not {!rebindable}. *)

val param_shape : t -> string -> (string * Value.t) list -> string
(** The canonical plan-cache key of an invocation from its
    {!resolve_args} values: [lens/query?name:class&name=literal&…] —
    rebindable parameters contribute their class, inlined ones their
    rendered literal. *)
