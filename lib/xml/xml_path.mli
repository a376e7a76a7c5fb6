(** A compact path language over XML trees.

    This is the navigation component of the engine: an XPath-like subset
    sufficient for source queries and the construct/navigate operators of
    the physical algebra.

    Grammar:
    {v
      path  ::= ("/" | "//")? step (("/" | "//") step)*
      step  ::= (axis "::")? test pred*
      axis  ::= child | descendant | descendant-or-self | parent
              | ancestor | self | following-sibling | preceding-sibling
      test  ::= NAME | "*" | "." | ".." | "text()" | "@" NAME
      pred  ::= "[" pexpr "]"
      pexpr ::= "@" NAME (op STRING)?      (* attribute presence / compare *)
              | NAME (op STRING)?          (* child-element text compare  *)
              | "text()" op STRING
              | "position()" "=" INT
              | target "in" "(" (STRING ("," STRING)* )? ")"
      target ::= "text()" | "@" NAME | NAME ("/" NAME)* ("/@" NAME)?
      op    ::= "=" | "!=" | "<" | "<=" | ">" | ">="
    v}
    [//] before a step means the descendant axis.  String literals use
    single or double quotes; inside one, the quote character doubled
    stands for itself (['it''s']).  Comparisons are numeric when both
    sides parse as numbers, string otherwise. *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Self
  | Following_sibling
  | Preceding_sibling

type test =
  | Name of string
  | Any_element
  | Text_node
  | Attribute of string  (** final [@name] step selecting an attribute *)

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type pred =
  | Has_attr of string
  | Attr_cmp of string * cmp_op * string
  | Child_exists of string
  | Child_cmp of string * cmp_op * string
  | Text_cmp of cmp_op * string
  | Position of int
  | In_list of { rel : string list; attr : string option; keys : string list }
      (** [[rel/@attr in ('k1','k2')]]: some element reached from the
          candidate through the child path [rel] (the candidate itself
          when empty) has attribute [attr] — or, without one, text —
          equal to a key under {!compare_values}.  Build it with
          {!in_list}, which sorts and deduplicates the keys. *)

type step = {
  axis : axis;
  test : test;
  preds : pred list;
}

type t = {
  absolute : bool;  (** evaluate from the tree root rather than the context *)
  steps : step list;
}

exception Syntax_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t

val in_list : ?attr:string -> string list -> string list -> pred
(** [in_list ?attr rel keys] is the [In_list] predicate with [keys]
    sorted and deduplicated, as {!parse} returns it. *)

val compare_values : cmp_op -> string -> string -> bool
(** The comparison used by predicates: numeric when both sides parse as
    floats, string otherwise.  Exposed so index probes can replicate
    predicate semantics exactly. *)

val in_keys : string list -> string -> bool
(** [in_keys keys] is a membership test equivalent to
    [fun v -> List.exists (compare_values Eq v) keys], with the keys
    hashed once into a numeric and a string bucket, so each test costs
    one probe. *)

val to_string : t -> string
(** Re-render a parsed path (canonical axis syntax).  Injective on
    literals, and [parse (to_string p) = Ok p] for every path [p] whose
    names are names of the grammar and whose IN-lists are built by
    {!in_list}: the rendering is the fragment cache's identity for a
    pushed path. *)

val in_target_to_string : string list -> string option -> string
(** What an IN-list tests, as {!to_string} renders it:
    [in_target_to_string ["product"] (Some "sku") = "product/@sku"]. *)

val pred_to_string : pred -> string
(** One predicate as {!to_string} renders it, brackets included:
    [pred_to_string (in_list ~attr:"sku" [] ["a"]) = "[@sku in ('a')]"]. *)

(** {1 Evaluation} *)

val eval : t -> Xml_cursor.t -> Xml_cursor.t list
(** Matching element cursors, deduplicated, in document order.  A final
    [text()] test selects the elements whose text is examined; use
    {!select_strings} to obtain the strings themselves. *)

val select : t -> Xml_types.element -> Xml_types.element list
(** Evaluate against the root of a tree. *)

val select_strings : t -> Xml_types.element -> string list
(** Like {!select} but returns the text content of each match; when the
    path ends in an attribute step [.../@name] it returns the attribute
    values instead. *)

val matches : t -> Xml_types.element -> bool
(** [matches p root] is true when [select p root] is non-empty. *)
