(** The lens plan cache: repeated lens invocations skip XML-QL parsing;
    every invocation is planned fresh.

    Entries are keyed by {!Fe_lens.param_shape} — (lens, query, which
    parameters are rebindable, the rendered literals of those that are
    not).  An entry holds the shape's query parsed once against sentinel
    stand-ins for the rebindable parameters; a lookup writes the actual
    values over the sentinels in the AST and hands the result to
    {!Med_planner.compile}.  An entry depends on no catalog state, so no
    mutation, statistics refresh or index change can make it stale, and
    every returned plan is a cold compile.

    Honesty guard: an entry is only admitted when the first valuation
    written over its sentinels gives exactly the AST a direct parse of
    that valuation gives.  Shapes that fail — or whose parameter lands
    inside a clause source ([IN "…"]) — are {e poisoned}: they parse
    cold on every invocation.

    Eviction is LRU. *)

type t

val create : ?capacity:int -> Med_catalog.t -> t
(** Default capacity 32.  0 disables caching: every {!lookup} parses
    cold and reports a miss. *)

val capacity : t -> int
val size : t -> int

val lookup :
  t ->
  lens:Fe_lens.t ->
  query:string ->
  args:(string * string) list ->
  Med_planner.compiled * bool
(** The invocation's plan, compiled against the catalog as it is now,
    and whether its query came from the cache ([true] = parsing was
    skipped).  Raises as {!Fe_lens.instantiate} /
    {!Med_planner.compile} on bad invocations. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
      (** always 0: entries hold parsed queries, which no catalog change
          makes stale; kept so existing consumers of the record build *)
  fallbacks : int;  (** poisoned shapes, parsed cold on every invocation *)
}

val stats : t -> stats

val report : t -> string
(** [plan cache: size=3/32 hits=10 misses=4 evictions=0 fallbacks=0]
    plus one [param <shape>] line per cached shape, LRU order, then one
    [cold <shape>] line per poisoned shape. *)
