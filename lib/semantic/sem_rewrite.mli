(** The probe/remainder splitter: decides, for one SQL fragment about to
    ship, whether the semantic cache can answer it fully (ship nothing),
    partially (ship only the remainder predicate and merge), or not at
    all (ship as-is, admit the result).

    The decision is returned as a {!plan} rather than executed here so
    the caller can route the ship through its own machinery — the
    exact-key {!Frag_cache}, batched [Q_batch] fetches, capability
    fallbacks — before calling [finish] on whatever came back.

    Correctness contract (the QCheck property in [test_semantic]):
    with the cache on, answers are byte-identical to the cache off.
    Full hits rely on containment soundness ({!Sem_pred.contains}) plus
    order stability: a cached extent preserves the source's enumeration
    order, and filtering it by [q] yields exactly the subsequence the
    source would have returned.  Remainder splits additionally need a
    merge key: a stored column strictly ascending in both streams
    ({!Sem_entry.detect_order_col}); when none exists, or the shipped
    remainder violates ascending order, the split falls back to shipping
    the original fragment ([semcache.order_fallbacks]).  This reproduces
    the source's order whenever the source enumerates rows in ascending
    key order — true of every fixture and bench in this repo, and
    documented honestly in DESIGN §12. *)

type request = {
  req_source : string;       (** registry name of the source *)
  req_select : Sql_ast.select;  (** AST of the fragment *)
  req_sql_text : string;     (** exact text a plain ship would send *)
  req_exports : string list; (** qualified exports, for invalidation *)
  req_samples : int;         (** {!Obs_feedback} popularity of the access *)
}

type plan =
  | P_local of Source.result * Sem_cache.outcome
      (** full hit: the filtered extent, projected to the request's
          output columns, and the [O_hit] verdict; nothing ships *)
  | P_ship of {
      ship_sql : string;
          (** what to send: the remainder rendering on a partial hit,
              [req_sql_text] on a miss or when the cache sits out *)
      finish : Source.result -> Source.result * Sem_cache.outcome option;
          (** merge with the probe / admit the extent, returning the
              rows with the verdict ([O_partial] or [O_miss]); on a
              partial hit whose merge cannot be reproduced faithfully
              this re-ships the original fragment via [reship] and
              returns no verdict, as it does when the cache sits out *)
    }

val plan :
  Sem_cache.t -> reship:(unit -> Source.result) -> request -> plan
(** [reship] must fetch [req_sql_text] from the source (the caller's
    normal uncached path); it is only invoked from [finish], and only
    when a partial merge has to be abandoned. *)

val eligible : Sql_ast.select -> bool
(** True for the fragment shapes the cache handles: plain-column or [*]
    projections over a FROM clause, no DISTINCT / GROUP BY / HAVING /
    ORDER BY / LIMIT / aggregates.  Ineligible fragments ship untouched
    and are never admitted. *)

val scope_of : Sql_ast.select -> string
(** The relation identity containment is scoped to: the [SELECT * FROM
    ...] rendering of the fragment's FROM clause. *)
