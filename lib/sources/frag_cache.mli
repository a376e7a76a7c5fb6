(** Fragment-level LRU+TTL result cache.

    Sits {e below} {!Mat_cache}'s whole-query cache: keys are
    [(source, fragment)] pairs — the fragment being the artifact
    actually shipped to the source (SQL text, path expression, scan or
    document name) — and values are raw {!Source.result}s, cached
    before any mediator post-processing.  A hit replaces a remote round
    trip, so it costs nothing on the virtual clock.

    Eviction is least-recently-used, O(1) per operation (recency is an
    intrusive doubly-linked list threaded through the entries, not a
    table scan); an optional TTL, measured on the
    {e virtual} clock ({!Obs_clock.virtual_ms}), ages entries out for
    freshness (section 3.3's warehousing trade-off).  Capacity 0
    disables the cache entirely (no lookups are counted). *)

type t

type stats = {
  mutable frag_hits : int;
  mutable frag_misses : int;
  mutable frag_evictions : int;
  mutable frag_expirations : int;
  mutable frag_invalidations : int;
}

val create : ?ttl_ms:float -> capacity:int -> unit -> t

val enabled : t -> bool
(** [capacity > 0]. *)

val get : t -> source:string -> fragment:string -> Source.result option
(** A hit refreshes recency; an entry past its TTL expires (counted
    separately from evictions) and reads as a miss. *)

val get_stale : t -> source:string -> fragment:string -> Source.result option
(** Last known value for the key, fresh or not: a live entry, or a
    TTL-expired value parked when {!get} removed it.  Partial-mode
    degradation serves these for sources whose retry budget is
    exhausted; no hit/miss counters move.  Stale values disappear on
    {!put} (refresh), {!invalidate_source}, and {!clear}. *)

val put : t -> source:string -> fragment:string -> Source.result -> unit

val invalidate_source : t -> string -> int
(** Drop every fragment cached from the source; returns how many. *)

val clear : t -> unit
val size : t -> int
val capacity : t -> int
val ttl_ms : t -> float option
val stats : t -> stats
