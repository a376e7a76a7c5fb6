(** The semantic fragment cache: a store of {!Sem_entry} extents probed
    by predicate containment.

    Sits beside {!Frag_cache} (the exact-key layer) under the mediator's
    fragment fetch: an exact repeat hits the fragment cache first; a
    {e different but contained} predicate over the same scope hits here
    and ships nothing; an overlapping predicate ships only the remainder
    (see {!Sem_rewrite}).

    Admission and eviction are accounted against a byte budget
    ([budget_bytes = 0] disables the cache).  Eviction order is lowest
    {!Sem_entry.benefit} first — a frequency signal fed by recorded
    hits plus {!Obs_feedback} sample counts — with least-recent use as
    the tie-break.  All activity is published as [semcache.*] metrics
    through {!Obs_metrics}. *)

type t

type stats = {
  mutable sem_hits : int;          (** full hits: shipped nothing *)
  mutable sem_partials : int;      (** probe + remainder splits *)
  mutable sem_misses : int;        (** eligible probes finding nothing *)
  mutable sem_admissions : int;
  mutable sem_evictions : int;
  mutable sem_invalidations : int; (** entries dropped by invalidation *)
  mutable sem_rows_local : int;    (** rows answered from extents *)
  mutable sem_rows_shipped : int;  (** rows fetched by remainder/miss *)
  mutable sem_fallbacks : int;     (** splits abandoned (no order key) *)
  mutable sem_view_hits : int;     (** pattern queries answered by a
                                       subsuming materialized view *)
}

val create : ?budget_bytes:int -> unit -> t
(** Default budget 0: disabled. *)

val enabled : t -> bool
val budget : t -> int
val bytes_used : t -> int
val entry_count : t -> int
val stats : t -> stats

val set_budget : t -> int -> unit
(** Re-budget in place (evicting down if shrunk); 0 disables and
    clears. *)

val entries : t -> source:string -> scope:string -> Sem_entry.t list
(** Candidate extents for a request, most recently admitted first. *)

val admit : t -> ?samples:int -> Sem_entry.t -> bool
(** Store an extent, evicting lowest-benefit entries to fit the budget.
    Returns [false] (and stores nothing) when disabled, when the entry
    alone exceeds the whole budget, or when an entry with the same key
    is already resident.  [samples] is the {!Obs_feedback} sample count
    used in the eviction scoring of {e other} entries considered for
    removal. *)

val touch : t -> Sem_entry.t -> unit
(** Refresh recency (called on hits). *)

val invalidate_name : t -> string -> int
(** Drop entries whose source or any export matches [name] (or whose
    source is the prefix of a qualified [source.table] name); returns
    how many were dropped.  Wired to {!Med_catalog.on_mutation}
    notifications and [invalidate_source]. *)

val clear : t -> unit

val note_hit : t -> rows:int -> unit
val note_partial : t -> local:int -> shipped:int -> unit
val note_miss : t -> shipped:int -> unit
val note_fallback : t -> unit
val note_view_hit : t -> unit
(** Outcome accounting, mirrored to [semcache.*] counters. *)

type outcome =
  | O_hit of { local : int }
  | O_partial of { local : int; shipped : int; remainder : string }
  | O_miss

val outcome_cells : outcome -> (string * string) list
(** Report cells for EXPLAIN ANALYZE's access lines: [sem=hit local=N],
    [sem=partial local=N shipped=N remainder="..."], or [sem=miss]. *)

val report : t -> string
(** One-paragraph summary for the repl's [\sem]. *)
