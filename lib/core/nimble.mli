(** The Nimble data integration system: public facade.

    One value of type {!t} is a running integration engine: a metadata
    catalog of sources and hierarchical mediated schemas, a materialized-
    view store with refresh policies, an LRU result cache, users/roles,
    and lenses.  Queries are XML-QL text; answers are trees of the Nimble
    data model (or device-formatted strings).

    {[
      let sys = Nimble.create () in
      Nimble.register_source sys (Rel_source.make my_db);
      match Nimble.query sys
              {|WHERE <row><name>$n</name></row> IN "crm.customers"
                CONSTRUCT <c>$n</c>|}
      with
      | Ok trees -> List.iter print_tree trees
      | Error msg -> prerr_endline msg
    ]} *)

type t

val create :
  ?name:string ->
  ?cache_capacity:int ->
  ?cache_ttl_ms:float ->
  ?frag_capacity:int ->
  ?frag_ttl_ms:float ->
  ?sem_budget_bytes:int ->
  unit ->
  t
(** Default result-cache capacity 64 entries; 0 disables result caching.
    [cache_ttl_ms] ages result-cache entries on the virtual clock.
    [frag_capacity] (default 0: off) enables the fragment-level source
    result cache below the network layer, with its own optional TTL.
    [sem_budget_bytes] (default 0: off) budgets the semantic fragment
    cache, which answers contained/overlapping predicates by local
    filtering and remainder shipping (see {!Sem_cache}). *)

val name : t -> string

(** {1 Component access (for advanced use and tests)} *)

val catalog : t -> Med_catalog.t
val store : t -> Mat_store.t
val cache : t -> Mat_cache.t
val sem_cache : t -> Sem_cache.t
val auth : t -> Fe_auth.t

(** {1 Administration} *)

val register_source : t -> Source.t -> (unit, string) result

val define_view : t -> ?description:string -> string -> string -> (unit, string) result
(** [define_view t name xmlql_text] adds a mediated schema. *)

val drop_view : t -> string -> (unit, string) result

val materialize_view :
  t -> ?policy:Mat_store.policy -> string -> (unit, string) result
(** Store a local copy of the view (section 3.3); subsequent queries
    over it are answered from the copy, honouring its refresh policy. *)

val refresh_view : t -> string -> (unit, string) result
val dematerialize_view : t -> string -> unit

val invalidate_source : t -> string -> int
(** Drop cached results computed from the named source (call after
    out-of-band updates); returns how many query-level entries were
    dropped.  Fragment-cache and semantic-cache entries for the source
    are dropped too: this is {!Med_catalog.notify_invalidation}, the
    path every catalog mutation (defining or dropping a view,
    registering a source) also takes. *)

(** {1 Execution knobs}

    Every execution knob is declared once, in {!knobs}: the CLI derives
    its flags from the list, the repl its [\set]/[\show] commands,
    and {!save_config} its [set] lines.  A knob's value is a string in
    the same syntax everywhere. *)

type 'a knob = {
  name : string;  (** the flag, [\set] and [set] name, e.g. ["fetch-mode"] *)
  docv : string;  (** the value's placeholder in usage text *)
  doc : string;  (** one paragraph for [--help] *)
  get : 'a -> string;
  set : 'a -> string -> (unit, string) result;
      (** validates, applies, or returns the knob's error text *)
}

val knobs : t knob list
(** The fetch, cache, retry, engine, optimizer and index knobs; each
    entry's [doc] says what its values mean.  Answers are identical
    under every value: the knobs trade latency, shipped rows and
    throughput.  The index mode is process-wide; every other knob
    belongs to its system. *)

val knob_default : t knob -> string
(** [get] on a system created at program start. *)

val find_knob : string -> (t knob, string) result
(** The knob of that name, or an error listing the known names. *)

val set_knob : t -> string -> string -> (unit, string) result
(** [set_knob t name value] is {!find_knob} then [set]. *)

val set_retry_policy : t -> Src_retry.policy -> unit
(** Install a whole retry/deadline/circuit-breaker policy
    ({!Src_retry}) for every source call of every subsequent query;
    installing one resets breaker state.  The [retry],
    [retry-deadline], [breaker] and [retry-stale] knobs each set one
    field of it. *)

(** {1 Knob reports} *)

val fetch_report : t -> string
(** The fetch mode, fan-out and fragment-cache occupancy/counters — the
    repl's [\fetch] view. *)

val sem_report : t -> string
(** Occupancy and hit/partial/miss counters — the repl's [\sem] view. *)

val retry_report : t -> string
(** The current policy plus per-source breaker states — the repl's
    [\retry] view. *)

val exec_report : t -> string
(** One-line summary of the execution mode — the repl's [\exec] view. *)

val build_index : t -> string -> (string, string) result
(** Force-build the structural guide for a materialized view (bare
    name) or any registry key (["view:…"], ["src:source/doc"]);
    returns a one-line build summary.  The repl's [\index build]. *)

val index_report : t -> string
(** Mode, epoch, total bytes and one line per registration of the
    structural-summary index subsystem ({!Idx_manager}) — the repl's
    [\index] view. *)

val optimizer_report : t -> string
(** One-line summary of the optimizer mode — the repl's [\optimize]
    view. *)

(** {1 Statistics} *)

val analyze_stats : t -> (string, string) result
(** Collect exact per-source statistics (row counts, distincts,
    histograms) by scanning every relational export — the repl's bare
    [\analyze]; every later compile plans with them.  Returns the
    refreshed catalog listing. *)

val stats_catalog_report : t -> string
(** The current statistics catalog listing without re-scanning. *)

val add_user : t -> ?role:Fe_auth.role -> string -> string -> (unit, string) result

(** {1 Dynamic data cleaning (section 3.2)} *)

val register_cleaned_source :
  t ->
  name:string ->
  key_field:string ->
  flow:Cl_flow.flow ->
  from_query:string ->
  (unit, string) result
(** Register a derived source whose rows are the result trees of
    [from_query] (which must construct flat records), run through the
    cleaning flow {e at query time} — the paper's dynamic cleaning: "the
    source data is unchanged, and at least some of the cleansing and
    matching need to be performed dynamically."  The source is
    addressable as ["name"] in later queries and views; match
    determinations accumulate in a per-source concordance database and
    merges are recorded in a lineage store. *)

val cleaning_exceptions : t -> string -> (string * string) list
(** Pairs the last runs of the named cleaned source trapped as unsure —
    the human work queue.  [] for unknown names. *)

val resolve_match :
  t -> string -> Cl_concordance.verdict -> string -> string -> (unit, string) result
(** A human answers a trapped pair of the named cleaned source; the
    decision replays on every later query. *)

val cleaning_lineage : t -> string -> Cl_lineage.t option
(** The lineage store of a cleaned source (merge provenance /
    rollback). *)

val report : t -> string
(** Status page: sources, schemas, materializations, cache. *)

val save_config : t -> string
(** A reloadable script of the system's knobs that differ from
    {!knob_default}, then its mediated schemas (in dependency order) and
    materialization policies:
    {v
      set <knob> <value>
      view <name> := <xml-ql text, UNION allowed>
      describe <name> <description>
      materialize <name> manual|on-access|every:N
    v}
    Sources, lenses and users are live objects and are not serialized. *)

val load_config : t -> string -> (unit, string) result
(** Replay a {!save_config} script (ignoring blank lines and [#]
    comments).  Stops at the first failing directive with its message.
    Sources referenced by the views must already be registered. *)

(** {1 Querying} *)

val query : t -> string -> (Dtree.t list, string) result
(** Strict mode: any unavailable source fails the whole query with an
    error naming it. *)

val query_partial : t -> string -> (Dtree.t list * string list, string) result
(** Partial-results mode (section 3.4): offline sources contribute
    nothing; the second component names them (empty means the answer is
    complete).  Incomplete answers are never cached. *)

val query_partial_ex :
  t -> string -> (Dtree.t list * string list * string list, string) result
(** {!query_partial} with the full answer envelope:
    [(trees, skipped_sources, stale_sources)].  The third component
    lists sources answered from stale fragment-cache extents under
    {!Src_retry.policy.serve_stale} — such answers are flagged here and
    never admitted to the result cache. *)

val query_formatted :
  t -> device:Fe_format.device -> string -> (string, string) result

val explain : t -> string -> (string, string) result
(** The physical plan and the fragments shipped to each source. *)

(** {1 Observability} *)

val explain_analyze : t -> ?repeat:int -> string -> (string, string) result
(** Run the query for real (bypassing the result cache) and report, per
    plan operator, estimated vs measured rows and inclusive time, plus a
    per-source-fragment table (what was pushed, calls, rows, time).  Each
    run records observed cardinalities into the catalog's feedback store,
    so with [repeat > 1] later runs plan with measured rather than
    default scan cardinalities — the report shows the estimates
    converging. *)

val stats_report : t -> string
(** All registered metrics, a per-source breakdown (availability,
    accesses, rows shipped, simulated latency), and the observed-
    cardinality store. *)

val trace_report : t -> string
(** The span trees collected since tracing was enabled (empty hint
    otherwise). *)

val set_tracing : bool -> unit
(** Toggle the process-wide trace sink ({!Obs_trace.set_enabled}). *)

(** {1 Lenses} *)

val add_lens : t -> Fe_lens.t -> (unit, string) result
val lens_names : t -> string list

val find_lens : t -> string -> Fe_lens.t option
(** The registered lens object — the concurrency server resolves
    requests through it. *)

val view_lookup : t -> string -> Dtree.t list option
(** The materialized-copy hook ({!Mat_store.lookup} over this system's
    store) that {!query} threads into the executor; exposed so the
    concurrency server executes with the same view semantics. *)

val tick_views : t -> unit
(** Advance the materialized store's query counter (refresh policies) —
    one tick per served request, as {!query} does. *)

val run_lens :
  t ->
  user:string ->
  password:string ->
  lens:string ->
  query:string ->
  (string * string) list ->
  (string, string) result
(** Authenticate, check the lens's required role, instantiate the named
    query with the arguments, execute (through cache and materialized
    views), and format for the lens's device. *)
