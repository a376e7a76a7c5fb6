type stats = {
  mutable sem_hits : int;
  mutable sem_partials : int;
  mutable sem_misses : int;
  mutable sem_admissions : int;
  mutable sem_evictions : int;
  mutable sem_invalidations : int;
  mutable sem_rows_local : int;
  mutable sem_rows_shipped : int;
  mutable sem_fallbacks : int;
  mutable sem_view_hits : int;
}

type outcome =
  | O_hit of { local : int }
  | O_partial of { local : int; shipped : int; remainder : string }
  | O_miss

type t = {
  mutable budget_bytes : int;
  mutable entry_list : Sem_entry.t list;  (* most recently admitted first *)
  mutable used : int;
  mutable tick : int;
  st : stats;
}

(* Counters are process-global (get-or-create by name), so several
   cache instances aggregate into one [semcache.*] family — the same
   convention Frag_cache and the server follow. *)
let m_hits = Obs_metrics.counter "semcache.hits"
let m_partials = Obs_metrics.counter "semcache.partial_hits"
let m_misses = Obs_metrics.counter "semcache.misses"
let m_admissions = Obs_metrics.counter "semcache.admissions"
let m_evictions = Obs_metrics.counter "semcache.evictions"
let m_invalidations = Obs_metrics.counter "semcache.invalidations"
let m_rows_local = Obs_metrics.counter "semcache.rows_local"
let m_rows_shipped = Obs_metrics.counter "semcache.rows_shipped"
let m_fallbacks = Obs_metrics.counter "semcache.order_fallbacks"
let m_view_hits = Obs_metrics.counter "semcache.view_hits"

let create ?(budget_bytes = 0) () =
  {
    budget_bytes;
    entry_list = [];
    used = 0;
    tick = 0;
    st =
      {
        sem_hits = 0;
        sem_partials = 0;
        sem_misses = 0;
        sem_admissions = 0;
        sem_evictions = 0;
        sem_invalidations = 0;
        sem_rows_local = 0;
        sem_rows_shipped = 0;
        sem_fallbacks = 0;
        sem_view_hits = 0;
      };
  }

let enabled t = t.budget_bytes > 0
let budget t = t.budget_bytes
let bytes_used t = t.used
let entry_count t = List.length t.entry_list
let stats t = t.st

let entries t ~source ~scope =
  List.filter
    (fun e ->
      e.Sem_entry.entry_source = source && e.Sem_entry.entry_scope = scope)
    t.entry_list

let touch t e =
  t.tick <- t.tick + 1;
  e.Sem_entry.entry_stamp <- t.tick

let drop t e =
  t.entry_list <- List.filter (fun e' -> e' != e) t.entry_list;
  t.used <- t.used - e.Sem_entry.entry_bytes

(* Evict until [need] bytes fit: lowest benefit first, oldest stamp as
   the tie-break.  [samples] stands in for the incoming entry's own
   popularity so a hot newcomer can displace cold residents but not the
   other way around. *)
let rec make_room t ~samples ~need =
  if t.used + need <= t.budget_bytes then true
  else
    match
      List.fold_left
        (fun worst e ->
          let score =
            (Sem_entry.benefit e ~samples:0, e.Sem_entry.entry_stamp)
          in
          match worst with
          | Some (_, s) when s <= score -> worst
          | _ -> Some (e, score))
        None t.entry_list
    with
    | None -> false
    | Some (victim, (vb, _)) ->
      if vb > samples + 1 then false
        (* every resident is hotter than the newcomer: refuse admission *)
      else begin
        drop t victim;
        t.st.sem_evictions <- t.st.sem_evictions + 1;
        Obs_metrics.inc m_evictions;
        make_room t ~samples ~need
      end

let admit t ?(samples = 0) e =
  if not (enabled t) then false
  else if e.Sem_entry.entry_bytes > t.budget_bytes then false
  else if
    List.exists
      (fun e' -> e'.Sem_entry.entry_key = e.Sem_entry.entry_key)
      t.entry_list
  then false
  else if not (make_room t ~samples ~need:e.Sem_entry.entry_bytes) then false
  else begin
    touch t e;
    t.entry_list <- e :: t.entry_list;
    t.used <- t.used + e.Sem_entry.entry_bytes;
    t.st.sem_admissions <- t.st.sem_admissions + 1;
    Obs_metrics.inc m_admissions;
    true
  end

let invalidate_name t name =
  let prefix = name ^ "." in
  let matches e =
    e.Sem_entry.entry_source = name
    || List.exists
         (fun x ->
           x = name
           || String.length x > String.length prefix
              && String.sub x 0 (String.length prefix) = prefix)
         e.Sem_entry.entry_exports
  in
  let doomed, kept = List.partition matches t.entry_list in
  t.entry_list <- kept;
  List.iter (fun e -> t.used <- t.used - e.Sem_entry.entry_bytes) doomed;
  let n = List.length doomed in
  if n > 0 then begin
    t.st.sem_invalidations <- t.st.sem_invalidations + n;
    Obs_metrics.inc ~by:n m_invalidations
  end;
  n

let clear t =
  t.entry_list <- [];
  t.used <- 0

let set_budget t b =
  t.budget_bytes <- max 0 b;
  if t.budget_bytes = 0 then clear t
  else ignore (make_room t ~samples:1_000_000_000 ~need:0)

let note_hit t ~rows =
  t.st.sem_hits <- t.st.sem_hits + 1;
  t.st.sem_rows_local <- t.st.sem_rows_local + rows;
  Obs_metrics.inc m_hits;
  Obs_metrics.inc ~by:rows m_rows_local

let note_partial t ~local ~shipped =
  t.st.sem_partials <- t.st.sem_partials + 1;
  t.st.sem_rows_local <- t.st.sem_rows_local + local;
  t.st.sem_rows_shipped <- t.st.sem_rows_shipped + shipped;
  Obs_metrics.inc m_partials;
  Obs_metrics.inc ~by:local m_rows_local;
  Obs_metrics.inc ~by:shipped m_rows_shipped

let note_miss t ~shipped =
  t.st.sem_misses <- t.st.sem_misses + 1;
  t.st.sem_rows_shipped <- t.st.sem_rows_shipped + shipped;
  Obs_metrics.inc m_misses;
  Obs_metrics.inc ~by:shipped m_rows_shipped

let note_fallback t =
  t.st.sem_fallbacks <- t.st.sem_fallbacks + 1;
  Obs_metrics.inc m_fallbacks

let note_view_hit t =
  t.st.sem_view_hits <- t.st.sem_view_hits + 1;
  Obs_metrics.inc m_view_hits

let outcome_cells = function
  | O_hit { local } -> [ ("sem", "hit"); ("local", string_of_int local) ]
  | O_partial { local; shipped; remainder } ->
    [
      ("sem", "partial");
      ("local", string_of_int local);
      ("shipped", string_of_int shipped);
      ("remainder", Printf.sprintf "%S" remainder);
    ]
  | O_miss -> [ ("sem", "miss") ]

let report t =
  if not (enabled t) then "semantic cache: off"
  else
    Printf.sprintf
      "semantic cache: %d entries, %d/%d bytes / hits=%d partial=%d \
       miss=%d / rows local=%d shipped=%d / admitted=%d evicted=%d \
       invalidated=%d fallbacks=%d view_hits=%d"
      (entry_count t) t.used t.budget_bytes t.st.sem_hits t.st.sem_partials
      t.st.sem_misses t.st.sem_rows_local t.st.sem_rows_shipped
      t.st.sem_admissions t.st.sem_evictions t.st.sem_invalidations
      t.st.sem_fallbacks t.st.sem_view_hits
