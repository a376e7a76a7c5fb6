(* The fragment-level result cache: raw source round trips, keyed by
   (source, shipped fragment), below Mat_cache's whole-query cache.  A
   hit short-circuits the network simulator entirely, so repeated
   fragments — within a lens burst or across queries — cost nothing on
   the virtual clock.  Expiry is LRU for capacity and TTL on the
   virtual clock for freshness (section 3.3's trade-off).

   Recency is an intrusive doubly-linked list threaded through the
   entries (head = most recent, tail = victim), so touching an entry
   and evicting the LRU are both O(1) — the old implementation scanned
   the whole table per insertion at capacity. *)

type stats = {
  mutable frag_hits : int;
  mutable frag_misses : int;
  mutable frag_evictions : int;
  mutable frag_expirations : int;
  mutable frag_invalidations : int;
}

(* Registry mirror, so fragment-cache behaviour shows up in `stats`
   reports next to the whole-query cache counters. *)
let m_hits = Obs_metrics.counter "fragcache.hits"
let m_misses = Obs_metrics.counter "fragcache.misses"
let m_evictions = Obs_metrics.counter "fragcache.evictions"
let m_expirations = Obs_metrics.counter "fragcache.expirations"
let m_invalidations = Obs_metrics.counter "fragcache.invalidations"

type entry = {
  key : string * string;
  value : Source.result;
  entry_source : string;
  born_vms : float;
  mutable prev : entry option;  (* toward the head (more recent) *)
  mutable next : entry option;  (* toward the tail (less recent) *)
}

type t = {
  cap : int;
  ttl_ms : float option;
  table : (string * string, entry) Hashtbl.t;
  (* TTL-expired values parked for partial-mode stale serving: [get]
     still removes and miss-counts them exactly as before, but the last
     known value stays reachable through [get_stale] until the key is
     refreshed or the source invalidated. *)
  stale : (string * string, Source.result) Hashtbl.t;
  st : stats;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* least recently used — the victim *)
}

let create ?ttl_ms ~capacity () =
  {
    cap = capacity;
    ttl_ms;
    table = Hashtbl.create (max 1 capacity);
    stale = Hashtbl.create 8;
    st =
      {
        frag_hits = 0;
        frag_misses = 0;
        frag_evictions = 0;
        frag_expirations = 0;
        frag_invalidations = 0;
      };
    head = None;
    tail = None;
  }

let enabled t = t.cap > 0

(* ---- intrusive recency list ---- *)

let unlink t entry =
  (match entry.prev with
  | Some p -> p.next <- entry.next
  | None -> t.head <- entry.next);
  (match entry.next with
  | Some n -> n.prev <- entry.prev
  | None -> t.tail <- entry.prev);
  entry.prev <- None;
  entry.next <- None

let push_front t entry =
  entry.prev <- None;
  entry.next <- t.head;
  (match t.head with
  | Some h -> h.prev <- Some entry
  | None -> t.tail <- Some entry);
  t.head <- Some entry

let touch t entry =
  match t.head with
  | Some h when h == entry -> ()
  | _ ->
    unlink t entry;
    push_front t entry

let remove t entry =
  Hashtbl.remove t.table entry.key;
  unlink t entry

(* ---- cache operations ---- *)

let expired t entry =
  match t.ttl_ms with
  | None -> false
  | Some ttl -> Obs_clock.virtual_ms () -. entry.born_vms > ttl

let get t ~source ~fragment =
  if t.cap = 0 then None
  else
    let key = (source, fragment) in
    match Hashtbl.find_opt t.table key with
    | Some entry when expired t entry ->
      Hashtbl.replace t.stale key entry.value;
      remove t entry;
      t.st.frag_expirations <- t.st.frag_expirations + 1;
      Obs_metrics.inc m_expirations;
      t.st.frag_misses <- t.st.frag_misses + 1;
      Obs_metrics.inc m_misses;
      None
    | Some entry ->
      t.st.frag_hits <- t.st.frag_hits + 1;
      Obs_metrics.inc m_hits;
      touch t entry;
      Some entry.value
    | None ->
      t.st.frag_misses <- t.st.frag_misses + 1;
      Obs_metrics.inc m_misses;
      None

(* Last-known-value lookup for partial-mode degradation: a live entry
   (even one past its TTL) or a parked expired value.  No hit/miss
   accounting — the caller decides whether staleness was acceptable. *)
let get_stale t ~source ~fragment =
  if t.cap = 0 then None
  else
    let key = (source, fragment) in
    match Hashtbl.find_opt t.table key with
    | Some entry -> Some entry.value
    | None -> Hashtbl.find_opt t.stale key

let evict_lru t =
  match t.tail with
  | Some victim ->
    remove t victim;
    t.st.frag_evictions <- t.st.frag_evictions + 1;
    Obs_metrics.inc m_evictions
  | None -> ()

let put t ~source ~fragment value =
  if t.cap > 0 then begin
    let key = (source, fragment) in
    Hashtbl.remove t.stale key;
    (match Hashtbl.find_opt t.table key with
    | Some old -> remove t old
    | None -> if Hashtbl.length t.table >= t.cap then evict_lru t);
    let entry =
      {
        key;
        value;
        entry_source = source;
        born_vms = Obs_clock.virtual_ms ();
        prev = None;
        next = None;
      }
    in
    push_front t entry;
    Hashtbl.replace t.table key entry
  end

let invalidate_source t source =
  let victims =
    Hashtbl.fold
      (fun _ entry acc -> if String.equal entry.entry_source source then entry :: acc else acc)
      t.table []
  in
  List.iter (remove t) victims;
  (* Stale values are no fresher than the live ones: an invalidation
     means the source changed, so stale serving must not resurrect
     pre-mutation extents either. *)
  let stale_victims =
    Hashtbl.fold
      (fun ((s, _) as key) _ acc -> if String.equal s source then key :: acc else acc)
      t.stale []
  in
  List.iter (Hashtbl.remove t.stale) stale_victims;
  t.st.frag_invalidations <- t.st.frag_invalidations + List.length victims;
  Obs_metrics.inc ~by:(List.length victims) m_invalidations;
  List.length victims

let clear t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.stale;
  t.head <- None;
  t.tail <- None

let size t = Hashtbl.length t.table
let capacity t = t.cap
let ttl_ms t = t.ttl_ms
let stats t = t.st
