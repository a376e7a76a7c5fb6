(* Per-forest index registry.

   Concurrency contract: Navigate runs inside the parallel engine on
   worker domains, so probes must be safe without the caller holding any
   lock.  The registry is published as an immutable snapshot behind an
   [Atomic]; guides and value indexes are immutable once built; entry
   mutation (lazy builds) happens under the entry's mutex with a
   double-check, and statistics are [Atomic.t] counters mirrored into
   [Obs_metrics] only by [publish_metrics] on the main domain. *)

type mode = Off | Auto | Eager

let mode_of_string = function
  | "off" -> Ok Off
  | "auto" -> Ok Auto
  | "eager" -> Ok Eager
  | s -> Error (Printf.sprintf "unknown index mode %S (expected auto, off or eager)" s)

let mode_to_string = function
  | Off -> "off"
  | Auto -> "auto"
  | Eager -> "eager"

type entry = {
  e_name : string;
  e_roots : Dtree.t array;
  e_root_labels : (string, unit) Hashtbl.t; (* immutable after creation *)
  e_lock : Mutex.t;
  e_hint : int Atomic.t;                    (* last matched root index *)
  mutable e_guide : Idx_guide.t option;
  (* (label-path key, kind string) -> built value index; read and
     written only under [e_lock]. *)
  e_values : (string * string, Idx_value.t) Hashtbl.t;
  mutable e_value_bytes : int;
}

type state = {
  by_name : (string, entry) Hashtbl.t; (* under [lock] only *)
  mutable snapshot : entry array;      (* mirrored into [snap] *)
}

let lock = Mutex.create ()
let state = { by_name = Hashtbl.create 8; snapshot = [||] }
let snap : entry array Atomic.t = Atomic.make [||]
let hint_entry = Atomic.make (-1)

let mode_a = Atomic.make Auto
let epoch_a = Atomic.make 0

let c_guide_hits = Atomic.make 0
let c_value_hits = Atomic.make 0
let c_misses = Atomic.make 0
let c_builds = Atomic.make 0
let c_invalidations = Atomic.make 0

let tick c = Atomic.incr c
let bump_epoch () = Atomic.incr epoch_a

let epoch () = Atomic.get epoch_a
let mode () = Atomic.get mode_a

let set_mode m =
  if Atomic.get mode_a <> m then begin
    Atomic.set mode_a m;
    bump_epoch ()
  end

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let republish () =
  let arr = Hashtbl.fold (fun _ e acc -> e :: acc) state.by_name [] in
  let arr = Array.of_list (List.sort (fun a b -> String.compare a.e_name b.e_name) arr) in
  state.snapshot <- arr;
  Atomic.set snap arr

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

let build_guide e =
  (* Double-checked under the entry lock so concurrent probes build at
     most once.  A build is planning-visible (estimates that returned
     [None] now answer), so it moves the epoch. *)
  Mutex.lock e.e_lock;
  let g =
    match e.e_guide with
    | Some g -> g
    | None ->
      let g = Idx_guide.build (Array.to_list e.e_roots) in
      e.e_guide <- Some g;
      tick c_builds;
      bump_epoch ();
      g
  in
  Mutex.unlock e.e_lock;
  g

let ensure_guide e =
  match e.e_guide with
  | Some g -> Some g
  | None -> (
    match Atomic.get mode_a with
    | Off -> None
    | Auto | Eager -> Some (build_guide e))

(* Raw strings a node contributes to a value index of [kind].  These are
   exactly what [Xml_path.pred_holds] compares on the XML rendering of
   the node: [Dtree.text] equals [Xml_types.text_content] of the
   serialized element, and attributes compare via [Value.to_string]. *)
let kind_values kind node =
  match kind with
  | Idx_value.Text -> [ Dtree.text node ]
  | Idx_value.Attr a -> (
    match Dtree.attr node a with
    | Some v -> [ Value.to_string v ]
    | None -> [])
  | Idx_value.Child c -> List.map Dtree.text (Dtree.kids_named node c)

let value_index e guide key kind =
  let kkey = (key, Idx_value.kind_to_string kind) in
  Mutex.lock e.e_lock;
  let idx =
    match Hashtbl.find_opt e.e_values kkey with
    | Some idx -> idx
    | None ->
      let entries =
        List.concat_map
          (fun id ->
            List.map (fun raw -> (raw, id)) (kind_values kind (Idx_guide.node guide id)))
          (Idx_guide.all_ids_of_key guide key)
      in
      let idx = Idx_value.build entries in
      Hashtbl.replace e.e_values kkey idx;
      e.e_value_bytes <- e.e_value_bytes + Idx_value.bytes idx;
      tick c_builds;
      bump_epoch ();
      idx
  in
  Mutex.unlock e.e_lock;
  idx

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let make_entry name forest =
  let roots = Array.of_list forest in
  let labels = Hashtbl.create 4 in
  Array.iter
    (fun r -> match Dtree.label r with Some l -> Hashtbl.replace labels l () | None -> ())
    roots;
  {
    e_name = name;
    e_roots = roots;
    e_root_labels = labels;
    e_lock = Mutex.create ();
    e_hint = Atomic.make 0;
    e_guide = None;
    e_values = Hashtbl.create 4;
    e_value_bytes = 0;
  }

(* An entry is planning-visible once something was built from it:
   dropping or replacing it changes what [estimate] answers, so the
   epoch must move.  Removing a never-built entry changes nothing a
   cached plan could have used. *)
let entry_built e = e.e_guide <> None || e.e_value_bytes > 0

let register name forest =
  let e = make_entry name forest in
  let replaced_built =
    with_lock (fun () ->
        let old = Hashtbl.find_opt state.by_name name in
        if old <> None then tick c_invalidations;
        Hashtbl.replace state.by_name name e;
        republish ();
        match old with Some o -> entry_built o | None -> false)
  in
  if replaced_built then bump_epoch ();
  if Atomic.get mode_a = Eager then ignore (build_guide e)

let unregister name =
  let removed_built =
    with_lock (fun () ->
        match Hashtbl.find_opt state.by_name name with
        | None -> None
        | Some e ->
          Hashtbl.remove state.by_name name;
          republish ();
          Some (entry_built e))
  in
  match removed_built with
  | None -> ()
  | Some built ->
    tick c_invalidations;
    if built then bump_epoch ()

let drop_prefix prefix =
  let dropped, any_built =
    with_lock (fun () ->
        let doomed =
          Hashtbl.fold
            (fun n e acc -> if String.starts_with ~prefix n then (n, e) :: acc else acc)
            state.by_name []
        in
        List.iter (fun (n, _) -> Hashtbl.remove state.by_name n) doomed;
        if doomed <> [] then republish ();
        (List.length doomed, List.exists (fun (_, e) -> entry_built e) doomed))
  in
  if dropped > 0 then begin
    Atomic.set c_invalidations (Atomic.get c_invalidations + dropped);
    if any_built then bump_epoch ()
  end

let clear () =
  let any_built =
    with_lock (fun () ->
        let any = Hashtbl.fold (fun _ e acc -> acc || entry_built e) state.by_name false in
        Hashtbl.reset state.by_name;
        republish ();
        any)
  in
  if any_built then bump_epoch ()

let build name =
  let e = with_lock (fun () -> Hashtbl.find_opt state.by_name name) in
  match e with
  | None -> None
  | Some e ->
    let g = build_guide e in
    Some (Idx_guide.path_count g, Idx_guide.node_count g, Idx_guide.bytes g)

let entry_bytes e =
  (match e.e_guide with Some g -> Idx_guide.bytes g | None -> 0) + e.e_value_bytes

let registered () =
  let arr = Atomic.get snap in
  Array.to_list arr
  |> List.map (fun e ->
         (e.e_name, e.e_guide <> None, Array.length e.e_roots, entry_bytes e))

let is_registered name =
  Array.exists (fun e -> String.equal e.e_name name) (Atomic.get snap)

let total_bytes () =
  Array.fold_left (fun acc e -> acc + entry_bytes e) 0 (Atomic.get snap)

(* ------------------------------------------------------------------ *)
(* Probing                                                             *)
(* ------------------------------------------------------------------ *)

(* Find the registered root physically equal to [tree].  Sequential
   scans over a view's rows hit the per-entry hint (last index, then its
   successor) in O(1); otherwise fall back to a pointer scan, skipping
   entries whose root labels cannot contain this tree. *)
let find_root tree =
  let arr = Atomic.get snap in
  if Array.length arr = 0 then None
  else begin
    let label = Dtree.label tree in
    let in_entry e =
      let n = Array.length e.e_roots in
      if n = 0 then None
      else begin
        let viable =
          match label with
          | Some l -> Hashtbl.mem e.e_root_labels l
          | None -> false
        in
        if not viable then None
        else begin
          let h = Atomic.get e.e_hint in
          if h < n && e.e_roots.(h) == tree then Some h
          else if h + 1 < n && e.e_roots.(h + 1) == tree then begin
            Atomic.set e.e_hint (h + 1);
            Some (h + 1)
          end
          else begin
            let found = ref (-1) in
            let i = ref 0 in
            while !found < 0 && !i < n do
              if e.e_roots.(!i) == tree then found := !i;
              incr i
            done;
            if !found >= 0 then begin
              Atomic.set e.e_hint !found;
              Some !found
            end
            else None
          end
        end
      end
    in
    let he = Atomic.get hint_entry in
    let try_entry k =
      if k < 0 || k >= Array.length arr then None
      else
        match in_entry arr.(k) with
        | Some r ->
          Atomic.set hint_entry k;
          Some (arr.(k), r)
        | None -> None
    in
    match try_entry he with
    | Some hit -> Some hit
    | None ->
      let rec scan k =
        if k >= Array.length arr then None
        else if k = he then scan (k + 1)
        else match try_entry k with Some hit -> Some hit | None -> scan (k + 1)
      in
      scan 0
  end

(* The walker applies final-step predicates per candidate; replicate on
   the Dtree side.  Each predicate becomes a test once per probe, so an
   IN-list hashes its keys once, not per candidate.  Position predicates
   never reach here — the guide rejects them as unsupported. *)
let node_pred_holds = function
  | Xml_path.Has_attr n -> fun node -> Dtree.attr node n <> None
  | Xml_path.Attr_cmp (n, op, rhs) -> (
    fun node ->
      match Dtree.attr node n with
      | Some v -> Xml_path.compare_values op (Value.to_string v) rhs
      | None -> false)
  | Xml_path.Child_exists n -> fun node -> Dtree.kids_named node n <> []
  | Xml_path.Child_cmp (n, op, rhs) ->
    fun node ->
      List.exists
        (fun c -> Xml_path.compare_values op (Dtree.text c) rhs)
        (Dtree.kids_named node n)
  | Xml_path.Text_cmp (op, rhs) ->
    fun node -> Xml_path.compare_values op (Dtree.text node) rhs
  | Xml_path.Position _ -> fun _ -> false
  | Xml_path.In_list { rel; attr; keys } ->
    let mem = Xml_path.in_keys keys in
    fun node ->
      List.exists
        (fun t ->
          match attr with
          | Some a -> (
            match Dtree.attr t a with Some v -> mem (Value.to_string v) | None -> false)
          | None -> mem (Dtree.text t))
        (List.fold_left
           (fun nodes name -> List.concat_map (fun n -> Dtree.kids_named n name) nodes)
           [ node ] rel)

(* Split a path into its structural part (guide-probeable) and the
   final step's predicates (checked per candidate). *)
let split_preds (p : Xml_path.t) =
  match List.rev p.Xml_path.steps with
  | [] -> (p, [])
  | last :: rev_front ->
    let stripped =
      { p with Xml_path.steps = List.rev ({ last with Xml_path.preds = [] } :: rev_front) }
    in
    (stripped, last.Xml_path.preds)

(* The first predicate a value index can answer outright. *)
let value_probe_of preds =
  List.find_map
    (fun p ->
      match p with
      | Xml_path.Text_cmp (op, rhs) when op <> Xml_path.Neq ->
        Some (Idx_value.Text, op, rhs)
      | Xml_path.Attr_cmp (n, op, rhs) when op <> Xml_path.Neq ->
        Some (Idx_value.Attr n, op, rhs)
      | Xml_path.Child_cmp (n, op, rhs) when op <> Xml_path.Neq ->
        Some (Idx_value.Child n, op, rhs)
      | _ -> None)
    preds

type outcome = Value | Guide

let try_select ?(project = Fun.id) tree path =
  if Atomic.get mode_a = Off then None
  else
    match find_root tree with
    | None -> None
    | Some (e, root) ->
      if not (Idx_guide.supported path) then begin
        tick c_misses;
        None
      end
      else begin
        match ensure_guide e with
        | None -> None
        | Some guide ->
          let stripped, preds = split_preds path in
          let lo, hi = Idx_guide.root_range guide root in
          let candidates, outcome =
            match value_probe_of preds with
            | Some (kind, op, rhs) -> (
              match Idx_guide.matching_keys guide stripped with
              | None -> (Idx_guide.probe guide ~root stripped, Guide)
              | Some keys ->
                let probed =
                  List.fold_left
                    (fun acc key ->
                      match acc with
                      | None -> None
                      | Some ids -> (
                        match Idx_value.probe (value_index e guide key kind) op rhs with
                        | None -> None
                        | Some more ->
                          Some
                            (List.filter (fun id -> id >= lo && id < hi) more @ ids)))
                    (Some []) keys
                in
                (match probed with
                | Some ids -> (Some (List.sort Int.compare ids), Value)
                | None -> (Idx_guide.probe guide ~root stripped, Guide)))
            | None -> (Idx_guide.probe guide ~root stripped, Guide)
          in
          (match candidates with
          | None ->
            tick c_misses;
            None
          | Some ids ->
            (* Re-check every predicate per node: idempotent for the one
               the value index answered, required for the rest. *)
            let tests = List.map node_pred_holds preds in
            let out =
              List.filter_map
                (fun id ->
                  let node = Idx_guide.node guide id in
                  if List.for_all (fun holds -> holds node) tests then
                    (* Same XML round-trip the walker's results take, so
                       answers are byte-identical; a projection first, so
                       only what ships is copied. *)
                    Some (Dtree.of_xml_element (Dtree.to_xml_element (project node)))
                  else None)
                ids
            in
            tick (match outcome with Value -> c_value_hits | Guide -> c_guide_hits);
            Some (out, outcome))
      end

let lacks_label name label =
  Atomic.get mode_a <> Off
  &&
  match Array.find_opt (fun e -> String.equal e.e_name name) (Atomic.get snap) with
  | None -> false
  | Some e -> (
    match ensure_guide e with
    | Some guide -> not (Idx_guide.has_label guide label)
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Estimation                                                          *)
(* ------------------------------------------------------------------ *)

let estimate name path =
  if Atomic.get mode_a = Off then None
  else
    let arr = Atomic.get snap in
    let e = Array.find_opt (fun e -> String.equal e.e_name name) arr in
    match e with
    | None -> None
    | Some e -> (
      match e.e_guide with
      | None -> None (* estimation never forces a build *)
      | Some guide -> (
        let stripped, preds = split_preds path in
        match Idx_guide.count guide stripped with
        | None -> None
        | Some n -> (
          match value_probe_of preds with
          | None -> Some (float_of_int n)
          | Some (kind, op, rhs) -> (
            (* Refine through a value index only if one is already
               built for every matching key. *)
            match Idx_guide.matching_keys guide stripped with
            | None -> Some (float_of_int n)
            | Some keys ->
              let kstr = Idx_value.kind_to_string kind in
              let refined =
                Mutex.lock e.e_lock;
                let r =
                  List.fold_left
                    (fun acc key ->
                      match acc with
                      | None -> None
                      | Some total -> (
                        match Hashtbl.find_opt e.e_values (key, kstr) with
                        | None -> None
                        | Some idx -> (
                          match Idx_value.probe idx op rhs with
                          | None -> None
                          | Some ids -> Some (total + List.length ids))))
                    (Some 0) keys
                in
                Mutex.unlock e.e_lock;
                r
              in
              (match refined with
              | Some k -> Some (float_of_int k)
              | None -> Some (float_of_int n))))))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let counters () =
  (Atomic.get c_guide_hits, Atomic.get c_value_hits, Atomic.get c_misses)

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ c_guide_hits; c_value_hits; c_misses; c_builds; c_invalidations ]

let publish_metrics () =
  let sync name a =
    let c = Obs_metrics.counter name in
    Obs_metrics.inc ~by:(Atomic.get a - Obs_metrics.value c) c
  in
  sync "idx.guide_hits" c_guide_hits;
  sync "idx.value_hits" c_value_hits;
  sync "idx.misses" c_misses;
  sync "idx.builds" c_builds;
  sync "idx.invalidations" c_invalidations;
  Obs_metrics.set_gauge (Obs_metrics.gauge "idx.bytes") (float_of_int (total_bytes ()));
  Obs_metrics.set_gauge
    (Obs_metrics.gauge "idx.indexes")
    (float_of_int (Array.length (Atomic.get snap)))
