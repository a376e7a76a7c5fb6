(* Operator semantics shared by the two engines: the tuple engine
   (Alg_exec) and the morsel-driven engine (Alg_par) call the same sort,
   grouping, aggregate, navigation and compiled-expression code, so they
   cannot drift, and they record the same per-operator statistics. *)

[@@@ocaml.warnerror "+a"]

(* ------------------------------------------------------------------ *)
(* Sort, outer-union schema, grouping and aggregation                  *)
(* ------------------------------------------------------------------ *)

let union_vars envs =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun env ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            out := v :: !out
          end)
        (Alg_env.vars env))
    envs;
  List.rev !out

type agg_state = {
  mutable count : int;
  mutable nonnull : int;
  mutable sum : Value.t;
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
  mutable collected : Dtree.t list;  (* reversed *)
}

let new_state () =
  { count = 0; nonnull = 0; sum = Value.Int 0; vmin = None; vmax = None; collected = [] }

let feed env st = function
  | Alg_plan.A_count -> st.count <- st.count + 1
  | Alg_plan.A_count_expr e ->
    if Alg_expr.eval env e <> Value.Null then st.nonnull <- st.nonnull + 1
  | Alg_plan.A_sum e | Alg_plan.A_avg e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v ->
      st.nonnull <- st.nonnull + 1;
      st.sum <- (try Value.add st.sum v with Invalid_argument _ -> st.sum))
  | Alg_plan.A_min e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v -> (
      match st.vmin with
      | None -> st.vmin <- Some v
      | Some m -> if Value.compare v m < 0 then st.vmin <- Some v))
  | Alg_plan.A_max e -> (
    match Alg_expr.eval env e with
    | Value.Null -> ()
    | v -> (
      match st.vmax with
      | None -> st.vmax <- Some v
      | Some m -> if Value.compare v m > 0 then st.vmax <- Some v))
  | Alg_plan.A_collect e -> (
    match Alg_expr.eval_tree env e with
    | Some tree -> st.collected <- tree :: st.collected
    | None -> ())

let result st = function
  | Alg_plan.A_count -> Dtree.atom (Value.Int st.count)
  | Alg_plan.A_count_expr _ -> Dtree.atom (Value.Int st.nonnull)
  | Alg_plan.A_sum _ -> Dtree.atom (if st.nonnull = 0 then Value.Null else st.sum)
  | Alg_plan.A_avg _ ->
    Dtree.atom
      (if st.nonnull = 0 then Value.Null
       else
         match Value.to_float st.sum with
         | Some total -> Value.Float (total /. float_of_int st.nonnull)
         | None -> Value.Null)
  | Alg_plan.A_min _ -> Dtree.atom (Option.value ~default:Value.Null st.vmin)
  | Alg_plan.A_max _ -> Dtree.atom (Option.value ~default:Value.Null st.vmax)
  | Alg_plan.A_collect _ -> Dtree.node "collection" (List.rev st.collected)

let group_rows ?(size_hint = 32) keys aggs input_envs =
  let table : (Value.t list, Alg_env.t * agg_state list) Hashtbl.t =
    Hashtbl.create (max 16 size_hint)
  in
  let order = ref [] in
  List.iter
    (fun env ->
      let key = List.map (fun (_, e) -> Alg_expr.eval env e) keys in
      let _, states =
        match Hashtbl.find_opt table key with
        | Some entry -> entry
        | None ->
          let entry = (env, List.map (fun _ -> new_state ()) aggs) in
          Hashtbl.add table key entry;
          order := key :: !order;
          entry
      in
      List.iter2 (fun st (_, agg) -> feed env st agg) states aggs)
    input_envs;
  (* A keyless group is scalar aggregation: over empty input it still
     yields exactly one row of aggregate identities (count 0, null
     sum/avg/min/max, empty collection) — in both engines. *)
  if !order = [] && keys = [] then begin
    Hashtbl.add table [] (Alg_env.empty, List.map (fun _ -> new_state ()) aggs);
    order := [ [] ]
  end;
  List.rev_map
    (fun key ->
      let _, states = Hashtbl.find table key in
      let key_bindings = List.map2 (fun (var, _) v -> (var, Dtree.atom v)) keys key in
      let agg_bindings = List.map2 (fun st (var, agg) -> (var, result st agg)) states aggs in
      Alg_env.of_bindings (key_bindings @ agg_bindings))
    !order

(* ------------------------------------------------------------------ *)
(* Per-operator compiled expressions                                   *)
(* ------------------------------------------------------------------ *)

(* The tuple engine interprets expression ASTs once per row; here name
   resolution and AST dispatch happen once per operator and the
   returned closures run per row.  Only the hot
   shapes are specialized — everything else falls back to the
   interpreter, so semantics cannot drift. *)

let compile_value e : Alg_env.t -> Value.t =
  match e with
  | Alg_expr.Const v -> fun _ -> v
  | Alg_expr.Var name -> fun env -> Alg_env.value_of env name
  | Alg_expr.Child (Alg_expr.Var name, label) ->
    fun env -> (
      match Alg_env.get env name with
      | None -> Value.Null
      | Some tree -> (
        match Dtree.first_named tree label with
        | None -> Value.Null
        | Some t -> (
          match Dtree.atom_value t with
          | Some v -> v
          | None -> Value.String (Dtree.text t))))
  | e -> fun env -> Alg_expr.eval env e

let compile_pred p : Alg_env.t -> bool =
  match p with
  | Alg_expr.Binop
      ((Alg_expr.Eq | Alg_expr.Neq | Alg_expr.Lt | Alg_expr.Le | Alg_expr.Gt | Alg_expr.Ge) as op,
       a, b) ->
    let fa = compile_value a and fb = compile_value b in
    let test =
      match op with
      | Alg_expr.Eq -> fun c -> c = 0
      | Alg_expr.Neq -> fun c -> c <> 0
      | Alg_expr.Lt -> fun c -> c < 0
      | Alg_expr.Le -> fun c -> c <= 0
      | Alg_expr.Gt -> fun c -> c > 0
      | Alg_expr.Ge -> fun c -> c >= 0
      | _ -> assert false
    in
    fun env -> (
      match Value.compare_sql (fa env) (fb env) with
      | None -> false
      | Some c -> test c)
  | p -> fun env -> Alg_expr.eval_pred env p

(* Projection with the no-op fast path: when a row already binds exactly
   the projected variables in order, reuse it instead of rebuilding. *)
let compile_project vars : Alg_env.t -> Alg_env.t =
  let names = Array.of_list vars in
  fun env -> if Alg_env.has_layout env names then env else Alg_env.project env vars

(* ------------------------------------------------------------------ *)
(* Sorting: decorate, sort, undecorate                                 *)
(* ------------------------------------------------------------------ *)

(* Every sort key is evaluated exactly once per row; the comparator then
   only touches precomputed key columns (Value.compare per key, negated
   for descending keys).  The parallel engine reuses decorate/compare
   for its sorted-run merges. *)

let sort_decorate specs (arr : Alg_env.t array) : (Value.t array * Alg_env.t) array =
  let keyfns = List.map (fun s -> compile_value s.Alg_plan.sort_key) specs in
  Array.map (fun env -> (Array.of_list (List.map (fun f -> f env) keyfns), env)) arr

let sort_compare_keys specs =
  let dirs = Array.of_list (List.map (fun s -> s.Alg_plan.ascending) specs) in
  let nkeys = Array.length dirs in
  fun ka kb ->
    let rec go i =
      if i = nkeys then 0
      else
        let c = Value.compare ka.(i) kb.(i) in
        if c <> 0 then if dirs.(i) then c else -c else go (i + 1)
    in
    go 0

let sort_array specs (arr : Alg_env.t array) : Alg_env.t array =
  match specs with
  | [] -> arr
  | _ ->
    let deco = sort_decorate specs arr in
    let cmp_keys = sort_compare_keys specs in
    Array.stable_sort (fun (ka, _) (kb, _) -> cmp_keys ka kb) deco;
    Array.map snd deco

let sort_list specs envs = Array.to_list (sort_array specs (Array.of_list envs))

(* ------------------------------------------------------------------ *)
(* Navigation                                                          *)
(* ------------------------------------------------------------------ *)

(* One Navigate binding, shared by both engines: a registered root
   with an indexable path is answered from the index subsystem (a guide
   or value probe plus a document-order merge); anything else walks the
   tree.  Answers are byte-identical either way — the index round-trips
   its result nodes through the same XML conversion the walker output
   takes.  Safe on worker domains: probes touch only atomics and
   immutable structures. *)
let navigate_matches tree path =
  match tree with
  | Dtree.Atom _ -> ([], `Miss)
  | Dtree.Node _ -> (
    match Idx_manager.try_select tree path with
    | Some (results, Idx_manager.Value) -> (results, `Probe)
    | Some (results, Idx_manager.Guide) -> (results, `Guide)
    | None ->
      ( List.map Dtree.of_xml_element
          (Xml_path.select path (Dtree.to_xml_element tree)),
        `Miss ))

(* The [idx=probe:P/guide:G/miss:M] EXPLAIN ANALYZE cell; rendered only
   once a Navigate actually hit an index, so unindexed plans print
   exactly as before. *)
let idx_cell probe guide miss =
  if probe + guide = 0 then []
  else [ Printf.sprintf "idx=probe:%d/guide:%d/miss:%d" probe guide miss ]

(* ------------------------------------------------------------------ *)
(* Per-operator statistics                                             *)
(* ------------------------------------------------------------------ *)

type op_stats = {
  op_plan : Alg_plan.t;
  mutable op_pulled : bool;
  mutable op_rows : int;
  mutable op_ms : float;  (* inclusive of input operators *)
  mutable op_morsels : int;
  mutable op_fallback : bool;
  (* Navigate index outcomes tick from worker domains, hence atomics. *)
  op_idx_probe : int Atomic.t;
  op_idx_guide : int Atomic.t;
  op_idx_miss : int Atomic.t;
  op_kids : op_stats list;
}

let rec make_stats plan =
  {
    op_plan = plan;
    op_pulled = false;
    op_rows = 0;
    op_ms = 0.0;
    op_morsels = 0;
    op_fallback = false;
    op_idx_probe = Atomic.make 0;
    op_idx_guide = Atomic.make 0;
    op_idx_miss = Atomic.make 0;
    op_kids = List.map make_stats (Alg_plan.children plan);
  }

let count_idx st = function
  | `Probe -> Atomic.incr st.op_idx_probe
  | `Guide -> Atomic.incr st.op_idx_guide
  | `Miss -> Atomic.incr st.op_idx_miss

type index = (Alg_plan.t * op_stats) list

let index root =
  let rec go acc st = List.fold_left go ((st.op_plan, st) :: acc) st.op_kids in
  go [] root

(* Physical identity: each plan node appears once in a compiled tree. *)
let find index plan = Option.map snd (List.find_opt (fun (p, _) -> p == plan) index)

let actual_of_stats root =
  let index = index root in
  fun plan ->
    match find index plan with
    | Some st when st.op_pulled -> Some (st.op_rows, st.op_ms)
    | Some _ | None -> None

let cells_of_stats ?(root_cells = []) root =
  let index = index root in
  fun plan ->
    match find index plan with
    | Some st when st.op_pulled ->
      (if st.op_fallback then [ "fallback=tuple" ]
       else if st.op_morsels > 0 then [ Printf.sprintf "morsels=%d" st.op_morsels ]
       else [])
      @ idx_cell
          (Atomic.get st.op_idx_probe)
          (Atomic.get st.op_idx_guide)
          (Atomic.get st.op_idx_miss)
      @ if st == root then root_cells else []
    | Some _ | None -> []

let rec span_of_stats st =
  let sp = Obs_span.make (Alg_plan.node_label st.op_plan) in
  Obs_span.set_int sp "rows" st.op_rows;
  if st.op_morsels > 0 then Obs_span.set_int sp "morsels" st.op_morsels;
  Obs_span.set_duration_ms sp st.op_ms;
  List.iter (fun k -> Obs_span.add_child sp (span_of_stats k)) st.op_kids;
  sp
