type source_fn = string -> string -> Alg_env.t Seq.t

exception Source_unavailable of string
exception Exec_error of string

(* ------------------------------------------------------------------ *)
(* Template instantiation                                              *)
(* ------------------------------------------------------------------ *)

let rec build_template env template =
  match template with
  | Alg_plan.T_value e -> Dtree.atom (Alg_expr.eval env e)
  | Alg_plan.T_tree e -> (
    match Alg_expr.eval_tree env e with
    | Some tree -> tree
    | None -> Dtree.atom Value.Null)
  | Alg_plan.T_splice _ ->
    (* A bare splice outside a node context degrades to its tree. *)
    build_template env (Alg_plan.T_tree (splice_expr template))
  | Alg_plan.T_node (label, attr_exprs, kid_templates) ->
    let attrs = List.map (fun (n, e) -> (n, Alg_expr.eval env e)) attr_exprs in
    let kids =
      List.concat_map
        (fun t ->
          match t with
          | Alg_plan.T_splice e -> (
            match Alg_expr.eval_tree env e with
            | Some tree -> Dtree.kids tree
            | None -> [])
          | t -> [ build_template env t ])
        kid_templates
    in
    Dtree.node ~attrs label kids

and splice_expr = function
  | Alg_plan.T_splice e -> e
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Operator implementations                                            *)
(* ------------------------------------------------------------------ *)

let seq_of_list l = List.to_seq l

(* Pre-size a hash table for an operator whose input is [plan]: the
   cost model's cardinality estimate (clamped to something sane)
   replaces the old fixed create 32/64, so big builds skip the rehash
   cascade.  Sort comparison, outer-union schema and grouping live in
   Alg_ops and are shared with the parallel engine so the two cannot
   drift. *)
let table_size plan =
  let est =
    Alg_cost.estimate ~source_rows:(fun _ -> Alg_cost.default_scan_rows) plan
  in
  int_of_float (Float.min 1_048_576.0 (Float.max 16.0 est.Alg_cost.rows))

(* The single interpreter, parameterized by a per-node hook: the plain
   entry points use the identity hook; instrumented execution wraps each
   operator's output sequence to count rows and charge time.  [on_idx]
   reports per-binding Navigate index outcomes so instrumentation can
   attribute probe/guide/miss counts to the operator. *)
let rec run_hooked ?(on_idx = fun _ _ -> ()) hook sources plan : Alg_env.t Seq.t =
  let run sources plan = run_hooked ~on_idx hook sources plan in
  let seq =
    match plan with
    | Alg_plan.Scan { source; binding } -> sources source binding
  | Alg_plan.Const_envs envs -> seq_of_list envs
  | Alg_plan.Select (input, pred) ->
    Seq.filter (fun env -> Alg_expr.eval_pred env pred) (run sources input)
  | Alg_plan.Project (input, vs) ->
    Seq.map (fun env -> Alg_env.project env vs) (run sources input)
  | Alg_plan.Rename (input, mapping) ->
    Seq.map (fun env -> Alg_env.rename env mapping) (run sources input)
  | Alg_plan.Extend (input, var, e) ->
    Seq.map (fun env -> Alg_env.bind_value env var (Alg_expr.eval env e)) (run sources input)
  | Alg_plan.Extend_tree (input, var, e) ->
    Seq.map
      (fun env ->
        match Alg_expr.eval_tree env e with
        | Some tree -> Alg_env.bind env var tree
        | None -> Alg_env.bind env var (Dtree.atom Value.Null))
      (run sources input)
  | Alg_plan.Nl_join { left; right; pred } ->
    let rights = List.of_seq (run sources right) in
    Seq.concat_map
      (fun lenv ->
        seq_of_list
          (List.filter_map
             (fun renv ->
               let joined = Alg_env.concat lenv renv in
               match pred with
               | None -> Some joined
               | Some p -> if Alg_expr.eval_pred joined p then Some joined else None)
             rights))
      (run sources left)
  | Alg_plan.Hash_join { left; right; left_key; right_key; residual } ->
    let table : (Value.t, Alg_env.t) Hashtbl.t = Hashtbl.create (table_size right) in
    let rights = List.of_seq (run sources right) in
    (* Hashtbl.add in reverse input order: find_all returns most recent
       first, so probes see build rows in their original order. *)
    List.iter
      (fun renv ->
        match Alg_expr.eval renv right_key with
        | Value.Null -> ()
        | k -> Hashtbl.add table k renv)
      (List.rev rights);
    Seq.concat_map
      (fun lenv ->
        match Alg_expr.eval lenv left_key with
        | Value.Null -> Seq.empty
        | k ->
          seq_of_list
            (Hashtbl.find_all table k
            |> List.filter_map (fun renv ->
                   let joined = Alg_env.concat lenv renv in
                   match residual with
                   | None -> Some joined
                   | Some p -> if Alg_expr.eval_pred joined p then Some joined else None)))
      (run sources left)
  | Alg_plan.Merge_join { left; right; left_key; right_key } ->
    let keyed key_expr env = (Alg_expr.eval env key_expr, env) in
    let ls =
      List.map (keyed left_key) (List.of_seq (run sources left))
      |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    let rs =
      List.map (keyed right_key) (List.of_seq (run sources right))
      |> List.stable_sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    let out = ref [] in
    let rec merge ls rs =
      match ls, rs with
      | [], _ | _, [] -> ()
      | (lk, _) :: lrest, _ when lk = Value.Null -> merge lrest rs
      | _, (rk, _) :: rrest when rk = Value.Null -> merge ls rrest
      | (lk, _) :: lrest, (rk, _) :: _ when Value.compare lk rk < 0 -> merge lrest rs
      | (lk, _) :: _, (rk, _) :: rrest when Value.compare lk rk > 0 -> merge ls rrest
      | (lk, _) :: _, _ ->
        (* equal keys: cross the two runs *)
        let lrun, lrest = List.partition (fun (k, _) -> Value.compare k lk = 0) ls in
        let rrun, rrest = List.partition (fun (k, _) -> Value.compare k lk = 0) rs in
        List.iter
          (fun (_, lenv) ->
            List.iter (fun (_, renv) -> out := Alg_env.concat lenv renv :: !out) rrun)
          lrun;
        merge lrest rrest
    in
    merge ls rs;
    seq_of_list (List.rev !out)
  | Alg_plan.Dep_join { left; label = _; expand } ->
    Seq.concat_map
      (fun lenv -> Seq.map (fun renv -> Alg_env.concat lenv renv) (expand lenv))
      (run sources left)
  | Alg_plan.Sort (input, specs) ->
    let envs = List.of_seq (run sources input) in
    seq_of_list (Alg_ops.sort_list specs envs)
  | Alg_plan.Distinct input ->
    let seen : (int, Alg_env.t) Hashtbl.t = Hashtbl.create (table_size input) in
    Seq.filter
      (fun env ->
        let key = Alg_env.hash env in
        if List.exists (Alg_env.equal env) (Hashtbl.find_all seen key) then false
        else begin
          Hashtbl.add seen key env;
          true
        end)
      (run sources input)
  | Alg_plan.Group { input; keys; aggs } ->
    let envs = List.of_seq (run sources input) in
    seq_of_list (Alg_ops.group_rows ~size_hint:(table_size input) keys aggs envs)
  | Alg_plan.Union (a, b) -> Seq.append (run sources a) (run sources b)
  | Alg_plan.Outer_union (a, b) ->
    (* Materialize both sides to compute the union schema, then pad. *)
    let la = List.of_seq (run sources a) in
    let lb = List.of_seq (run sources b) in
    let vars = Alg_ops.union_vars (la @ lb) in
    seq_of_list (List.map (fun env -> Alg_env.project env vars) (la @ lb))
  | Alg_plan.Navigate { input; var; path; out } ->
    Seq.concat_map
      (fun env ->
        match Alg_env.get env var with
        | None -> Seq.empty
        | Some (Dtree.Atom _) -> Seq.empty
        | Some tree ->
          let matches, how = Alg_ops.navigate_matches tree path in
          on_idx plan how;
          seq_of_list (List.map (fun m -> Alg_env.bind env out m) matches))
      (run sources input)
  | Alg_plan.Unnest { input; var; label; out } ->
    Seq.concat_map
      (fun env ->
        match Alg_env.get env var with
        | None -> Seq.empty
        | Some tree ->
          let kids =
            match label with
            | Some l -> Dtree.kids_named tree l
            | None -> Dtree.kids tree
          in
          seq_of_list (List.map (fun k -> Alg_env.bind env out k) kids))
      (run sources input)
  | Alg_plan.Construct { input; binding; template } ->
    Seq.map
      (fun env -> Alg_env.bind env binding (build_template env template))
      (run sources input)
  | Alg_plan.Limit (input, n) -> Seq.take n (run sources input)
  in
  hook plan seq

let no_hook _ seq = seq

let run sources plan = run_hooked no_hook sources plan

let run_list sources plan = List.of_seq (run sources plan)

(* Wrap a source function so unavailable sources contribute no rows and
   are recorded instead of failing (section 3.4).  Scans are forced
   eagerly so unavailability surfaces here, in both engines. *)
let partial_guard skipped sources source binding =
  try seq_of_list (List.of_seq (sources source binding))
  with Source_unavailable name ->
    if not (List.mem name !skipped) then skipped := name :: !skipped;
    Seq.empty

let run_partial sources plan =
  let skipped = ref [] in
  let envs = run_list (partial_guard skipped sources) plan in
  (envs, List.rev !skipped)

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

let default_chunk = 1024

type mode =
  | Tuple
  | Parallel of { domains : int; chunk : int }

let mode_to_string = function
  | Tuple -> "tuple"
  | Parallel { domains; chunk } ->
    if chunk = default_chunk then Printf.sprintf "parallel(domains=%d)" domains
    else Printf.sprintf "parallel(domains=%d,chunk=%d)" domains chunk

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tuple" -> Some Tuple
  | "parallel" -> Some (Parallel { domains = Alg_par.default_domains (); chunk = default_chunk })
  | _ -> None

(* Morsel-driven parallel execution (Alg_par wired to this engine). *)
let run_parallel ?domains ?(chunk = default_chunk) ?cost_rows sources plan =
  Alg_par.run ?domains ~chunk ?cost_rows ~sources
    ~fallback:(fun p -> run sources p)
    ~template:build_template plan

let run_mode ?cost_rows mode sources plan =
  match mode with
  | Tuple -> run_list sources plan
  | Parallel { domains; chunk } -> fst (run_parallel ~domains ~chunk ?cost_rows sources plan)

let run_partial_mode ?cost_rows mode sources plan =
  let skipped = ref [] in
  let envs = run_mode ?cost_rows mode (partial_guard skipped sources) plan in
  (envs, List.rev !skipped)

(* Scan resolution against a prefetched buffer: scatter-gather fetches
   every access up front, and scans then pull from the buffer instead of
   the wire.  Buffered failures re-raise here — at pull time — so
   strict/partial semantics (and skipped-source recording) are exactly
   those of sequential execution. *)
let buffered lookup fallback : source_fn =
 fun access_id binding ->
  match lookup access_id with
  | Some (Ok envs) -> seq_of_list envs
  | Some (Error e) -> raise e
  | None -> fallback access_id binding

let of_tuples binding rows =
  seq_of_list
    (List.map
       (fun row -> Alg_env.of_bindings [ (binding, Dtree.of_tuple binding row) ])
       rows)

(* ------------------------------------------------------------------ *)
(* Instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

(* Wrap a sequence so every pull charges inclusive wall time to [st] and
   every element bumps its row count. *)
let counted (st : Alg_ops.op_stats) seq =
  let rec aux s () =
    st.op_pulled <- true;
    let t0 = Obs_clock.wall_ms () in
    let node = s () in
    st.op_ms <- st.op_ms +. (Obs_clock.wall_ms () -. t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
      st.op_rows <- st.op_rows + 1;
      Seq.Cons (x, aux rest)
  in
  aux seq

let run_instrumented sources plan =
  let root = Alg_ops.make_stats plan in
  let index = Alg_ops.index root in
  let hook p seq =
    match Alg_ops.find index p with
    | Some st -> counted st seq
    | None -> seq
  in
  let on_idx p how = Option.iter (fun st -> Alg_ops.count_idx st how) (Alg_ops.find index p) in
  let envs = List.of_seq (run_hooked ~on_idx hook sources plan) in
  (envs, root)
