type catalog = {
  table_of : string -> Rel_table.t option;
}

type access =
  | Seq_scan
  | Index_eq of string * Value.t
  | Index_range of string * (Value.t * bool) option * (Value.t * bool) option

type plan =
  | Scan of {
      table : string;
      binding : string;
      access : access;
      filter : Sql_ast.expr option;
      est : float;
    }
  | Nl_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      cond : Sql_ast.expr option;
      est : float;
    }
  | Hash_join of {
      left : plan;
      right : plan;
      kind : Sql_ast.join_kind;
      left_key : Sql_ast.expr;
      right_key : Sql_ast.expr;
      residual : Sql_ast.expr option;
      est : float;
    }
  | Filter of { input : plan; pred : Sql_ast.expr; est : float }

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Plan_error m)) fmt

let estimated_rows = function
  | Scan { est; _ } | Nl_join { est; _ } | Hash_join { est; _ } | Filter { est; _ } -> est

let rec bindings_of_plan = function
  | Scan { binding; _ } -> [ binding ]
  | Nl_join { left; right; _ } | Hash_join { left; right; _ } ->
    bindings_of_plan left @ bindings_of_plan right
  | Filter { input; _ } -> bindings_of_plan input

(* ------------------------------------------------------------------ *)
(* Selectivity heuristics                                              *)
(* ------------------------------------------------------------------ *)

let rec selectivity = function
  | Sql_ast.Binop (Sql_ast.Eq, _, _) -> 0.05
  | Sql_ast.Binop ((Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), _, _) -> 0.3
  | Sql_ast.Binop (Sql_ast.Neq, _, _) -> 0.9
  | Sql_ast.Binop (Sql_ast.And, a, b) -> selectivity a *. selectivity b
  | Sql_ast.Binop (Sql_ast.Or, a, b) ->
    min 1.0 (selectivity a +. selectivity b)
  | Sql_ast.Like _ -> 0.25
  | Sql_ast.Between _ -> 0.25
  | Sql_ast.In_list (_, es) -> min 1.0 (0.05 *. float_of_int (List.length es))
  | Sql_ast.Is_null _ -> 0.1
  | Sql_ast.Is_not_null _ -> 0.9
  | Sql_ast.Unop (Sql_ast.Not, e) -> 1.0 -. selectivity e
  | Sql_ast.Lit (Value.Bool true) -> 1.0
  | Sql_ast.Lit (Value.Bool false) -> 0.0
  | _ -> 0.5

(* ------------------------------------------------------------------ *)
(* Alias analysis                                                      *)
(* ------------------------------------------------------------------ *)

type from_entry = {
  fe_table : string;
  fe_alias : string;
  (* ON condition attached to the join that introduced this entry, along
     with its kind; the first entry has none. *)
  fe_join : (Sql_ast.join_kind * Sql_ast.expr) option;
}

let rec flatten_from = function
  | Sql_ast.From_table { table; alias } ->
    [ { fe_table = table; fe_alias = Option.value ~default:table alias; fe_join = None } ]
  | Sql_ast.From_join (lhs, kind, { table; alias }, cond) ->
    flatten_from lhs
    @ [
        {
          fe_table = table;
          fe_alias = Option.value ~default:table alias;
          fe_join = Some (kind, cond);
        };
      ]

(* The set of aliases a predicate mentions.  Unqualified columns are
   attributed by searching the table schemas. *)
let aliases_of_expr entries catalog e =
  let owner_of_column name =
    let owners =
      List.filter
        (fun fe ->
          match catalog.table_of fe.fe_table with
          | Some t -> Dschema.find_column (Rel_table.schema t) name <> None
          | None -> false)
        entries
    in
    List.map (fun fe -> fe.fe_alias) owners
  in
  let cols = Sql_ast.expr_columns e in
  List.concat_map
    (fun (q, n) ->
      match q with
      | Some q -> [ q ]
      | None -> owner_of_column n)
    cols
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Access-path selection                                               *)
(* ------------------------------------------------------------------ *)

let column_literal table ~alias e =
  let owns name = Dschema.find_column (Rel_table.schema table) name <> None in
  let col_of = function
    | Sql_ast.Col (Some q, n) when String.equal q alias && owns n -> Some n
    | Sql_ast.Col (None, n) when owns n -> Some n
    | _ -> None
  in
  match e with
  (* A comparison with NULL is UNKNOWN on every row, which no index key
     lookup reproduces: it stays a filter. *)
  | Sql_ast.Binop (_, _, Sql_ast.Lit Value.Null) | Sql_ast.Binop (_, Sql_ast.Lit Value.Null, _) -> None
  | Sql_ast.Binop (op, lhs, Sql_ast.Lit v) -> (
    match col_of lhs with
    | Some n -> Some (n, op, v)
    | None -> None)
  | Sql_ast.Binop (op, Sql_ast.Lit v, rhs) -> (
    match col_of rhs with
    | Some n ->
      let flip =
        match op with
        | Sql_ast.Lt -> Sql_ast.Gt
        | Sql_ast.Le -> Sql_ast.Ge
        | Sql_ast.Gt -> Sql_ast.Lt
        | Sql_ast.Ge -> Sql_ast.Le
        | op -> op
      in
      Some (n, flip, v)
    | None -> None)
  | _ -> None

(* Choose the best access path for a table given its single-table
   conjuncts.  Returns (access, used conjuncts, leftover conjuncts). *)
let choose_access table alias conjuncts =
  (* Equality on an indexed column wins. *)
  let classified =
    List.map (fun e -> (e, column_literal table ~alias e)) conjuncts
  in
  let eq_pick =
    List.find_opt
      (fun (_, m) ->
        match m with
        | Some (n, Sql_ast.Eq, _) -> Rel_table.index_served table n `Eq
        | _ -> false)
      classified
  in
  match eq_pick with
  | Some ((used, Some (n, _, v)) : Sql_ast.expr * _) ->
    let rest = List.filter (fun e -> e != used) conjuncts in
    (Index_eq (n, v), rest)
  | _ -> (
    (* Collect range bounds per B+tree-indexed column. *)
    let range_cols =
      List.filter_map
        (fun (e, m) ->
          match m with
          | Some (n, (Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), _)
            when Rel_table.index_served table n `Range -> Some (e, Option.get m)
          | _ -> None)
        classified
    in
    match range_cols with
    | [] -> (Seq_scan, conjuncts)
    | (_, (first_col, _, _)) :: _ ->
      let on_col = List.filter (fun (_, (n, _, _)) -> String.equal n first_col) range_cols in
      (* The last bound on each side serves the range; any other bound
         on that side stays in the filter. *)
      let lo = ref None and hi = ref None in
      List.iter
        (fun (e, (_, op, v)) ->
          match op with
          | Sql_ast.Gt -> lo := Some (e, (v, false))
          | Sql_ast.Ge -> lo := Some (e, (v, true))
          | Sql_ast.Lt -> hi := Some (e, (v, false))
          | Sql_ast.Le -> hi := Some (e, (v, true))
          | _ -> ())
        on_col;
      let used = List.filter_map (Option.map fst) [ !lo; !hi ] in
      let rest = List.filter (fun e -> not (List.memq e used)) conjuncts in
      (Index_range (first_col, Option.map snd !lo, Option.map snd !hi), rest))

let access_est table access =
  let n = float_of_int (Rel_table.row_count table) in
  match access with
  | Seq_scan -> n
  | Index_eq _ -> max 1.0 (n *. 0.01)
  | Index_range _ -> max 1.0 (n *. 0.3)

let scan_plan catalog fe conjuncts =
  match catalog.table_of fe.fe_table with
  | None -> fail "unknown table %s" fe.fe_table
  | Some table ->
    let access, rest = choose_access table fe.fe_alias conjuncts in
    let filter = Sql_ast.conjoin rest in
    let est =
      access_est table access
      *. (match filter with Some f -> selectivity f | None -> 1.0)
    in
    Scan { table = fe.fe_table; binding = fe.fe_alias; access; filter; est = max 1.0 est }

(* ------------------------------------------------------------------ *)
(* Join planning                                                       *)
(* ------------------------------------------------------------------ *)

(* Try to split [cond] into an equi-join key pair between [left_aliases]
   and [right_aliases], plus a residual. *)
let equi_split entries catalog left_aliases right_aliases cond =
  let conjuncts = Sql_ast.conjuncts cond in
  let is_key_pair e =
    match e with
    | Sql_ast.Binop (Sql_ast.Eq, a, b) -> (
      let aa = aliases_of_expr entries catalog a in
      let ab = aliases_of_expr entries catalog b in
      let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
      if aa <> [] && ab <> [] then
        if subset aa left_aliases && subset ab right_aliases then Some (a, b)
        else if subset aa right_aliases && subset ab left_aliases then Some (b, a)
        else None
      else None)
    | _ -> None
  in
  let rec pick acc = function
    | [] -> None
    | e :: rest -> (
      match is_key_pair e with
      | Some (lk, rk) -> Some (lk, rk, Sql_ast.conjoin (List.rev_append acc rest))
      | None -> pick (e :: acc) rest)
  in
  pick [] conjuncts

let join_est left right cond =
  let l = estimated_rows left and r = estimated_rows right in
  let sel = match cond with Some c -> selectivity c | None -> 1.0 in
  max 1.0 (l *. r *. sel)

let make_join entries catalog kind left right cond =
  let la = bindings_of_plan left and ra = bindings_of_plan right in
  match cond with
  | None -> Nl_join { left; right; kind; cond = None; est = join_est left right None }
  | Some c -> (
    match equi_split entries catalog la ra c with
    | Some (lk, rk, residual) ->
      Hash_join
        { left; right; kind; left_key = lk; right_key = rk; residual;
          est = join_est left right (Some c) }
    | None -> Nl_join { left; right; kind; cond = Some c; est = join_est left right (Some c) })

let plan_select catalog (s : Sql_ast.select) =
  match s.Sql_ast.from with
  | None -> None
  | Some from ->
    let entries = flatten_from from in
    let aliases = List.map (fun fe -> fe.fe_alias) entries in
    let dup =
      List.find_opt
        (fun a -> List.length (List.filter (String.equal a) aliases) > 1)
        aliases
    in
    (match dup with
    | Some a -> fail "duplicate table alias %s" a
    | None -> ());
    let has_outer =
      List.exists
        (fun fe -> match fe.fe_join with Some (Sql_ast.Left_outer, _) -> true | _ -> false)
        entries
    in
    let where_conjuncts =
      match s.Sql_ast.where with Some w -> Sql_ast.conjuncts w | None -> []
    in
    if has_outer then begin
      (* Structural planning: joins in syntactic order, WHERE applied on
         top (outer-join null semantics make pushdown unsafe in general;
         we only push single-table conjuncts into the leftmost table). *)
      let first, rest =
        match entries with
        | first :: rest -> (first, rest)
        | [] -> fail "empty FROM"
      in
      let first_conj, remaining =
        List.partition
          (fun e -> aliases_of_expr entries catalog e = [ first.fe_alias ])
          where_conjuncts
      in
      let base = scan_plan catalog first first_conj in
      let joined =
        List.fold_left
          (fun acc fe ->
            let kind, cond =
              match fe.fe_join with
              | Some (k, c) -> (k, Some c)
              | None -> (Sql_ast.Inner, None)
            in
            let right = scan_plan catalog fe [] in
            make_join entries catalog kind acc right cond)
          base rest
      in
      (* The rest of WHERE filters the joined rows: as part of a join
         condition it would pad rows it should drop. *)
      match Sql_ast.conjoin remaining with
      | None -> Some joined
      | Some pred ->
        Some
          (Filter
             { input = joined; pred; est = max 1.0 (estimated_rows joined *. selectivity pred) })
    end
    else begin
      (* Inner joins only: pool all conjuncts (ON + WHERE) and reorder. *)
      let all_conjuncts =
        where_conjuncts
        @ List.concat_map
            (fun fe ->
              match fe.fe_join with
              | Some (_, c) -> Sql_ast.conjuncts c
              | None -> [])
            entries
      in
      (* Single-table conjuncts go into scans. *)
      let single, multi =
        List.partition
          (fun e ->
            match aliases_of_expr entries catalog e with
            | [ _ ] -> true
            | _ -> false)
          all_conjuncts
      in
      let conj_for alias =
        List.filter (fun e -> aliases_of_expr entries catalog e = [ alias ]) single
      in
      let scans =
        List.map (fun fe -> (fe.fe_alias, scan_plan catalog fe (conj_for fe.fe_alias))) entries
      in
      (* Greedy left-deep join: start with the smallest scan; repeatedly
         join in the relation connected by a predicate (preferring the
         smallest result), falling back to the smallest cross product. *)
      let remaining_preds = ref multi in
      let covered aliases e =
        List.for_all (fun a -> List.mem a aliases) (aliases_of_expr entries catalog e)
      in
      let start =
        List.fold_left
          (fun best (_, p) ->
            match best with
            | None -> Some p
            | Some b -> if estimated_rows p < estimated_rows b then Some p else Some b)
          None scans
      in
      let start = match start with Some p -> p | None -> fail "empty FROM" in
      let start_alias = List.hd (bindings_of_plan start) in
      let pending = ref (List.filter (fun (a, _) -> a <> start_alias) scans) in
      let current = ref start in
      while !pending <> [] do
        let cur_aliases = bindings_of_plan !current in
        (* Candidate next relations with an applicable join predicate. *)
        let candidate_cost (alias, p) =
          let aliases' = alias :: cur_aliases in
          let applicable, _ = List.partition (covered aliases') !remaining_preds in
          let connected = applicable <> [] in
          let cond = Sql_ast.conjoin applicable in
          let est = join_est !current p cond in
          (connected, est, alias, p, applicable)
        in
        let cands = List.map candidate_cost !pending in
        let better (c1, e1, _, _, _) (c2, e2, _, _, _) =
          match c1, c2 with
          | true, false -> true
          | false, true -> false
          | _, _ -> e1 < e2
        in
        let best =
          List.fold_left
            (fun acc cand ->
              match acc with
              | None -> Some cand
              | Some b -> if better cand b then Some cand else acc)
            None cands
        in
        let _, _, alias, p, applicable = Option.get best in
        remaining_preds := List.filter (fun e -> not (List.memq e applicable)) !remaining_preds;
        current := make_join entries catalog Sql_ast.Inner !current p (Sql_ast.conjoin applicable);
        pending := List.filter (fun (a, _) -> a <> alias) !pending
      done;
      (* Any predicate still unapplied (e.g. referencing no alias, or a
         constant) is attached on top. *)
      let leftover = Sql_ast.conjoin !remaining_preds in
      match leftover with
      | None -> Some !current
      | Some residual ->
        Some
          (match !current with
          | Scan sc ->
            let filter =
              match sc.filter with
              | Some f -> Some Sql_ast.(f &&& residual)
              | None -> Some residual
            in
            Scan { sc with filter }
          | Nl_join j ->
            let cond =
              match j.cond with
              | Some c -> Some Sql_ast.(c &&& residual)
              | None -> Some residual
            in
            Nl_join { j with cond }
          | Hash_join j ->
            let residual' =
              match j.residual with
              | Some c -> Some Sql_ast.(c &&& residual)
              | None -> Some residual
            in
            Hash_join { j with residual = residual' }
          | Filter f -> Filter { f with pred = Sql_ast.(f.pred &&& residual) })
    end

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let access_to_string = function
  | Seq_scan -> "seq"
  | Index_eq (c, v) -> Printf.sprintf "index-eq(%s = %s)" c (Value.to_display v)
  | Index_range (c, lo, hi) ->
    let bound label = function
      | None -> ""
      | Some (v, incl) ->
        Printf.sprintf " %s%s %s" label (if incl then "=" else "") (Value.to_display v)
    in
    Printf.sprintf "index-range(%s%s%s)" c (bound ">" lo) (bound "<" hi)

let explain plan =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pad = String.make (indent * 2) ' ' in
    match p with
    | Scan { table; binding; access; filter; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sSCAN %s AS %s [%s]%s (est %.0f)\n" pad table binding
           (access_to_string access)
           (match filter with
           | Some f -> " filter " ^ Sql_print.expr_to_string f
           | None -> "")
           est)
    | Nl_join { left; right; kind; cond; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sNESTED-LOOP %s%s (est %.0f)\n" pad
           (match kind with Sql_ast.Inner -> "INNER" | Sql_ast.Left_outer -> "LEFT")
           (match cond with
           | Some c -> " on " ^ Sql_print.expr_to_string c
           | None -> "")
           est);
      go (indent + 1) left;
      go (indent + 1) right
    | Hash_join { left; right; kind; left_key; right_key; residual; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sHASH-JOIN %s %s = %s%s (est %.0f)\n" pad
           (match kind with Sql_ast.Inner -> "INNER" | Sql_ast.Left_outer -> "LEFT")
           (Sql_print.expr_to_string left_key)
           (Sql_print.expr_to_string right_key)
           (match residual with
           | Some r -> " residual " ^ Sql_print.expr_to_string r
           | None -> "")
           est);
      go (indent + 1) left;
      go (indent + 1) right
    | Filter { input; pred; est } ->
      Buffer.add_string buf
        (Printf.sprintf "%sFILTER %s (est %.0f)\n" pad (Sql_print.expr_to_string pred) est);
      go (indent + 1) input
  in
  go 0 plan;
  Buffer.contents buf
