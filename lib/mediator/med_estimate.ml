(* Cardinality estimation over the statistics catalog.

   This is the single entry point behind every row-count guess the
   planner makes (the three scattered [Alg_cost.default_scan_rows]
   fallbacks of the pre-optimizer planner).  The resolution order is:

   1. exact execution feedback for the access (most specific, measured);
   2. statistics-based estimation: table row counts scaled by the
      selectivity of the shipped WHERE clause, using histograms and
      distinct counts from [Med_stats];
   3. the flat [Alg_cost.default_scan_rows] guess.

   Estimation never raises: unknown columns and un-analyzed tables fall
   back to the same heuristic constants [Alg_cost.selectivity] uses for
   client-side predicates, so plans degrade to the old behavior. *)

let default_rows = Alg_cost.default_scan_rows

type tbl = {
  t_alias : string option;
  t_export : string;
  t_stats : Med_stats.table_stats;
}

let has_column ts name = List.mem_assoc name ts.Med_stats.ts_cols

(* Resolve a SQL column reference against the FROM tables: an explicit
   qualifier matches the alias or the export name; unqualified columns
   bind to the first table that has them (the sqlgen never emits
   ambiguous unqualified columns). *)
let resolve_col tables (qual, name) =
  match qual with
  | Some q ->
    List.find_opt (fun t -> t.t_alias = Some q || String.equal t.t_export q) tables
    |> Option.map (fun t -> (t.t_stats, name))
  | None ->
    List.find_opt (fun t -> has_column t.t_stats name) tables
    |> Option.map (fun t -> (t.t_stats, name))

let null_fraction ts name =
  match List.assoc_opt name ts.Med_stats.ts_cols with
  | Some cs when ts.Med_stats.ts_rows > 0 ->
    Some (float_of_int cs.Med_stats.cs_nulls /. float_of_int ts.Med_stats.ts_rows)
  | _ -> None

let flip = function `Lt -> `Gt | `Le -> `Ge | `Gt -> `Lt | `Ge -> `Le

let cmp_op_of = function
  | Sql_ast.Lt -> Some `Lt
  | Sql_ast.Le -> Some `Le
  | Sql_ast.Gt -> Some `Gt
  | Sql_ast.Ge -> Some `Ge
  | _ -> None

(* Selectivity of a WHERE expression.  Statistics where we have them,
   [Alg_cost]-style constants where we do not. *)
let rec selectivity tables expr =
  let default_for = function
    | Sql_ast.Binop (Sql_ast.Eq, _, _) -> 0.05
    | Sql_ast.Binop ((Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), _, _) -> 0.3
    | Sql_ast.Binop (Sql_ast.Neq, _, _) -> 0.9
    | Sql_ast.Like _ -> 0.25
    | Sql_ast.Between _ -> 0.3
    | Sql_ast.Is_null _ -> 0.1
    | Sql_ast.Is_not_null _ -> 0.9
    | _ -> 0.5
  in
  match expr with
  | Sql_ast.Binop (Sql_ast.And, a, b) -> selectivity tables a *. selectivity tables b
  | Sql_ast.Binop (Sql_ast.Or, a, b) ->
    let sa = selectivity tables a and sb = selectivity tables b in
    min 1.0 (sa +. sb -. (sa *. sb))
  | Sql_ast.Unop (Sql_ast.Not, e) -> max 0.0 (1.0 -. selectivity tables e)
  | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (q, c), Sql_ast.Lit v)
  | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Lit v, Sql_ast.Col (q, c)) -> (
    match resolve_col tables (q, c) with
    | Some (ts, name) ->
      Option.value ~default:(default_for expr) (Med_stats.eq_fraction ts name v)
    | None -> default_for expr)
  | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col (ql, cl), Sql_ast.Col (qr, cr)) -> (
    (* Column-column equality: the join-edge case.  1 / max(distinct)
       when both sides are known; the flat hash-join guess otherwise. *)
    match (resolve_col tables (ql, cl), resolve_col tables (qr, cr)) with
    | Some (tl, nl), Some (tr, nr) -> (
      match (Med_stats.distinct_of tl nl, Med_stats.distinct_of tr nr) with
      | Some dl, Some dr -> 1.0 /. float_of_int (max 1 (max dl dr))
      | _ -> 0.05)
    | _ -> 0.05)
  | Sql_ast.Binop (op, Sql_ast.Col (q, c), Sql_ast.Lit v) when cmp_op_of op <> None -> (
    let cmp = Option.get (cmp_op_of op) in
    match resolve_col tables (q, c) with
    | Some (ts, name) ->
      Option.value ~default:(default_for expr) (Med_stats.cmp_fraction ts name cmp v)
    | None -> default_for expr)
  | Sql_ast.Binop (op, Sql_ast.Lit v, Sql_ast.Col (q, c)) when cmp_op_of op <> None -> (
    let cmp = flip (Option.get (cmp_op_of op)) in
    match resolve_col tables (q, c) with
    | Some (ts, name) ->
      Option.value ~default:(default_for expr) (Med_stats.cmp_fraction ts name cmp v)
    | None -> default_for expr)
  | Sql_ast.In_list (Sql_ast.Col (q, c), items) -> (
    match resolve_col tables (q, c) with
    | Some (ts, name) ->
      let fractions =
        List.map
          (function
            | Sql_ast.Lit v ->
              Option.value ~default:0.05 (Med_stats.eq_fraction ts name v)
            | _ -> 0.05)
          items
      in
      min 1.0 (List.fold_left ( +. ) 0.0 fractions)
    | None -> min 1.0 (0.05 *. float_of_int (List.length items)))
  | Sql_ast.Between (Sql_ast.Col (q, c), Sql_ast.Lit lo, Sql_ast.Lit hi) -> (
    match resolve_col tables (q, c) with
    | Some (ts, name) -> (
      match
        (Med_stats.cmp_fraction ts name `Le hi, Med_stats.cmp_fraction ts name `Lt lo)
      with
      | Some below_hi, Some below_lo -> max 0.0 (below_hi -. below_lo)
      | _ -> default_for expr)
    | None -> default_for expr)
  | Sql_ast.Is_null (Sql_ast.Col (q, c)) -> (
    match resolve_col tables (q, c) with
    | Some (ts, name) ->
      Option.value ~default:(default_for expr) (null_fraction ts name)
    | None -> default_for expr)
  | Sql_ast.Is_not_null (Sql_ast.Col (q, c)) -> (
    match resolve_col tables (q, c) with
    | Some (ts, name) -> (
      match null_fraction ts name with
      | Some f -> 1.0 -. f
      | None -> default_for expr)
    | None -> default_for expr)
  | Sql_ast.Lit (Value.Bool true) -> 1.0
  | Sql_ast.Lit (Value.Bool false) -> 0.0
  | e -> default_for e

let rec from_tables = function
  | Sql_ast.From_table { table; alias } -> [ (alias, table) ]
  | Sql_ast.From_join (lhs, _, { table; alias }, _) ->
    from_tables lhs @ [ (alias, table) ]

let has_aggregate items =
  List.exists (function Sql_ast.Agg_item _ -> true | _ -> false) items

(* Estimated output rows of a shipped SELECT.  [None] when any FROM
   table lacks statistics — the caller then falls back to feedback or
   the default guess. *)
let select_rows stats ~source (sel : Sql_ast.select) =
  match sel.Sql_ast.from with
  | None -> Some 1.0
  | Some from ->
    let refs = from_tables from in
    let resolved =
      List.map
        (fun (alias, export) ->
          Option.map
            (fun ts -> { t_alias = alias; t_export = export; t_stats = ts })
            (Med_stats.find stats ~source ~export))
        refs
    in
    if List.exists Option.is_none resolved then None
    else begin
      let tables = List.map Option.get resolved in
      let base =
        List.fold_left
          (fun acc t -> acc *. float_of_int t.t_stats.Med_stats.ts_rows)
          1.0 tables
      in
      (* ON conditions of explicit JOINs filter like WHERE conjuncts. *)
      let rec on_selectivity = function
        | Sql_ast.From_table _ -> 1.0
        | Sql_ast.From_join (lhs, _, _, on) ->
          on_selectivity lhs *. selectivity tables on
      in
      let where_sel =
        match sel.Sql_ast.where with
        | None -> 1.0
        | Some e -> selectivity tables e
      in
      let rows = base *. on_selectivity from *. where_sel in
      let rows =
        if sel.Sql_ast.group_by <> [] then max 1.0 (rows *. 0.2)
        else if has_aggregate sel.Sql_ast.items then 1.0
        else rows
      in
      let rows =
        match sel.Sql_ast.limit with
        | Some n -> min rows (float_of_int n)
        | None -> rows
      in
      Some rows
    end

let table_rows stats ~source ~export =
  Option.map
    (fun ts -> float_of_int ts.Med_stats.ts_rows)
    (Med_stats.find stats ~source ~export)

(* Index-backed path cardinality: when the document's structural guide
   is already built, it answers the match count of an indexable path
   exactly (and value indexes refine predicate paths).  Consults only
   built indexes — estimation never triggers index construction. *)
let path_rows ~source ~export path =
  Idx_manager.estimate (Xml_source.idx_name source export) path

let column_distinct stats ~source ~export ~column =
  match Med_stats.find stats ~source ~export with
  | None -> None
  | Some ts -> Med_stats.distinct_of ts column
