exception Exec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Plan execution over positional rows                                 *)
(* ------------------------------------------------------------------ *)

(* A plan node yields its layout (alias-qualified field names) and its
   rows, which are the tables' stored arrays or joins of them; no named
   tuple is built below the projection. *)

(* The layout of [Tuple.concat l r] over rows laid out as [l] and [r]:
   left wins on a repeated name.  Returns the layout, the row joiner
   and the number of right fields kept (the width of LEFT OUTER
   padding). *)
let joiner l r =
  let keep =
    Array.of_list
      (List.filter (fun i -> not (Array.mem r.(i) l)) (List.init (Array.length r) Fun.id))
  in
  let join =
    if Array.length keep = Array.length r then Array.append
    else fun lrow rrow -> Array.append lrow (Array.map (fun i -> rrow.(i)) keep)
  in
  (Array.append l (Array.map (fun i -> r.(i)) keep), join, Array.length keep)

let compile_filter layout = function
  | None -> fun _ -> true
  | Some e -> Sql_eval.compile_pred layout e

(* Each left row's matches in order; LEFT OUTER keeps an unmatched left
   row with a NULL tail for the right side's fields. *)
let join_rows kind pad lrows matches_of =
  List.concat_map
    (fun lrow ->
      match matches_of lrow, kind with
      | [], Sql_ast.Left_outer -> [ Array.append lrow (Array.make pad Value.Null) ]
      | matches, _ -> matches)
    lrows

let rec run_plan catalog plan =
  match plan with
  | Sql_plan.Scan { table; binding; access; filter; est = _ } ->
    let t =
      match catalog.Sql_plan.table_of table with
      | Some t -> t
      | None -> fail "unknown table %s" table
    in
    let layout = Array.map (fun c -> binding ^ "." ^ c) (Rel_table.columns t) in
    let keep = compile_filter layout filter in
    let rows =
      match access with
      | Sql_plan.Seq_scan when filter = None -> Rel_table.rows t
      | Sql_plan.Seq_scan ->
        let out = ref [] in
        Rel_table.iter_rows t (fun _ row -> if keep row then out := row :: !out);
        List.rev !out
      | Sql_plan.Index_eq (cname, v) -> List.filter keep (Rel_table.lookup_eq_rows t cname v)
      | Sql_plan.Index_range (cname, lo, hi) ->
        List.filter keep (Rel_table.lookup_range_rows t cname ?lo ?hi ())
    in
    (layout, rows)
  | Sql_plan.Nl_join { left; right; kind; cond; est = _ } ->
    let llayout, lrows = run_plan catalog left in
    let rlayout, rrows = run_plan catalog right in
    let layout, join, pad = joiner llayout rlayout in
    let matches = compile_filter layout cond in
    let rows =
      join_rows kind pad lrows (fun lrow ->
          List.filter_map
            (fun rrow ->
              let joined = join lrow rrow in
              if matches joined then Some joined else None)
            rrows)
    in
    (layout, rows)
  | Sql_plan.Hash_join { left; right; kind; left_key; right_key; residual; est = _ } ->
    let llayout, lrows = run_plan catalog left in
    let rlayout, rrows = run_plan catalog right in
    let layout, join, pad = joiner llayout rlayout in
    let lkey = Sql_eval.compile llayout left_key in
    let rkey = Sql_eval.compile rlayout right_key in
    let matches = compile_filter layout residual in
    (* Build on the right side, probe from the left, preserving left
       order (needed for LEFT OUTER semantics). *)
    let index : (Value.t, Value.t array list) Hashtbl.t = Hashtbl.create (List.length rrows) in
    List.iter
      (fun rrow ->
        match rkey rrow with
        | Value.Null -> () (* NULL keys never join *)
        | k ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt index k) in
          Hashtbl.replace index k (rrow :: existing))
      (List.rev rrows);
    let rows =
      join_rows kind pad lrows (fun lrow ->
          match lkey lrow with
          | Value.Null -> []
          | k ->
            Option.value ~default:[] (Hashtbl.find_opt index k)
            |> List.filter_map (fun rrow ->
                   let joined = join lrow rrow in
                   if matches joined then Some joined else None))
    in
    (layout, rows)
  | Sql_plan.Filter { input; pred; est = _ } ->
    let layout, rows = run_plan catalog input in
    (layout, List.filter (Sql_eval.compile_pred layout pred) rows)

(* ------------------------------------------------------------------ *)
(* Projection helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec from_aliases = function
  | Sql_ast.From_table { table; alias } -> [ (Option.value ~default:table alias, table) ]
  | Sql_ast.From_join (lhs, _, { table; alias }, _) ->
    from_aliases lhs @ [ (Option.value ~default:table alias, table) ]

let alias_columns catalog (alias, table) =
  match catalog.Sql_plan.table_of table with
  | None -> fail "unknown table %s" table
  | Some t -> List.map (fun c -> (alias, c.Dschema.col_name)) (Rel_table.schema t).Dschema.columns

(* Expand stars into qualified column refs; compute output names. *)
let expand_items catalog (s : Sql_ast.select) =
  let aliases = match s.Sql_ast.from with Some f -> from_aliases f | None -> [] in
  let all_cols = List.concat_map (alias_columns catalog) aliases in
  let bare_unique n = List.length (List.filter (fun (_, c) -> c = n) all_cols) = 1 in
  let expand = function
    | Sql_ast.Star ->
      List.map
        (fun (a, c) ->
          let name = if bare_unique c then c else a ^ "." ^ c in
          `Expr (Sql_ast.Col (Some a, c), name))
        all_cols
    | Sql_ast.Qualified_star q ->
      let cols = List.filter (fun (a, _) -> a = q) all_cols in
      if cols = [] then fail "unknown alias %s.*" q;
      List.map
        (fun (a, c) ->
          let name = if bare_unique c then c else a ^ "." ^ c in
          `Expr (Sql_ast.Col (Some a, c), name))
        cols
    | Sql_ast.Expr_item (e, alias) ->
      let name =
        match alias, e with
        | Some a, _ -> a
        | None, Sql_ast.Col (_, n) -> n
        | None, e -> Sql_print.expr_to_string e
      in
      [ `Expr (e, name) ]
    | Sql_ast.Agg_item (fn, arg, alias) ->
      let name =
        match alias with
        | Some a -> a
        | None -> (
          match fn, arg with
          | Sql_ast.Count_star, _ -> "count"
          | _, Some e ->
            String.lowercase_ascii (Sql_ast.agg_fn_name fn) ^ "_" ^ Sql_print.expr_to_string e
          | _, None -> String.lowercase_ascii (Sql_ast.agg_fn_name fn))
      in
      [ `Agg (fn, arg, name) ]
  in
  let items = List.concat_map expand s.Sql_ast.items in
  (* Disambiguate duplicate output names: qualified columns fall back to
     their alias-qualified name, anything else gets a numeric suffix. *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun item ->
      let name = match item with `Expr (_, n) | `Agg (_, _, n) -> n in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    items;
  let seen = Hashtbl.create 8 in
  List.map
    (fun item ->
      let name = match item with `Expr (_, n) | `Agg (_, _, n) -> n in
      if Option.value ~default:0 (Hashtbl.find_opt counts name) <= 1 then item
      else begin
        let occurrence = 1 + Option.value ~default:0 (Hashtbl.find_opt seen name) in
        Hashtbl.replace seen name occurrence;
        let fresh =
          match item with
          | `Expr (Sql_ast.Col (Some a, n), _) -> a ^ "." ^ n
          | _ -> Printf.sprintf "%s_%d" name occurrence
        in
        match item with
        | `Expr (e, _) -> `Expr (e, fresh)
        | `Agg (fn, arg, _) -> `Agg (fn, arg, fresh)
      end)
    items

let item_name = function `Expr (_, n) | `Agg (_, _, n) -> n

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type agg_state = {
  mutable count : int;          (* non-null inputs *)
  mutable count_all : int;      (* all rows *)
  mutable sum : Value.t;
  mutable vmin : Value.t option;
  mutable vmax : Value.t option;
}

let new_agg_state () =
  { count = 0; count_all = 0; sum = Value.Int 0; vmin = None; vmax = None }

let agg_feed st v =
  st.count_all <- st.count_all + 1;
  match v with
  | Value.Null -> ()
  | v ->
    st.count <- st.count + 1;
    (match v with
    | Value.Int _ | Value.Float _ -> st.sum <- Value.add st.sum v
    | _ -> ());
    (match st.vmin with
    | None -> st.vmin <- Some v
    | Some m -> if Value.compare v m < 0 then st.vmin <- Some v);
    match st.vmax with
    | None -> st.vmax <- Some v
    | Some m -> if Value.compare v m > 0 then st.vmax <- Some v

let agg_result fn st =
  match fn with
  | Sql_ast.Count_star -> Value.Int st.count_all
  | Sql_ast.Count -> Value.Int st.count
  | Sql_ast.Sum -> if st.count = 0 then Value.Null else st.sum
  | Sql_ast.Avg ->
    if st.count = 0 then Value.Null
    else begin
      match Value.to_float st.sum with
      | Some total -> Value.Float (total /. float_of_int st.count)
      | None -> Value.Null
    end
  | Sql_ast.Min -> Option.value ~default:Value.Null st.vmin
  | Sql_ast.Max -> Option.value ~default:Value.Null st.vmax

let has_agg items =
  List.exists (function `Agg _ -> true | `Expr _ -> false) items

(* Output rows to be ordered travel as (named tuple, values) pairs: the
   tuple is the result, the values feed ORDER BY's compiled keys. *)
let output_row names vals = (Tuple.of_arrays names vals, vals)

let run_grouped (s : Sql_ast.select) items names layout rows =
  let key_of =
    let keys = List.map (Sql_eval.compile layout) s.Sql_ast.group_by in
    fun row -> List.map (fun k -> k row) keys
  in
  (* Group key: evaluated group-by expressions (one group when absent). *)
  let groups : (Value.t list, Value.t array list ref) Hashtbl.t = Hashtbl.create 16 in
  let order : Value.t list list ref = ref [] in
  List.iter
    (fun row ->
      let key = key_of row in
      match Hashtbl.find_opt groups key with
      | Some bucket -> bucket := row :: !bucket
      | None ->
        Hashtbl.add groups key (ref [ row ]);
        order := key :: !order)
    rows;
  let keys = List.rev !order in
  let keys = if keys = [] && s.Sql_ast.group_by = [] then [ [] ] else keys in
  (* Non-aggregate items read the group's first row, and HAVING reads the
     output row extended with it.  A global aggregate over no rows has
     no first row: there both read an empty layout. *)
  let against rep_layout =
    let cat_layout, cat, _ = joiner names rep_layout in
    let cells =
      List.map
        (function
          | `Expr (e, _) -> `Expr (Sql_eval.compile rep_layout e)
          | `Agg (fn, arg, _) -> `Agg (fn, Option.map (Sql_eval.compile layout) arg))
        items
    in
    let having = Option.map (Sql_eval.compile_pred cat_layout) s.Sql_ast.having in
    (cells, cat, having)
  in
  let with_rows = lazy (against layout) and without_rows = lazy (against [||]) in
  List.filter_map
    (fun key ->
      let bucket =
        match Hashtbl.find_opt groups key with
        | Some b -> List.rev !b
        | None -> []
      in
      let representative, (cells, cat, having) =
        match bucket with
        | r :: _ -> (r, Lazy.force with_rows)
        | [] -> ([||], Lazy.force without_rows)
      in
      let vals =
        Array.of_list
          (List.map
             (function
               | `Expr c ->
                 (* Must be a group-by expression (or constant over group). *)
                 c representative
               | `Agg (fn, arg) ->
                 let st = new_agg_state () in
                 List.iter
                   (fun row ->
                     agg_feed st (match arg with Some c -> c row | None -> Value.Int 1))
                   bucket;
                 agg_result fn st)
             cells)
      in
      let out = output_row names vals in
      match having with
      | Some h ->
        (* HAVING sees the select list's aliases first, then the group's
           first row. *)
        if h (cat vals representative) then Some out else None
      | None -> Some out)
    keys

(* ------------------------------------------------------------------ *)
(* Ordering, distinct, limit                                           *)
(* ------------------------------------------------------------------ *)

(* [pres] are the rows each output row was projected from, laid out as
   [pre_layout].  A key is evaluated over the output row, and over the
   output row extended with its source row when that fails. *)
let order_rows (s : Sql_ast.select) names outs (pre_layout, pres) =
  match s.Sql_ast.order_by with
  | [] -> List.map fst outs
  | specs ->
    let cat_layout, cat, _ = joiner names pre_layout in
    let keys =
      List.map
        (fun { Sql_ast.order_expr; _ } ->
          let on_out = Sql_eval.compile names order_expr in
          let on_both = Sql_eval.compile cat_layout order_expr in
          fun (pre, vals) ->
            try on_out vals with Sql_eval.Eval_error _ -> on_both (cat vals pre))
        specs
    in
    let cmp (ka, _) (kb, _) =
      let rec go ks specs =
        match ks, specs with
        | [], _ | _, [] -> 0
        | (a, b) :: rest, { Sql_ast.ascending; _ } :: srest ->
          let c = Value.compare a b in
          if c <> 0 then if ascending then c else -c else go rest srest
      in
      go (List.combine ka kb) specs
    in
    let keyed =
      List.map2
        (fun pre ((_, vals) as out) -> (List.map (fun k -> k (pre, vals)) keys, out))
        pres outs
    in
    List.map (fun (_, (out, _)) -> out) (List.stable_sort cmp keyed)

let distinct_rows rows =
  (* Bucket by hash, compare with typed equality: rendered text would
     merge values of different types that print alike. *)
  let seen : (int, Tuple.t list) Hashtbl.t = Hashtbl.create 64 in
  List.filter
    (fun row ->
      let h = Tuple.hash row in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt seen h) in
      if List.exists (Tuple.equal row) bucket then false
      else begin
        Hashtbl.replace seen h (row :: bucket);
        true
      end)
    rows

let limit_rows n rows =
  match n with
  | None -> rows
  | Some n ->
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take n rows

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let run_select catalog (s : Sql_ast.select) =
  let items = expand_items catalog s in
  let names = Array.of_list (List.map item_name items) in
  let layout, base_rows =
    match Sql_plan.plan_select catalog s with
    | None -> ([||], [ [||] ])
    | Some plan -> run_plan catalog plan
  in
  let outs =
    if has_agg items || s.Sql_ast.group_by <> [] then
      let outs = run_grouped s items names layout base_rows in
      order_rows s names outs (names, List.map snd outs)
    else begin
      let cells =
        Array.of_list
          (List.map
             (function
               | `Expr (e, _) -> Sql_eval.compile layout e
               | `Agg _ -> assert false)
             items)
      in
      let project row = Array.map (fun c -> c row) cells in
      if s.Sql_ast.order_by = [] then
        List.map (fun row -> Tuple.of_arrays names (project row)) base_rows
      else
        let outs = List.map (fun row -> output_row names (project row)) base_rows in
        order_rows s names outs (layout, base_rows)
    end
  in
  let outs = if s.Sql_ast.distinct then distinct_rows outs else outs in
  (Array.to_list names, limit_rows s.Sql_ast.limit outs)
