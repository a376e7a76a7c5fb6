(* Probe/remainder splitting.  See the .mli for the correctness
   contract; the code below errs on the side of shipping the original
   fragment whenever faithfulness of the merged stream is in doubt. *)

type request = {
  req_source : string;
  req_select : Sql_ast.select;
  req_sql_text : string;
  req_exports : string list;
  req_samples : int;
}

type plan =
  | P_local of Source.result * Sem_cache.outcome
  | P_ship of {
      ship_sql : string;
      finish : Source.result -> Source.result * Sem_cache.outcome option;
    }

let scope_of (s : Sql_ast.select) =
  Sql_print.select_to_string
    {
      Sql_ast.distinct = false;
      items = [ Sql_ast.Star ];
      from = s.from;
      where = None;
      group_by = [];
      having = None;
      order_by = [];
      limit = None;
    }

(* What the projection looks like: [*], or a list of plain columns with
   their output names.  Anything else is beyond the cache. *)
type items_shape =
  | Sh_star
  | Sh_cols of (Sem_pred.col * string) list

let items_shape (items : Sql_ast.select_item list) : items_shape option =
  match items with
  | [ Sql_ast.Star ] -> Some Sh_star
  | [] -> None
  | _ ->
    let rec go acc = function
      | [] -> Some (Sh_cols (List.rev acc))
      | Sql_ast.Expr_item (Sql_ast.Col (q, c), alias) :: rest ->
        go (((q, c), Option.value alias ~default:c) :: acc) rest
      | _ -> None
    in
    go [] items

let eligible (s : Sql_ast.select) =
  (not s.distinct)
  && s.group_by = []
  && s.having = None
  && s.order_by = []
  && s.limit = None
  && s.from <> None
  && items_shape s.items <> None

let single_table (s : Sql_ast.select) =
  match s.from with Some (Sql_ast.From_table _) -> true | _ -> false

(* The sentinel [(None, "*") -> "*"] marks an extent that carries every
   column of its scope, which is the only kind that can answer a [*]
   request. *)
let star_marker = ((None, "*"), "*")

let star_colmap names =
  star_marker :: List.map (fun n -> ((None, n), n)) names

let covers_shape entry shape needed =
  match shape with
  | Sh_star -> List.mem_assoc (fst star_marker) entry.Sem_entry.entry_colmap
  | Sh_cols _ -> Sem_entry.covers entry needed

let dedup cols =
  List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) [] cols

let needed_cols shape (where : Sql_ast.expr option) =
  let item_cols = match shape with Sh_star -> [] | Sh_cols m -> List.map fst m in
  let where_cols =
    match where with None -> [] | Some e -> Sql_ast.expr_columns e
  in
  dedup (item_cols @ where_cols)

let get_value row col =
  Option.value (Tuple.get row col) ~default:Value.Null

(* Project a stored row to the request's output names through the
   entry's source-column → stored-name map. *)
let project_row entry mapping row =
  Tuple.make
    (List.map
       (fun (src, out) ->
         let stored = List.assoc src entry.Sem_entry.entry_colmap in
         (out, get_value row stored))
       mapping)

let filter_rows where_opt rows =
  match where_opt with
  | None -> rows
  | Some e -> List.filter (fun row -> Sql_eval.eval_pred row e) rows

let is_ascending col rows =
  let rec go prev = function
    | [] -> true
    | row :: rest -> (
      match get_value row col with
      | Value.Null -> false
      | v -> (
        match prev with
        | None -> go (Some v) rest
        | Some p -> (
          match Value.compare_sql p v with
          | Some k when k < 0 -> go (Some v) rest
          | _ -> false)))
  in
  go None rows

(* Two-pointer merge by the order column; [None] on a cross-stream tie
   or incomparable pair (the caller falls back to re-shipping). *)
let merge_by col a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | x :: xs, y :: ys -> (
      match Value.compare_sql (get_value x col) (get_value y col) with
      | Some k when k < 0 -> go xs b (x :: acc)
      | Some k when k > 0 -> go a ys (y :: acc)
      | _ -> None)
  in
  go a b []

let admit_extent cache req ~scope ~colmap ~columns ~rows =
  let entry =
    Sem_entry.make ~source:req.req_source ~scope ~exports:req.req_exports
      ~where:req.req_select.Sql_ast.where ~colmap ~columns ~rows
      ~key:(Sql_print.canonical_select req.req_select)
  in
  ignore (Sem_cache.admit cache ~samples:req.req_samples entry)

let colmap_of_result shape names =
  match shape with
  | Sh_star -> star_colmap names
  | Sh_cols mapping -> mapping

(* ------------------------------------------------------------------ *)

let passthrough req = P_ship { ship_sql = req.req_sql_text; finish = (fun r -> (r, None)) }

let miss_plan cache req shape =
  P_ship
    {
      ship_sql = req.req_sql_text;
      finish =
        (fun raw ->
          (match raw with
          | Source.R_rows (names, rows) ->
            Sem_cache.note_miss cache ~shipped:(List.length rows);
            admit_extent cache req ~scope:(scope_of req.req_select)
              ~colmap:(colmap_of_result shape names) ~columns:names ~rows
          | _ -> Sem_cache.note_miss cache ~shipped:0);
          (raw, Some Sem_cache.O_miss));
    }

let full_hit cache req entry shape =
  let open Sem_entry in
  let q = req.req_select.Sql_ast.where in
  let filt = Option.map (Sem_pred.rename_columns entry.entry_colmap) q in
  let rows = filter_rows filt entry.entry_rows in
  let names, projected =
    match shape with
    | Sh_star -> (entry.entry_columns, rows)
    | Sh_cols mapping ->
      (List.map snd mapping, List.map (project_row entry mapping) rows)
  in
  entry.entry_hits <- entry.entry_hits + 1;
  Sem_cache.touch cache entry;
  Sem_cache.note_hit cache ~rows:(List.length projected);
  P_local
    (Source.R_rows (names, projected), Sem_cache.O_hit { local = List.length projected })

let partial_hit cache ~reship req entry shape order_col =
  let open Sem_entry in
  let s = req.req_select in
  let q = s.Sql_ast.where in
  (* Extend the projection with the merge key if it isn't already
     requested; the extra column is invisible to the engine (bindings
     resolve by name) but lets both streams be merged in source order. *)
  let shape' =
    match shape with
    | Sh_star -> Sh_star
    | Sh_cols mapping ->
      if List.mem_assoc (None, order_col) mapping then Sh_cols mapping
      else Sh_cols (mapping @ [ ((None, order_col), order_col) ])
  in
  let items' =
    match shape' with
    | Sh_star -> [ Sql_ast.Star ]
    | Sh_cols mapping ->
      List.map
        (fun ((q, c), out) ->
          Sql_ast.Expr_item
            (Sql_ast.Col (q, c), if out = c then None else Some out))
        mapping
  in
  let rem_where = Sem_pred.remainder ~cached:entry.entry_where q in
  let ship_select = { s with Sql_ast.items = items'; where = rem_where } in
  let ship_sql = Sql_print.select_to_string ship_select in
  let fallback () =
    Sem_cache.note_fallback cache;
    (reship (), None)
  in
  let finish raw =
    match raw with
    | Source.R_rows (names_r, rows_r) -> (
      let probe_pred =
        Option.map
          (Sem_pred.rename_columns entry.entry_colmap)
          (Sem_pred.probe_filter ~cached:entry.entry_where q)
      in
      let probe = filter_rows probe_pred entry.entry_rows in
      let probe_proj =
        match shape' with
        | Sh_star ->
          if entry.entry_columns = names_r then probe else []
        | Sh_cols mapping -> List.map (project_row entry mapping) probe
      in
      let shapes_agree =
        match shape' with
        | Sh_star -> entry.entry_columns = names_r
        | Sh_cols mapping -> List.map snd mapping = names_r
      in
      if not (shapes_agree && is_ascending order_col rows_r) then fallback ()
      else
        match merge_by order_col probe_proj rows_r with
        | None -> fallback ()
        | Some merged ->
          entry.entry_partials <- entry.entry_partials + 1;
          Sem_cache.touch cache entry;
          Sem_cache.note_partial cache ~local:(List.length probe_proj)
            ~shipped:(List.length rows_r);
          admit_extent cache req ~scope:(scope_of s)
            ~colmap:(colmap_of_result shape' names_r) ~columns:names_r
            ~rows:merged;
          ( Source.R_rows (names_r, merged),
            Some
              (Sem_cache.O_partial
                 {
                   local = List.length probe_proj;
                   shipped = List.length rows_r;
                   remainder = ship_sql;
                 }) ))
    | _ -> fallback ()
  in
  P_ship { ship_sql; finish }

let plan cache ~reship req =
  if not (Sem_cache.enabled cache) then passthrough req
  else
    let s = req.req_select in
    match items_shape s.Sql_ast.items with
    | None -> passthrough req
    | Some _ when not (eligible s) -> passthrough req
    | Some shape -> (
      let scope = scope_of s in
      let qa = Sem_pred.analyze s.Sql_ast.where in
      let needed = needed_cols shape s.Sql_ast.where in
      let cands = Sem_cache.entries cache ~source:req.req_source ~scope in
      let full =
        List.find_opt
          (fun e ->
            Sem_pred.contains ~outer:e.Sem_entry.entry_pred ~inner:qa
            && covers_shape e shape needed)
          cands
      in
      match full with
      | Some entry -> full_hit cache req entry shape
      | None -> (
        let partial =
          if not (single_table s) then None
          else
            List.find_map
              (fun e ->
                let open Sem_entry in
                match (e.entry_where, e.entry_order_col) with
                | Some _, Some oc
                  when e.entry_pred.Sem_pred.opaque = []
                       && (not e.entry_pred.Sem_pred.unsat)
                       && Sem_pred.overlaps e.entry_pred qa
                       && covers_shape e shape
                            (dedup
                               (needed
                               @ (match e.entry_where with
                                 | Some p -> Sql_ast.expr_columns p
                                 | None -> [])))
                       && List.mem_assoc (None, oc) e.entry_colmap ->
                  Some (e, oc)
                | _ -> None)
              cands
        in
        match partial with
        | Some (entry, oc) -> partial_hit cache ~reship req entry shape oc
        | None -> miss_plan cache req shape))
