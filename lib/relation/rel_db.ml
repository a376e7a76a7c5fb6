type t = {
  db_name : string;
  tables : (string, Rel_table.t) Hashtbl.t;
}

type result =
  | Rows of string list * Tuple.t list
  | Affected of int
  | Created

exception Sql_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Sql_error m)) fmt

let create ?(name = "db") () = { db_name = name; tables = Hashtbl.create 16 }

let name db = db.db_name

let table db tname = Hashtbl.find_opt db.tables tname

let table_exn db tname =
  match table db tname with
  | Some t -> t
  | None -> fail "unknown table %s" tname

let tables db =
  Hashtbl.fold (fun k _ acc -> k :: acc) db.tables [] |> List.sort String.compare

let catalog db = { Sql_plan.table_of = (fun tname -> table db tname) }

let create_table db ?primary_key schema =
  let tname = schema.Dschema.rel_name in
  if Hashtbl.mem db.tables tname then fail "table %s already exists" tname;
  Hashtbl.replace db.tables tname (Rel_table.create ?primary_key schema)

let drop_table db tname =
  if not (Hashtbl.mem db.tables tname) then fail "unknown table %s" tname;
  Hashtbl.remove db.tables tname

let insert_tuple db tname tup =
  try ignore (Rel_table.insert (table_exn db tname) tup)
  with Rel_table.Constraint_violation m -> fail "%s" m

let insert_many db tname tups = List.iter (insert_tuple db tname) tups

let total_rows db =
  Hashtbl.fold (fun _ t acc -> acc + Rel_table.row_count t) db.tables 0

let run_create_table db tname defs =
  let columns =
    List.map
      (fun d ->
        Dschema.column ~nullable:d.Sql_ast.cd_nullable d.Sql_ast.cd_name d.Sql_ast.cd_ty)
      defs
  in
  let primary_key =
    match List.filter (fun d -> d.Sql_ast.cd_primary) defs with
    | [] -> None
    | [ d ] -> Some d.Sql_ast.cd_name
    | _ :: _ :: _ -> fail "multiple PRIMARY KEY columns"
  in
  let schema =
    try Dschema.relational tname columns with Invalid_argument m -> fail "%s" m
  in
  create_table db ?primary_key schema;
  (* A primary key is always worth an index. *)
  (match primary_key with
  | Some k -> Rel_table.create_index (table_exn db tname) ~kind:Rel_table.Hash_index k
  | None -> ());
  Created

let run_insert db tname cols rows =
  let tbl = table_exn db tname in
  let schema = Rel_table.schema tbl in
  let count = ref 0 in
  List.iter
    (fun values ->
      (try
         match cols with
         | None -> ignore (Rel_table.insert_values tbl values)
         | Some names ->
           if List.length names <> List.length values then fail "INSERT arity mismatch";
           let bindings = List.combine names values in
           (* Unmentioned columns default to NULL. *)
           let tup =
             Tuple.make
               (List.map
                  (fun c ->
                    let cname = c.Dschema.col_name in
                    (cname, Option.value ~default:Value.Null (List.assoc_opt cname bindings)))
                  schema.Dschema.columns)
           in
           ignore (Rel_table.insert tbl tup)
       with Rel_table.Constraint_violation m -> fail "%s" m);
      incr count)
    rows;
  Affected !count

(* UPDATE and DELETE compile their WHERE once against the table's
   layout.  When a conjunct is [col = literal] on an indexed column, as
   index selection requires for SELECT, only that key's rows are
   visited; the whole WHERE still decides each of them.  The literal
   must have the column's type, so the index's exact-key lookup finds
   every row SQL equality would, and every column must resolve, so an
   unknown column is still reported however few rows the key has. *)
let dml_target db tname where =
  let tbl = table_exn db tname in
  let layout = Rel_table.columns tbl in
  let pred = match where with None -> fun _ -> true | Some w -> Sql_eval.compile_pred layout w in
  let ids =
    match where with
    | Some w
      when List.for_all
             (fun (q, n) -> Result.is_ok (Sql_eval.slot layout q n))
             (Sql_ast.expr_columns w) ->
      let schema = Rel_table.schema tbl in
      List.find_map
        (fun e ->
          match Sql_plan.column_literal tbl ~alias:tname e with
          | Some (cname, Sql_ast.Eq, v)
            when (match Dschema.find_column schema cname with
                 | Some c -> Value.type_of v = c.Dschema.col_ty
                 | None -> false) ->
            Rel_table.eq_ids tbl cname v
          | _ -> None)
        (Sql_ast.conjuncts w)
    | Some _ | None -> None
  in
  (tbl, layout, pred, ids)

let run_update db tname assigns where =
  let tbl, layout, pred, ids = dml_target db tname where in
  let assigns = List.map (fun (cname, e) -> (cname, Sql_eval.compile layout e)) assigns in
  (* Every assignment reads the row as it was before the update. *)
  let apply row =
    let tup = Tuple.of_arrays layout row in
    List.fold_left (fun acc (cname, c) -> Tuple.set acc cname (c row)) tup assigns
  in
  try Affected (Rel_table.update_rows ?ids tbl pred apply)
  with
  | Rel_table.Constraint_violation m -> fail "%s" m
  | Sql_eval.Eval_error m -> fail "%s" m

let run_delete db tname where =
  let tbl, _, pred, ids = dml_target db tname where in
  try Affected (Rel_table.delete_rows ?ids tbl pred)
  with Sql_eval.Eval_error m -> fail "%s" m

let run_select db select =
  try
    let names, rows = Sql_exec.run_select (catalog db) select in
    Rows (names, rows)
  with
  | Sql_exec.Exec_error m -> fail "%s" m
  | Sql_eval.Eval_error m -> fail "%s" m
  | Sql_plan.Plan_error m -> fail "%s" m

let exec_statement db stmt =
  match stmt with
  | Sql_ast.Select s -> run_select db s
  | Sql_ast.Create_table (tname, defs) -> run_create_table db tname defs
  | Sql_ast.Create_index { index_table; index_column; btree; _ } ->
    let tbl = table_exn db index_table in
    let kind = if btree then Rel_table.Btree_index else Rel_table.Hash_index in
    (try Rel_table.create_index tbl ~kind index_column
     with Invalid_argument m -> fail "%s" m);
    Created
  | Sql_ast.Insert (tname, cols, rows) -> run_insert db tname cols rows
  | Sql_ast.Update (tname, assigns, where) -> run_update db tname assigns where
  | Sql_ast.Delete (tname, where) -> run_delete db tname where
  | Sql_ast.Drop_table tname ->
    drop_table db tname;
    Created

let exec db text =
  match Sql_parser.parse text with
  | Ok stmt -> exec_statement db stmt
  | Error m -> fail "%s" m

let query db text =
  match exec db text with
  | Rows (_, rows) -> rows
  | Affected _ | Created -> fail "expected a SELECT statement"

let query_names db text =
  match exec db text with
  | Rows (names, rows) -> (names, rows)
  | Affected _ | Created -> fail "expected a SELECT statement"

let explain db text =
  let select =
    try Sql_parser.parse_select_exn text with Sql_parser.Parse_error m -> fail "%s" m
  in
  match Sql_plan.plan_select (catalog db) select with
  | None -> "CONST\n"
  | Some plan -> Sql_plan.explain plan
  | exception Sql_plan.Plan_error m -> fail "%s" m
