let count_tables_in_select select =
  let rec count_from = function
    | Sql_ast.From_table _ -> 1
    | Sql_ast.From_join (lhs, _, _, _) -> 1 + count_from lhs
  in
  match select.Sql_ast.from with
  | None -> 0
  | Some f -> count_from f

let check_capability (cap : Source.capability) stmt =
  match stmt with
  | Sql_ast.Select s ->
    if (not cap.Source.can_select) && s.Sql_ast.where <> None then
      raise (Source.Query_rejected "source cannot evaluate WHERE");
    if (not cap.Source.can_join) && count_tables_in_select s > 1 then
      raise (Source.Query_rejected "source cannot evaluate joins");
    if
      (not cap.Source.can_aggregate)
      && (s.Sql_ast.group_by <> []
         || List.exists
              (function Sql_ast.Agg_item _ -> true | _ -> false)
              s.Sql_ast.items)
    then raise (Source.Query_rejected "source cannot evaluate aggregates");
    if
      (not cap.Source.can_project)
      && not
           (List.for_all
              (function Sql_ast.Star | Sql_ast.Qualified_star _ -> true | _ -> false)
              s.Sql_ast.items)
    then raise (Source.Query_rejected "source cannot project")
  | _ -> () (* DML/DDL pass through; the engine enforces the rest *)

let make_limited cap db =
  let relations () =
    List.filter_map
      (fun tname -> Option.map Rel_table.schema (Rel_db.table db tname))
      (Rel_db.tables db)
  in
  let documents name =
    match Rel_db.table db name with
    | Some table -> [ Source.table_document name (Rel_table.to_list table) ]
    | None -> raise (Source.Query_rejected (Printf.sprintf "unknown table %s" name))
  in
  let rec execute q =
    match q with
    | Source.Q_batch members ->
      (* One round trip for several fragments: each member evaluates as
         it would alone; the batch shares the connection (the network
         simulator charges its latency once per execute call). *)
      if List.exists (function Source.Q_batch _ -> true | _ -> false) members then
        raise (Source.Query_rejected "nested batches are not accepted");
      Source.R_batch (List.map execute members)
    | Source.Q_sql text ->
      let stmt =
        match Sql_parser.parse text with
        | Ok stmt -> stmt
        | Error m -> raise (Source.Query_rejected m)
      in
      check_capability cap stmt;
      (try
         match Rel_db.exec_statement db stmt with
         | Rel_db.Rows (names, rows) -> Source.R_rows (names, rows)
         | Rel_db.Affected n -> Source.R_rows ([ "affected" ], [ Tuple.make [ ("affected", Value.Int n) ] ])
         | Rel_db.Created -> Source.R_rows ([], [])
       with Rel_db.Sql_error m -> raise (Source.Query_rejected m))
    | Source.Q_scan name -> (
      match Rel_db.table db name with
      | Some table ->
        Source.R_rows (Dschema.column_names (Rel_table.schema table), Rel_table.to_list table)
      | None -> raise (Source.Query_rejected (Printf.sprintf "unknown table %s" name)))
    | Source.Q_path (name, path, _shape) ->
      (* Whole matches: a superset of any projection, which the mediator's
         pattern match verifies. *)
      let doc = List.hd (documents name) in
      let matches = Xml_path.select path (Dtree.to_xml_element doc) in
      Source.R_trees (List.map Dtree.of_xml_element matches)
  in
  {
    Source.name = Rel_db.name db;
    kind = Source.Relational;
    capability = cap;
    relations;
    document_names = (fun () -> Rel_db.tables db);
    documents;
    execute;
    is_available = (fun () -> true);
  }

let make db = make_limited Source.full_capability db
