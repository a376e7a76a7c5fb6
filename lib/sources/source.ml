type kind =
  | Relational
  | Xml_store
  | Flat_file

type capability = {
  can_select : bool;
  can_project : bool;
  can_join : bool;
  can_aggregate : bool;
  can_path : bool;
}

type shape =
  | Whole
  | Kids of (string * Xml_path.pred option * shape) list

type query =
  | Q_sql of string
  | Q_path of string * Xml_path.t * shape
  | Q_scan of string
  | Q_batch of query list

type result =
  | R_rows of string list * Tuple.t list
  | R_trees of Dtree.t list
  | R_batch of result list

exception Unavailable of string
exception Query_rejected of string

type t = {
  name : string;
  kind : kind;
  capability : capability;
  relations : unit -> Dschema.relational list;
  document_names : unit -> string list;
  documents : string -> Dtree.t list;
  execute : query -> result;
  is_available : unit -> bool;
}

let full_capability =
  { can_select = true; can_project = true; can_join = true; can_aggregate = true; can_path = true }

let scan_only =
  { can_select = false; can_project = false; can_join = false; can_aggregate = false;
    can_path = false }

let table_document name rows =
  Dtree.node name (List.map (fun row -> Dtree.of_tuple "row" row) rows)

let rec shape_to_string = function
  | Whole -> ""
  | Kids kids ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (tag, pred, sub) ->
             tag
             ^ (match pred with Some p -> Xml_path.pred_to_string p | None -> "")
             ^ (match sub with Whole -> "" | Kids _ -> shape_to_string sub))
           kids)
    ^ "}"
