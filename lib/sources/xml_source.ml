(* Mutable backing store, shared by the closures of one source; retained
   in a registry so add_document can find it again. *)
type store = {
  mutable docs : (string * Dtree.t) list;
}

let stores : (string, store) Hashtbl.t = Hashtbl.create 8

let capability =
  {
    Source.can_select = true;
    can_project = false;
    can_join = false;
    can_aggregate = false;
    can_path = true;
  }

(* Registry key for one document's index entry; the source-wide prefix
   "src:<name>/" is what catalog invalidation drops. *)
let idx_name source doc = "src:" ^ source ^ "/" ^ doc

let register_docs name docs =
  List.iter (fun (doc, tree) -> Idx_manager.register (idx_name name doc) [ tree ]) docs

let reindex name =
  match Hashtbl.find_opt stores name with
  | Some store -> register_docs name store.docs
  | None -> ()

let rec projector = function
  | Source.Whole -> Fun.id
  | Source.Kids kids ->
    let kids =
      List.map
        (fun (tag, pred, sub) ->
          ( tag,
            Option.fold ~none:(fun _ -> true) ~some:Idx_manager.node_pred_holds pred,
            projector sub ))
        kids
    in
    let keep kid =
      match kid with
      | Dtree.Atom _ -> None
      | Dtree.Node { label; _ } -> (
        match List.find_opt (fun (tag, _, _) -> String.equal tag label) kids with
        | Some (_, holds, project) when holds kid -> Some (project kid)
        | Some _ | None -> None)
    in
    (function
      | Dtree.Atom _ as a -> a
      | Dtree.Node n -> Dtree.Node { n with kids = List.filter_map keep n.kids })

let make ~name docs =
  let store = { docs } in
  Hashtbl.replace stores name store;
  register_docs name docs;
  let find doc_name =
    match List.assoc_opt doc_name store.docs with
    | Some tree -> [ tree ]
    | None ->
      raise (Source.Query_rejected (Printf.sprintf "unknown document %s in %s" doc_name name))
  in
  let execute = function
    | Source.Q_scan doc_name -> Source.R_trees (find doc_name)
    | Source.Q_path (doc_name, path, shape) ->
      let trees = find doc_name in
      (* Self-heal after a source invalidation dropped this document's
         entry: re-register from the live trees (no refetch, so wrapped
         network layers charge nothing). *)
      let key = idx_name name doc_name in
      if (not (Idx_manager.is_registered key)) && Idx_manager.mode () <> Idx_manager.Off
      then Idx_manager.register key trees;
      let project = projector shape in
      let matches =
        List.concat_map
          (fun tree ->
            match Idx_manager.try_select ~project tree path with
            | Some (results, _) -> results
            | None ->
              (* The walker selects on the XML rendering, so its matches
                 are imported before they are projected. *)
              List.map
                (fun e -> project (Dtree.of_xml_element e))
                (Xml_path.select path (Dtree.to_xml_element tree)))
          trees
      in
      Source.R_trees matches
    | Source.Q_sql _ -> raise (Source.Query_rejected "XML stores do not accept SQL")
    | Source.Q_batch _ -> raise (Source.Query_rejected "XML stores do not accept batches")
  in
  {
    Source.name;
    kind = Source.Xml_store;
    capability;
    relations = (fun () -> []);
    document_names = (fun () -> List.map fst store.docs);
    documents = find;
    execute;
    is_available = (fun () -> true);
  }

let of_xml_strings ~name texts =
  make ~name
    (List.map
       (fun (doc_name, text) ->
         (doc_name, Dtree.of_xml_element (Xml_parser.parse_element_exn text)))
       texts)

let add_document source doc_name tree =
  match Hashtbl.find_opt stores source.Source.name with
  | Some store ->
    store.docs <- store.docs @ [ (doc_name, tree) ];
    Idx_manager.register (idx_name source.Source.name doc_name) [ tree ]
  | None -> invalid_arg "Xml_source.add_document: not an Xml_source-backed source"
