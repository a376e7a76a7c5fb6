type resolver = string -> Dtree.t list

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

let content_of tree =
  match Dtree.kids tree with
  | [ single ] -> single
  | kids -> Dtree.node "content" kids

(* Merge two environments, requiring shared variables to agree. *)
let merge_consistent a b =
  let ok =
    List.for_all
      (fun (var, tree) ->
        match Alg_env.get a var with
        | None -> true
        | Some tree' -> Dtree.equal tree tree')
      (Alg_env.bindings b)
  in
  if ok then Some (Alg_env.concat a b) else None

let cross_merge envs_a envs_b =
  List.concat_map
    (fun ea -> List.filter_map (fun eb -> merge_consistent ea eb) envs_b)
    envs_a

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

let rec match_pattern (p : Xq_ast.pattern) tree =
  match tree with
  | Dtree.Atom _ -> []
  | Dtree.Node n ->
    if p.Xq_ast.tag <> "*" && not (String.equal p.Xq_ast.tag n.Dtree.label) then []
    else begin
      (* Attribute requirements. *)
      let attr_envs =
        List.fold_left
          (fun acc (aname, ap) ->
            match acc with
            | None -> None
            | Some env -> (
              match List.assoc_opt aname n.Dtree.attrs with
              | None -> None
              | Some v -> (
                match ap with
                | Xq_ast.A_lit s ->
                  if String.equal (Value.to_string v) s then Some env else None
                | Xq_ast.A_var var -> (
                  match Alg_env.get env var with
                  | Some bound ->
                    if Dtree.equal bound (Dtree.atom v) then Some env else None
                  | None -> Some (Alg_env.bind env var (Dtree.atom v))))))
          (Some Alg_env.empty) p.Xq_ast.attrs
      in
      match attr_envs with
      | None -> []
      | Some attr_env ->
        (* Each child pattern contributes a list of candidate envs; the
           combinations are merged consistently. *)
        let per_child =
          List.map
            (fun cp ->
              match cp with
              | Xq_ast.P_var var -> [ Alg_env.of_bindings [ (var, content_of tree) ] ]
              | Xq_ast.P_text s ->
                if String.equal (Dtree.text tree) s then [ Alg_env.empty ] else []
              | Xq_ast.P_element sub ->
                List.concat_map (fun kid -> match_pattern sub kid) (Dtree.kids tree))
            p.Xq_ast.children
        in
        let combined =
          List.fold_left (fun acc envs -> cross_merge acc envs) [ attr_env ] per_child
        in
        let with_element_as =
          match p.Xq_ast.element_as with
          | None -> combined
          | Some var ->
            List.filter_map
              (fun env -> merge_consistent env (Alg_env.of_bindings [ (var, tree) ]))
              combined
        in
        with_element_as
    end

(* Pre-order: a node's own matches, then each child subtree's in order.
   Accumulated in reverse, so a document costs time linear in its size. *)
let match_anywhere p tree =
  let rec go acc t =
    let acc = List.rev_append (match_pattern p t) acc in
    List.fold_left
      (fun acc k -> match k with Dtree.Node _ -> go acc k | Dtree.Atom _ -> acc)
      acc (Dtree.kids t)
  in
  List.rev (go [] tree)

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let clause_bindings resolver (c : Xq_ast.clause) =
  let docs =
    try resolver c.Xq_ast.clause_source
    with Not_found -> fail "unknown source %S" c.Xq_ast.clause_source
  in
  List.concat_map (fun doc -> match_anywhere c.Xq_ast.clause_pattern doc) docs

let compare_specs specs a b =
  let rec go = function
    | [] -> 0
    | (key, asc) :: rest ->
      let c = Value.compare (Alg_expr.eval a key) (Alg_expr.eval b key) in
      if c <> 0 then if asc then c else -c else go rest
  in
  go specs

let bindings resolver ?(outer = Alg_env.empty) (q : Xq_ast.query) =
  let joined =
    List.fold_left
      (fun acc clause -> cross_merge acc (clause_bindings resolver clause))
      [ outer ] q.Xq_ast.clauses
  in
  let filtered =
    List.filter
      (fun env -> List.for_all (fun cond -> Alg_expr.eval_pred env cond) q.Xq_ast.conditions)
      joined
  in
  let ordered =
    match q.Xq_ast.order_by with
    | [] -> filtered
    | specs -> List.stable_sort (compare_specs specs) filtered
  in
  match q.Xq_ast.limit with
  | None -> ordered
  | Some n ->
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take n ordered

(* Template instantiation; returns a list because subqueries and content
   splices can contribute several siblings. *)
let rec instantiate resolver env (t : Xq_ast.template) : Dtree.t list =
  match t with
  | Xq_ast.Tpl_text s -> [ Dtree.atom (Value.of_string_guess s) ]
  | Xq_ast.Tpl_expr e -> [ Dtree.atom (Alg_expr.eval env e) ]
  | Xq_ast.Tpl_var var -> (
    match Alg_env.get env var with
    | None -> [ Dtree.atom Value.Null ]
    | Some tree -> (
      match tree with
      | Dtree.Node { label = "content"; kids; _ } -> kids
      | tree -> [ tree ]))
  | Xq_ast.Tpl_subquery sub -> eval resolver ~outer:env sub
  | Xq_ast.Tpl_agg (kind, sub) ->
    let trees = eval resolver ~outer:env sub in
    let value_of tree =
      match Dtree.atom_value tree with
      | Some v -> v
      | None -> Value.of_string_guess (Dtree.text tree)
    in
    let values = List.filter (fun v -> v <> Value.Null) (List.map value_of trees) in
    let result =
      match kind with
      | Xq_ast.Ag_count -> Value.Int (List.length trees)
      | Xq_ast.Ag_sum ->
        if values = [] then Value.Null
        else List.fold_left (fun acc v -> try Value.add acc v with Invalid_argument _ -> acc)
               (Value.Int 0) values
      | Xq_ast.Ag_avg -> (
        if values = [] then Value.Null
        else
          let total =
            List.fold_left (fun acc v -> try Value.add acc v with Invalid_argument _ -> acc)
              (Value.Int 0) values
          in
          match Value.to_float total with
          | Some f -> Value.Float (f /. float_of_int (List.length values))
          | None -> Value.Null)
      | Xq_ast.Ag_min -> (
        match values with
        | [] -> Value.Null
        | v :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest)
      | Xq_ast.Ag_max -> (
        match values with
        | [] -> Value.Null
        | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest)
    in
    [ Dtree.atom result ]
  | Xq_ast.Tpl_element (tag, attrs, kids) ->
    let attr (aname, ta) =
      let v =
        match ta with
        | Xq_ast.TA_lit s -> Value.of_string_guess s
        | Xq_ast.TA_var var -> Alg_env.value_of env var
        | Xq_ast.TA_expr e -> Alg_expr.eval env e
      in
      (aname, v)
    in
    let children = List.concat_map (instantiate resolver env) kids in
    [ Dtree.node ~attrs:(List.map attr attrs) tag children ]

and eval resolver ?outer (q : Xq_ast.query) =
  let envs = bindings resolver ?outer q in
  List.concat_map (fun env -> instantiate resolver env q.Xq_ast.construct) envs

let eval_to_xml resolver q =
  let trees = eval resolver q in
  let results = Dtree.node "results" trees in
  Dtree.to_xml_element results
