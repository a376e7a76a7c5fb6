type access =
  | A_sql of {
      source_name : string;
      export : string;
      fragment : Med_sqlgen.fragment;
      pattern : Xq_ast.pattern;
    }
  | A_sql_join of {
      source_name : string;
      fragment : Med_sqlgen.join_fragment;
      exports : string list;
    }
  | A_path of {
      source_name : string;
      export : string;
      path : Xml_path.t;
      pattern : Xq_ast.pattern;
      shape : Source.shape;
    }
  | A_match of {
      source_name : string;
      export : string;
      pattern : Xq_ast.pattern;
    }
  | A_view of {
      view : string;
      pattern : Xq_ast.pattern;
      composed : composed option;
      bind : bind option;
    }
  | A_sql_bind of {
      source_name : string;
      export : string;
      fragment : Med_sqlgen.fragment;
      pattern : Xq_ast.pattern;
      bind : bind;
    }

and bind = {
  bind_driver : string;  (* access id whose rows supply the key values *)
  bind_var : string;     (* join variable shared with the driver *)
}

and composed = {
  absorbed : Alg_expr.t list;
  literals : (string * Value.ty) list;
  defs : composed_def list;
}

and composed_def = {
  sub : compiled;
  binds : (string * view_bind) list;
  element_vars : string list;
}

and view_bind =
  | B_var of string
  | B_const of Dtree.t

and opt_info = {
  oi_mode : string;        (* "dp" | "dp-fallback:greedy" *)
  oi_order : string;       (* chosen join tree, e.g. "((a1 ⋈ a0) ⋈ a2)" *)
  oi_est_rows : float;
  oi_est_cost_ms : float;
  oi_binds : (string * string) list;  (* bound access id -> driver id *)
}

and compiled = {
  plan : Alg_plan.t;
  accesses : (string * access) list;
  construct : Xq_ast.template;
  source_query : Xq_ast.query;
  residual_conditions : Alg_expr.t list;
  opt_info : opt_info option;
}

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Plan_error m)) fmt

(* Stable identity of an access across compilations of the same query:
   the cardinality-feedback store is keyed by this, so observations made
   by one execution are found by the next plan of the same shape. *)
let access_key = function
  | A_sql { source_name; fragment; _ } ->
    Printf.sprintf "sql|%s|%s" source_name fragment.Med_sqlgen.sql_text
  | A_sql_join { source_name; fragment; _ } ->
    Printf.sprintf "sqljoin|%s|%s" source_name fragment.Med_sqlgen.jf_sql_text
  | A_path { source_name; export; path; pattern; _ } ->
    Printf.sprintf "path|%s.%s|%s|%s" source_name export (Xml_path.to_string path)
      (Xq_pretty.pattern_to_string pattern)
  | A_match { source_name; export; pattern } ->
    Printf.sprintf "match|%s.%s|%s" source_name export
      (Xq_pretty.pattern_to_string pattern)
  | A_view { view; pattern; composed; bind } ->
    (* Conditions absorbed into a composed view change what it returns,
       so two specializations of one pattern never share feedback; nor
       does a bound access share the unbound view's. *)
    let absorbed =
      match composed with
      | Some { absorbed = _ :: _ as conds; _ } ->
        "|" ^ String.concat " AND " (List.map Alg_expr.to_string conds)
      | Some { absorbed = []; _ } | None -> ""
    in
    let bound =
      match bind with
      | Some { bind_driver; bind_var } -> Printf.sprintf "|%s<-%s" bind_var bind_driver
      | None -> ""
    in
    Printf.sprintf "view|%s|%s%s%s" view (Xq_pretty.pattern_to_string pattern) absorbed bound
  | A_sql_bind { source_name; fragment; bind = { bind_driver; bind_var }; _ } ->
    (* A bound fetch ships different SQL per driver extent, so its
       feedback must not pollute the plain fragment's estimates. *)
    Printf.sprintf "sqlbind|%s|%s|%s<-%s" source_name
      fragment.Med_sqlgen.sql_text bind_var bind_driver

let access_target = function
  | A_sql { source_name; _ }
  | A_sql_join { source_name; _ }
  | A_path { source_name; _ }
  | A_match { source_name; _ }
  | A_sql_bind { source_name; _ } -> source_name
  | A_view { view; _ } -> view

(* Satellite of the cost-based optimizer: every row-count guess funnels
   through this chain — exact execution feedback first, statistics-based
   estimation second, the flat default last. *)
let stats_rows stats access =
  match access with
  | A_sql { source_name; fragment; _ } ->
    Med_estimate.select_rows stats ~source:source_name fragment.Med_sqlgen.sql
  | A_sql_bind { source_name; fragment; _ } ->
    (* The IN-list is computed at fetch time; the unbound fragment's
       estimate is a safe superset. *)
    Med_estimate.select_rows stats ~source:source_name fragment.Med_sqlgen.sql
  | A_sql_join { source_name; fragment; _ } ->
    Med_estimate.select_rows stats ~source:source_name fragment.Med_sqlgen.jf_sql
  | A_path { source_name; export; _ } | A_match { source_name; export; _ } ->
    Med_estimate.table_rows stats ~source:source_name ~export
  | A_view _ -> None

(* Exact match counts from an already-built structural guide, for path
   accesses.  Sits between feedback and statistics in the chain: as
   precise as feedback (it counts the actual document), but available
   before the access ever ran. *)
let index_rows = function
  | A_path { source_name; export; path; _ } ->
    Med_estimate.path_rows ~source:source_name ~export path
  | A_sql _ | A_sql_bind _ | A_sql_join _ | A_match _ | A_view _ -> None

let estimated_rows ?feedback ?stats access =
  let observed =
    Option.bind feedback (fun fb -> Obs_feedback.observed fb (access_key access))
  in
  match observed with
  | Some rows -> rows
  | None -> (
    match index_rows access with
    | Some rows -> rows
    | None -> (
      match Option.bind stats (fun s -> stats_rows s access) with
      | Some rows -> rows
      | None -> Med_estimate.default_rows))

(* Variables an access binds. *)
let access_vars = function
  | A_sql { fragment; _ } | A_sql_bind { fragment; _ } ->
    List.map fst fragment.Med_sqlgen.binds
    @ (match fragment.Med_sqlgen.row_var with Some v -> [ v ] | None -> [])
  | A_sql_join { fragment; _ } -> List.map fst fragment.Med_sqlgen.jf_binds
  | A_path { pattern; _ } | A_match { pattern; _ } | A_view { pattern; _ } ->
    Xq_ast.pattern_vars pattern

(* Join [left] (vars [lvars]) with the scan of [access_id] (vars [rvars])
   on their shared variables.  The right side's shared variables are
   renamed so both keys stay addressable, then projected away. *)
let join_step left lvars right rvars =
  let shared = List.filter (fun v -> List.mem v lvars) rvars in
  let out_vars = lvars @ List.filter (fun v -> not (List.mem v lvars)) rvars in
  match shared with
  | [] ->
    (Alg_plan.Nl_join { left; right; pred = None }, out_vars)
  | key :: rest ->
    let rename_map = List.map (fun v -> (v, v ^ "#r")) shared in
    let renamed = Alg_plan.Rename (right, rename_map) in
    let residual =
      match rest with
      | [] -> None
      | rest ->
        let eqs =
          List.map
            (fun v -> Alg_expr.Binop (Alg_expr.Eq, Alg_expr.Var v, Alg_expr.Var (v ^ "#r")))
            rest
        in
        Some (List.fold_left (fun acc e -> Alg_expr.Binop (Alg_expr.And, acc, e)) (List.hd eqs) (List.tl eqs))
    in
    let join =
      Alg_plan.Hash_join
        {
          left;
          right = renamed;
          left_key = Alg_expr.Var key;
          right_key = Alg_expr.Var (key ^ "#r");
          residual;
        }
    in
    (Alg_plan.Project (join, out_vars), out_vars)

(* When several clauses address tables of the same join-capable
   relational source, try to compile them into one SQL join fragment.
   Returns (grouped access option, indices it covers). *)
let try_join_group opts catalog (clauses : Xq_ast.clause list) candidates =
  let reg = Med_catalog.registry catalog in
  let resolved =
    List.mapi
      (fun i clause ->
        if Med_catalog.find_view catalog clause.Xq_ast.clause_source <> None then (i, None)
        else
          match Src_registry.resolve_export reg clause.Xq_ast.clause_source with
          | Some (src, export)
            when src.Source.kind = Source.Relational
                 && src.Source.capability.Source.can_join
                 && src.Source.capability.Source.can_select ->
            (i, Some (src, export, clause.Xq_ast.clause_pattern))
          | Some _ | None -> (i, None))
      clauses
  in
  (* Group indices by source name. *)
  let by_source : (string, (int * Source.t * string * Xq_ast.pattern) list) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun (i, entry) ->
      match entry with
      | Some (src, export, pattern) ->
        let key = src.Source.name in
        let prior = Option.value ~default:[] (Hashtbl.find_opt by_source key) in
        Hashtbl.replace by_source key (prior @ [ (i, src, export, pattern) ])
      | None -> ())
    resolved;
  Hashtbl.fold
    (fun _ group acc ->
      match acc with
      | Some _ -> acc (* one group per compile pass; others handled next passes *)
      | None ->
        if List.length group < 2 then None
        else begin
          let schemas_ok =
            List.map
              (fun (_, src, export, pattern) ->
                match
                  List.find_opt
                    (fun r -> String.equal r.Dschema.rel_name export)
                    (src.Source.relations ())
                with
                | Some schema -> Some (schema, pattern, export)
                | None -> None)
              group
          in
          if List.exists Option.is_none schemas_ok then None
          else begin
            let entries = List.map Option.get schemas_ok in
            match
              Med_sqlgen.compile_join_clauses opts
                (List.map (fun (schema, pattern, _) -> (schema, pattern)) entries)
                candidates
            with
            | None -> None
            | Some fragment ->
              let _, src, _, _ = List.hd group in
              Some
                ( A_sql_join
                    {
                      source_name = src.Source.name;
                      fragment;
                      exports = List.map (fun (_, _, e) -> e) entries;
                    },
                  List.map (fun (i, _, _, _) -> i) group,
                  fragment.Med_sqlgen.jf_pushed_conditions )
          end
        end)
    by_source None

let rec remove_once x = function
  | [] -> []
  | y :: tl -> if x == y then tl else y :: remove_once x tl

let m_dp_plans = Obs_metrics.counter "opt.dp_plans"
let m_dp_fallbacks = Obs_metrics.counter "opt.dp_fallbacks"
let m_bind_joins = Obs_metrics.counter "opt.bind_joins"

(* Sources not wrapped in the network simulator (and view expansions)
   cost nothing to reach; cardinality alone then drives the order. *)
let local_profile =
  { Net_sim.latency_ms = 0.0; per_tuple_ms = 0.0; availability = 1.0 }

let access_profile access =
  match access with
  | A_view _ -> local_profile
  | _ ->
    Option.value ~default:local_profile (Net_sim.profile_of (access_target access))

(* The column a variable reads from, for accesses whose binds map to
   real source columns (the join-selectivity path). *)
let var_column access v =
  match access with
  | A_sql { source_name; export; fragment; _ }
  | A_sql_bind { source_name; export; fragment; _ } ->
    Option.map
      (fun col -> (source_name, export, col))
      (List.assoc_opt v fragment.Med_sqlgen.binds)
  | A_sql_join _ | A_path _ | A_match _ | A_view _ -> None

let max_bind_keys = 1024

let def_var (d : composed_def) v =
  match List.assoc_opt v d.binds with
  | Some (B_var v') when not (List.mem v' d.element_vars) -> Some v'
  | Some (B_var _) | Some (B_const _) | None -> None

(* The one eligibility test behind every bind join: a SQL fragment
   narrows on a variable it reads from a column (an IN-list filters that
   column), a path access on a variable its pattern binds at a fixed
   site (an IN-list predicate filters the candidates), a composed view
   on a variable some definition binds to an atom that one of the
   definition's own accesses narrows on. *)
let rec narrows_on access v =
  match access with
  | A_sql { fragment; _ } | A_sql_bind { fragment; _ } ->
    (* A LIMIT applies before the IN-list would: filtering after it is
       not the same query. *)
    fragment.Med_sqlgen.sql.Sql_ast.limit = None
    && List.mem_assoc v fragment.Med_sqlgen.binds
  | A_sql_join { fragment; _ } -> List.mem_assoc v fragment.Med_sqlgen.jf_binds
  | A_path { path; pattern; _ } -> Med_pathgen.bind_site path pattern v <> None
  | A_view { composed = Some c; _ } ->
    List.exists
      (fun d ->
        match def_var d v with
        | Some v' -> List.exists (fun (_, a) -> narrows_on a v') d.sub.accesses
        | None -> false)
      c.defs
  | A_view { composed = None; _ } | A_match _ -> false

(* Bind-join conversion under the DP optimizer: after it fixes an order,
   a large relational fragment joined to a small driver on a variable the
   fragment exposes as a column can ship [col IN (driver keys)] instead
   of the whole table.  The IN-list is a superset filter of the
   equi-join above it (NULL keys never join, SQL and engine agree), so
   answers are untouched — only shipped rows shrink. *)
let choose_binds opts rels vars ests =
  let n = Array.length rels in
  if not opts.Med_sqlgen.pushdown_select then []
  else begin
    let is_driver i =
      match snd rels.(i) with A_sql _ | A_sql_join _ -> true | _ -> false
    in
    let used_as_driver = Array.make n false in
    let converted = Array.make n false in
    let by_est_desc =
      List.sort (fun i j -> compare ests.(j) ests.(i)) (List.init n Fun.id)
    in
    List.filter_map
      (fun j ->
        match snd rels.(j) with
        | A_sql { fragment; _ } when not used_as_driver.(j) ->
          let candidates =
            List.filter_map
              (fun i ->
                if i = j || converted.(i) || not (is_driver i)
                   || ests.(i) > float_of_int max_bind_keys
                   || ests.(i) *. 2.0 > ests.(j)
                then None
                else
                  (* first bound column shared with the driver *)
                  List.find_map
                    (fun (v, _) ->
                      if List.mem v vars.(i) && narrows_on (snd rels.(j)) v
                      then Some (i, v)
                      else None)
                    fragment.Med_sqlgen.binds)
              (List.init n Fun.id)
          in
          let best =
            List.fold_left
              (fun acc (i, v) ->
                match acc with
                | Some (bi, _) when ests.(bi) <= ests.(i) -> acc
                | _ -> Some (i, v))
              None candidates
          in
          Option.map
            (fun (i, v) ->
              used_as_driver.(i) <- true;
              converted.(j) <- true;
              (j, i, v))
            best
        | _ -> None)
      by_est_desc
  end

let apply_binds rels binds accesses =
  List.mapi
    (fun j entry ->
      match List.find_opt (fun (t, _, _) -> t = j) binds with
      | None -> entry
      | Some (_, i, v) -> (
        match entry with
        | aid, A_sql { source_name; export; fragment; pattern } ->
          Obs_metrics.inc m_bind_joins;
          ( aid,
            A_sql_bind
              { source_name; export; fragment; pattern;
                bind = { bind_driver = fst rels.(i); bind_var = v } } )
        | _ -> entry))
    accesses

(* View bind joins, under either optimizer: once the join order is
   fixed, a composed view access ships only the rows whose join key the
   earliest earlier access sharing a variable the view narrows on
   produced.  Drivers always come earlier in [order], so resolving binds
   in that order lets a bound access drive a later one.  Returns the
   accesses and (bound id, driver id) pairs. *)
let bind_views opts order accesses =
  if not opts.Med_sqlgen.pushdown_select then (accesses, [])
  else begin
    let binds =
      List.concat
        (List.mapi
           (fun k aid ->
             match List.assoc aid accesses with
             | A_view { composed = Some _; bind = None; _ } as view ->
               let vars = access_vars view in
               Option.to_list
                 (List.find_map
                    (fun did ->
                      let dvars = access_vars (List.assoc did accesses) in
                      List.find_map
                        (fun v ->
                          if List.mem v dvars && narrows_on view v then
                            Some (aid, { bind_driver = did; bind_var = v })
                          else None)
                        vars)
                    (List.filteri (fun i _ -> i < k) order))
             | _ -> [])
           order)
    in
    let accesses =
      List.map
        (fun (aid, access) ->
          match (access, List.assoc_opt aid binds) with
          | A_view r, Some b ->
            Obs_metrics.inc m_bind_joins;
            (aid, A_view { r with bind = Some b })
          | _ -> (aid, access))
        accesses
    in
    (accesses, List.map (fun (aid, b) -> (aid, b.bind_driver)) binds)
  end

(* ------------------------------------------------------------------ *)
(* View composition                                                    *)
(* ------------------------------------------------------------------ *)

(* A clause over a view compiles into the view's definitions,
   specialized by the clause, the way a clause over a table compiles
   into SQL: the clause's literals and the candidate conditions over its
   variables become conditions on the definitions' variables, which the
   definitions' own compilation pushes into their fragments.  The access
   then binds the clause's variables straight from the definitions'
   environments, without building the view's trees.  This is exact only
   where the clause can match a view tree at its root alone, and only in
   ways a condition on an atomic value reproduces; every other view
   keeps the tree path (instantiate every tree, then match it). *)

(* A flat CONSTRUCT template: one attribute-free root element whose
   children are attribute-free [<tag>$var</tag>] or [<tag>literal</tag>]
   elements, every tag distinct and none equal to the root's. *)
type flat_child = F_var of string | F_text of string

let distinct names = List.length (List.sort_uniq String.compare names) = List.length names

let flat_template = function
  | Xq_ast.Tpl_element (root, [], kids) ->
    let child = function
      | Xq_ast.Tpl_element (tag, [], [ Xq_ast.Tpl_var v ]) -> Some (tag, F_var v)
      | Xq_ast.Tpl_element (tag, [], [ Xq_ast.Tpl_text s ]) -> Some (tag, F_text s)
      | _ -> None
    in
    let children = List.filter_map child kids in
    if List.length children = List.length kids && distinct (root :: List.map fst children)
    then Some (root, children)
    else None
  | _ -> None

(* What compile time knows of a definition variable's values: whether
   every value is an atom — so splicing it into the template and
   matching it back returns the same atom, and no element content can
   hide a deeper match — and the column type when every value is a
   typed column value of that type. *)
type var_fact = { atomic : bool; ty : Value.ty option }

let not_atomic = { atomic = false; ty = None }

let combine_facts = function
  | [] -> not_atomic
  | f :: rest ->
    List.fold_left
      (fun acc g ->
        { atomic = acc.atomic && g.atomic; ty = (if acc.ty = g.ty then acc.ty else None) })
      f rest

(* The value a caller literal stands for at a column type, when
   comparing a value's text with the literal is the same as comparing
   the value with it: the literal prints back as itself and is not the
   text of NULL.  Floats print lossily, so they never qualify. *)
let canonical_literal ty s =
  match ty with
  | Value.TInt | Value.TString | Value.TBool | Value.TDate -> (
    match Value.parse_as ty s with
    | Some v when s <> Value.to_string Value.Null && String.equal (Value.to_string v) s ->
      Some v
    | Some _ | None -> None)
  | Value.TFloat | Value.TNull -> None

(* Where a variable occurs in a clause pattern: as the sole content of a
   root child [<tag>$v</tag>], as an attribute value, or elsewhere. *)
type occurrence = O_column of string | O_attr | O_other

let occurrences (p : Xq_ast.pattern) v =
  let attrs (q : Xq_ast.pattern) =
    List.filter_map
      (fun (_, a) -> match a with Xq_ast.A_var w when w = v -> Some O_attr | _ -> None)
      q.Xq_ast.attrs
    @ if q.Xq_ast.element_as = Some v then [ O_other ] else []
  in
  let rec inside (q : Xq_ast.pattern) = attrs q @ List.concat_map child q.Xq_ast.children
  and child = function
    | Xq_ast.P_var w -> if w = v then [ O_other ] else []
    | Xq_ast.P_text _ -> []
    | Xq_ast.P_element sub -> inside sub
  in
  attrs p
  @ List.concat_map
      (function
        | Xq_ast.P_element
            { tag; attrs = []; element_as = None; children = [ Xq_ast.P_var w ] }
          when w = v ->
          [ O_column tag ]
        | c -> child c)
      p.Xq_ast.children

(* A view every definition of which has a flat template over atomic
   values, all under one root tag: that tag and each child tag's fact.
   Memoized per composition, since nested views are summarized once per
   variable that reads them. *)
let rec view_summary memo catalog name =
  match Hashtbl.find_opt memo name with
  | Some summary -> summary
  | None ->
    let summary =
      match Med_catalog.find_view catalog name with
      | None -> None
      | Some view -> (
        let flats =
          List.map
            (fun (def : Xq_ast.query) ->
              Option.map
                (fun (root, children) ->
                  (root, List.map (fun (tag, c) -> (tag, child_fact memo catalog def c)) children))
                (flat_template def.Xq_ast.construct))
            view.Med_catalog.definitions
        in
        match flats with
        | Some (root, _) :: _
          when List.for_all (function Some (r, _) -> r = root | None -> false) flats ->
          let facts = List.concat_map (fun f -> snd (Option.get f)) flats in
          if List.for_all (fun (_, f) -> f.atomic) facts then
            let tags = List.sort_uniq String.compare (List.map fst facts) in
            Some
              ( root,
                List.map
                  (fun tag ->
                    ( tag,
                      combine_facts
                        (List.filter_map
                           (fun (t, f) -> if t = tag then Some f else None)
                           facts) ))
                  tags )
          else None
        | _ -> None)
    in
    Hashtbl.replace memo name summary;
    summary

and child_fact memo catalog def = function
  | F_var v -> def_var_fact memo catalog def v
  | F_text s -> { atomic = true; ty = Some (Value.type_of (Value.of_string_guess s)) }

and def_var_fact memo catalog (def : Xq_ast.query) v =
  combine_facts
    (List.concat_map
       (fun (clause : Xq_ast.clause) ->
         List.map (occurrence_fact memo catalog clause)
           (occurrences clause.Xq_ast.clause_pattern v))
       def.Xq_ast.clauses)

and occurrence_fact memo catalog (clause : Xq_ast.clause) occurrence =
  let name = clause.Xq_ast.clause_source in
  let root = clause.Xq_ast.clause_pattern.Xq_ast.tag in
  match occurrence, Med_catalog.find_view catalog name with
  | O_column tag, Some _ -> (
    match view_summary memo catalog name with
    | Some (vroot, facts) when vroot = root ->
      Option.value ~default:not_atomic (List.assoc_opt tag facts)
    | Some _ | None -> not_atomic)
  | O_column tag, None -> (
    (* A table's rows are [<row>] elements of atom-valued columns, both
       as SQL results and in the table's XML view. *)
    match Src_registry.resolve_export (Med_catalog.registry catalog) name with
    | Some (src, export)
      when root = "row" && export <> "row"
           && (src.Source.kind = Source.Relational || src.Source.kind = Source.Flat_file) ->
      let ty =
        if src.Source.kind <> Source.Relational then None
        else
          Option.bind
            (List.find_opt
               (fun r -> String.equal r.Dschema.rel_name export)
               (src.Source.relations ()))
            (fun schema ->
              Option.map (fun c -> c.Dschema.col_ty) (Dschema.find_column schema tag))
      in
      { atomic = true; ty }
    | Some _ | None -> not_atomic)
  | O_attr, None -> (
    match Src_registry.resolve_export (Med_catalog.registry catalog) name with
    | Some (src, _) when src.Source.kind = Source.Xml_store -> { atomic = true; ty = None }
    | Some _ | None -> not_atomic)
  | O_attr, Some _ | O_other, _ -> not_atomic

(* What the clause asks of each child of a view tree's root. *)
type ask = Ask_any | Ask_var of string | Ask_text of string

(* The clause shapes composition handles: a root element without
   attributes or ELEMENT_AS, whose children are distinct-tagged
   [<tag/>], [<tag>$x</tag>] or [<tag>literal</tag>] elements, each
   variable bound once. *)
let clause_asks (p : Xq_ast.pattern) =
  if p.Xq_ast.tag = "*" || p.Xq_ast.attrs <> [] || p.Xq_ast.element_as <> None then None
  else
    let ask = function
      | Xq_ast.P_element { tag; attrs = []; element_as = None; children } when tag <> "*" -> (
        match children with
        | [] -> Some (tag, Ask_any)
        | [ Xq_ast.P_var x ] -> Some (tag, Ask_var x)
        | [ Xq_ast.P_text s ] -> Some (tag, Ask_text s)
        | _ -> None)
      | _ -> None
    in
    let asks = List.filter_map ask p.Xq_ast.children in
    let vars = List.filter_map (function _, Ask_var x -> Some x | _ -> None) asks in
    if List.length asks = List.length p.Xq_ast.children
       && distinct (List.map fst asks) && distinct vars
    then Some asks
    else None

(* A caller condition rewritten over one definition's variables. *)
let rec rebind_expr binds (e : Alg_expr.t) : Alg_expr.t =
  let go = rebind_expr binds in
  match e with
  | Alg_expr.Var x -> (
    match List.assoc_opt x binds with
    | Some (B_var v) -> Alg_expr.Var v
    | Some (B_const t) -> Alg_expr.Const (Option.value ~default:Value.Null (Dtree.atom_value t))
    | None -> e)
  | Alg_expr.Const _ -> e
  | Alg_expr.Child (a, l) -> Alg_expr.Child (go a, l)
  | Alg_expr.Attr (a, n) -> Alg_expr.Attr (go a, n)
  | Alg_expr.Text a -> Alg_expr.Text (go a)
  | Alg_expr.Label a -> Alg_expr.Label (go a)
  | Alg_expr.Binop (op, a, b) -> Alg_expr.Binop (op, go a, go b)
  | Alg_expr.Not a -> Alg_expr.Not (go a)
  | Alg_expr.Neg a -> Alg_expr.Neg (go a)
  | Alg_expr.Call (f, args) -> Alg_expr.Call (f, List.map go args)
  | Alg_expr.Like (a, pat) -> Alg_expr.Like (go a, pat)
  | Alg_expr.Is_null a -> Alg_expr.Is_null (go a)

(* Specialize [view] for a clause with [pattern]: [None] when the view
   cannot be composed exactly, otherwise the composed access and the
   candidate conditions it absorbed. *)
let rec compose_view ?feedback opts catalog (view : Med_catalog.view) (pattern : Xq_ast.pattern)
    candidates =
  let ( let* ) = Option.bind in
  let* asks = clause_asks pattern in
  let memo = Hashtbl.create 8 in
  let specialize (def : Xq_ast.query) =
    let* root, children = flat_template def.Xq_ast.construct in
    if root <> pattern.Xq_ast.tag || def.Xq_ast.limit <> None then None
    else begin
      let fact = def_var_fact memo catalog def in
      let atomic =
        List.for_all (function _, F_var v -> (fact v).atomic | _, F_text _ -> true) children
      in
      let rec walk binds conds literals = function
        | [] -> Some (List.rev binds, List.rev conds, literals)
        | (tag, ask) :: rest -> (
          let* child = List.assoc_opt tag children in
          match ask, child with
          | Ask_any, _ -> walk binds conds literals rest
          | Ask_var x, F_var v -> walk ((x, B_var v) :: binds) conds literals rest
          | Ask_var x, F_text s ->
            walk ((x, B_const (Dtree.atom (Value.of_string_guess s))) :: binds) conds literals
              rest
          | Ask_text s, F_text lit ->
            if String.equal (Value.to_string (Value.of_string_guess lit)) s then
              walk binds conds literals rest
            else None
          | Ask_text s, F_var v ->
            let* ty = if atomic then (fact v).ty else None in
            let* value = canonical_literal ty s in
            let cond = Alg_expr.Binop (Alg_expr.Eq, Alg_expr.Var v, Alg_expr.Const value) in
            walk binds (cond :: conds) ((s, ty) :: literals) rest)
      in
      let* binds, conds, literals = walk [] [] [] asks in
      let element_vars =
        List.filter_map
          (function _, F_var v when not (fact v).atomic -> Some v | _ -> None)
          children
      in
      Some (def, binds, conds, literals, element_vars)
    end
  in
  let specs = List.map specialize view.Med_catalog.definitions in
  if List.exists Option.is_none specs then None
  else begin
    let specs = List.map Option.get specs in
    (* Candidate conditions move into the definitions only when every
       value they can read is an atom the caller would see unchanged. *)
    let bound = List.filter_map (function _, Ask_var x -> Some x | _ -> None) asks in
    let absorbed =
      if List.exists (fun (_, _, _, _, element_vars) -> element_vars <> []) specs then []
      else
        List.filter
          (fun cond ->
            let vars = Alg_expr.free_vars cond in
            vars <> []
            && List.for_all (fun v -> List.mem v bound) vars
            && Med_sqlgen.translate_condition (List.map (fun v -> (v, v)) bound) cond <> None)
          candidates
    in
    let defs =
      List.map
        (fun ((def : Xq_ast.query), binds, conds, _, element_vars) ->
          let conditions =
            def.Xq_ast.conditions @ conds @ List.map (rebind_expr binds) absorbed
          in
          let sub = compile ~opts ?feedback catalog { def with Xq_ast.conditions } in
          { sub; binds; element_vars })
        specs
    in
    (* Occurrence order, so a plan-cache rebind maps them in place. *)
    let literals =
      List.fold_left
        (fun acc l -> if List.mem l acc then acc else acc @ [ l ])
        []
        (List.concat_map (fun (_, _, _, literals, _) -> List.rev literals) specs)
    in
    Some ({ absorbed; literals; defs }, absorbed)
  end

(* Pick the access path for one clause, absorbing pushable conditions. *)
and clause_access ?feedback opts catalog (clause : Xq_ast.clause) candidates =
  let name = clause.Xq_ast.clause_source in
  match Med_catalog.find_view catalog name with
  | Some view -> (
    let pattern = clause.Xq_ast.clause_pattern in
    match compose_view ?feedback opts catalog view pattern candidates with
    | Some (composed, absorbed) ->
      (A_view { view = name; pattern; composed = Some composed; bind = None }, absorbed)
    | None -> (A_view { view = name; pattern; composed = None; bind = None }, []))
  | None -> (
    match Src_registry.resolve_export (Med_catalog.registry catalog) name with
    | None -> fail "unknown source or view %S" name
    | Some (src, export) -> (
      let fallback = A_match { source_name = src.Source.name; export; pattern = clause.Xq_ast.clause_pattern } in
      match src.Source.kind with
      | Source.Xml_store ->
        (* Path preselection when the store accepts it. *)
        if src.Source.capability.Source.can_path && opts.Med_sqlgen.pushdown_select then
          match Med_pathgen.compile_pattern clause.Xq_ast.clause_pattern with
          | Some path ->
            let pattern = clause.Xq_ast.clause_pattern in
            ( A_path
                { source_name = src.Source.name; export; path; pattern;
                  shape = Med_pathgen.shape path pattern },
              [] )
          | None -> (fallback, [])
        else (fallback, [])
      | Source.Flat_file -> (fallback, [])
      | Source.Relational -> (
        if not src.Source.capability.Source.can_select then (fallback, [])
        else
          let schema =
            List.find_opt
              (fun r -> String.equal r.Dschema.rel_name export)
              (src.Source.relations ())
          in
          match schema with
          | None -> (fallback, [])
          | Some schema -> (
            (* Only the canonical row shape compiles to SQL. *)
            let pattern = clause.Xq_ast.clause_pattern in
            if pattern.Xq_ast.tag <> "row" && pattern.Xq_ast.tag <> "*" then (fallback, [])
            else
              match Med_sqlgen.compile_clause opts schema pattern candidates with
              | None -> (fallback, [])
              | Some fragment ->
                ( A_sql { source_name = src.Source.name; export; fragment; pattern },
                  fragment.Med_sqlgen.pushed_conditions )))))

and compile ?(opts = Med_sqlgen.default_options) ?feedback catalog (q : Xq_ast.query) =
  (* Resolve accesses clause by clause; once a condition is pushed into a
     fragment it leaves the residual pool. *)
  let residual = ref q.Xq_ast.conditions in
  (* First, try to collapse same-source clause groups into single SQL
     join fragments (repeat until no group remains). *)
  let grouped : (string * access) list ref = ref [] in
  let covered : int list ref = ref [] in
  let next_group_id = ref 0 in
  let continue = ref opts.Med_sqlgen.pushdown_join in
  while !continue do
    let remaining_clauses =
      List.filteri (fun i _ -> not (List.mem i !covered)) q.Xq_ast.clauses
    in
    let index_map =
      List.filteri (fun i _ -> not (List.mem i !covered))
        (List.mapi (fun i _ -> i) q.Xq_ast.clauses)
    in
    match try_join_group opts catalog remaining_clauses !residual with
    | Some (access, local_indices, pushed) ->
      let global = List.map (List.nth index_map) local_indices in
      covered := !covered @ global;
      residual := List.filter (fun c -> not (List.memq c pushed)) !residual;
      grouped := !grouped @ [ (Printf.sprintf "j%d" !next_group_id, access) ];
      incr next_group_id
    | None -> continue := false
  done;
  let singles =
    List.concat
      (List.mapi
         (fun i clause ->
           if List.mem i !covered then []
           else begin
             let access, pushed = clause_access ?feedback opts catalog clause !residual in
             residual := List.filter (fun c -> not (List.memq c pushed)) !residual;
             [ (Printf.sprintf "a%d" i, access) ]
           end)
         q.Xq_ast.clauses)
  in
  let accesses = !grouped @ singles in
  let stats = Med_catalog.stats catalog in
  (* Every row-count guess below goes through the unified estimator:
     exact execution feedback, then statistics, then the flat default. *)
  let weight (_, access) = estimated_rows ?feedback ~stats access in
  let pick_min = function
    | [] -> None
    | first :: rest ->
      let best, _ =
        List.fold_left
          (fun (best, best_w) entry ->
            let w = weight entry in
            if w < best_w then (entry, w) else (best, best_w))
          (first, weight first) rest
      in
      Some best
  in
  let scan (aid, _) = Alg_plan.Scan { source = aid; binding = "*" } in
  (* Greedy connected join order, weighted by estimated cardinality: the
     cheapest access drives the build side, and at each step the
     cheapest access sharing a variable with the accumulated set joins
     next.  Without feedback or statistics every weight is the same
     default, ties keep list order, and the order degenerates to the
     original first-come greedy walk. *)
  let greedy_walk () =
    match pick_min accesses with
    | None -> fail "query has no clauses"
    | Some first ->
      let pending = ref (remove_once first accesses) in
      let current = ref (scan first) in
      let current_vars = ref (access_vars (snd first)) in
      let order = ref [ fst first ] in
      while !pending <> [] do
        let connected, disconnected =
          List.partition
            (fun (_, access) ->
              List.exists (fun v -> List.mem v !current_vars) (access_vars access))
            !pending
        in
        let next, remaining =
          match connected with
          | [] -> (
            match pick_min disconnected with
            | Some next -> (next, remove_once next disconnected)
            | None -> assert false)
          | _ -> (
            match pick_min connected with
            | Some next -> (next, remove_once next connected @ disconnected)
            | None -> assert false)
        in
        let joined, vars =
          join_step !current !current_vars (scan next) (access_vars (snd next))
        in
        current := joined;
        current_vars := vars;
        order := fst next :: !order;
        pending := remaining
      done;
      (!current, List.rev !order)
  in
  let greedy () =
    let plan, order = greedy_walk () in
    let accesses, _ = bind_views opts order accesses in
    (plan, accesses)
  in
  let plan, accesses, opt_info =
    match Med_catalog.optimizer catalog with
    | Med_optimize.Greedy -> 
      let plan, accesses = greedy () in
      (plan, accesses, None)
    | Med_optimize.Dp _ when List.length accesses < 2 ->
      let plan, accesses = greedy () in
      (plan, accesses, None)
    | Med_optimize.Dp { max_relations } -> (
      let rels = Array.of_list accesses in
      let vars = Array.map (fun (_, a) -> access_vars a) rels in
      let ests = Array.map weight rels in
      let shared i j = List.filter (fun v -> List.mem v vars.(j)) vars.(i) in
      let connected i j = shared i j <> [] in
      (* Per-edge selectivity: 1/max(distinct) when statistics know the
         join columns, the flat hash-join guess otherwise. *)
      let join_selectivity i j =
        List.fold_left
          (fun acc v ->
            let distinct_side k =
              Option.bind (var_column (snd rels.(k)) v)
                (fun (source, export, column) ->
                  Med_estimate.column_distinct stats ~source ~export ~column)
            in
            let edge_sel =
              match (distinct_side i, distinct_side j) with
              | Some di, Some dj -> 1.0 /. float_of_int (max 1 (max di dj))
              | Some d, None | None, Some d -> 1.0 /. float_of_int (max 1 d)
              | None, None -> 0.05
            in
            acc *. min 1.0 edge_sel)
          1.0 (shared i j)
      in
      let opt_rels =
        Array.mapi
          (fun i (aid, access) ->
            let profile = access_profile access in
            ignore aid;
            {
              Med_optimize.r_id = fst rels.(i);
              r_rows = ests.(i);
              r_latency_ms = profile.Net_sim.latency_ms;
              r_per_tuple_ms = profile.Net_sim.per_tuple_ms;
            })
          rels
      in
      match
        Med_optimize.enumerate ~max_relations ~connected ~join_selectivity
          opt_rels
      with
      | None ->
        Obs_metrics.inc m_dp_fallbacks;
        let plan, accesses = greedy () in
        ( plan, accesses,
          Some
            {
              oi_mode = "dp-fallback:greedy";
              oi_order = "";
              oi_est_rows = 0.0;
              oi_est_cost_ms = 0.0;
              oi_binds = [];
            } )
      | Some chosen ->
        Obs_metrics.inc m_dp_plans;
        let rec build = function
          | Med_optimize.Leaf i -> (scan rels.(i), vars.(i))
          | Med_optimize.Join (l, r) ->
            let lp, lv = build l in
            let rp, rv = build r in
            join_step lp lv rp rv
        in
        let plan, _ = build chosen.Med_optimize.p_tree in
        let binds = choose_binds opts rels vars ests in
        let accesses = apply_binds rels binds accesses in
        let order =
          List.map (fun i -> fst rels.(i)) (Med_optimize.leaves chosen.Med_optimize.p_tree)
        in
        let accesses, view_binds = bind_views opts order accesses in
        ( plan, accesses,
          Some
            {
              oi_mode = "dp";
              oi_order = Med_optimize.to_string opt_rels chosen.Med_optimize.p_tree;
              oi_est_rows = chosen.Med_optimize.p_rows;
              oi_est_cost_ms = chosen.Med_optimize.p_cost;
              oi_binds =
                List.map (fun (j, i, _) -> (fst rels.(j), fst rels.(i))) binds @ view_binds;
            } ))
  in
  (* Residual conditions filter on top. *)
  let plan =
    List.fold_left (fun p cond -> Alg_plan.Select (p, cond)) plan !residual
  in
  (* ORDER BY / LIMIT: when the whole query is a single SQL fragment with
     nothing filtering above it, ship the ordering and the limit to the
     source (only the first rows cross the wire). *)
  let accesses, order_pushed =
    match accesses, !residual with
    | [ (aid, A_sql ({ fragment; _ } as spec)) ], []
      when q.Xq_ast.order_by <> [] || q.Xq_ast.limit <> None ->
      let translated =
        List.map
          (fun (e, asc) ->
            Option.map
              (fun sql_e -> { Sql_ast.order_expr = sql_e; ascending = asc })
              (Med_sqlgen.translate_condition fragment.Med_sqlgen.binds e))
          q.Xq_ast.order_by
      in
      if List.exists Option.is_none translated then (accesses, false)
      else begin
        let select =
          {
            fragment.Med_sqlgen.sql with
            Sql_ast.order_by = List.map Option.get translated;
            limit = q.Xq_ast.limit;
          }
        in
        let fragment =
          {
            fragment with
            Med_sqlgen.sql = select;
            sql_text = Sql_print.select_to_string select;
          }
        in
        ([ (aid, A_sql { spec with fragment }) ], true)
      end
    | _, _ -> (accesses, false)
  in
  ignore order_pushed;
  (* Ordering and limit stay in the plan even when shipped: re-applying
     them over an already ordered/limited stream is a no-op, and it keeps
     the capability fallback (which ships unordered rows) correct. *)
  let plan =
    match q.Xq_ast.order_by with
    | [] -> plan
    | specs ->
      Alg_plan.Sort
        (plan, List.map (fun (e, asc) -> { Alg_plan.sort_key = e; ascending = asc }) specs)
  in
  let plan =
    match q.Xq_ast.limit with
    | None -> plan
    | Some n -> Alg_plan.Limit (plan, n)
  in
  {
    plan;
    accesses;
    construct = q.Xq_ast.construct;
    source_query = q;
    residual_conditions = !residual;
    opt_info;
  }

let source_rows ?feedback ?stats compiled aid =
  match List.assoc_opt aid compiled.accesses with
  | None -> Med_estimate.default_rows
  | Some access -> estimated_rows ?feedback ?stats access

let access_to_string (aid, access) =
  match access with
  | A_sql { source_name; fragment; _ } ->
    Printf.sprintf "  %s -> SQL @%s: %s" aid source_name fragment.Med_sqlgen.sql_text
  | A_sql_join { source_name; fragment; _ } ->
    Printf.sprintf "  %s -> SQL-JOIN @%s: %s" aid source_name fragment.Med_sqlgen.jf_sql_text
  | A_path { source_name; export; path; pattern; _ } ->
    Printf.sprintf "  %s -> PATH @%s.%s: %s then match %s" aid source_name export
      (Xml_path.to_string path)
      (Xq_pretty.pattern_to_string pattern)
  | A_match { source_name; export; pattern } ->
    Printf.sprintf "  %s -> MATCH @%s.%s: %s" aid source_name export
      (Xq_pretty.pattern_to_string pattern)
  | A_view { view; pattern; composed = None; _ } ->
    Printf.sprintf "  %s -> VIEW %s: %s" aid view (Xq_pretty.pattern_to_string pattern)
  | A_view { view; pattern; composed = Some { absorbed; _ }; bind } ->
    Printf.sprintf "  %s -> VIEW %s (composed): %s%s%s" aid view
      (Xq_pretty.pattern_to_string pattern)
      (match absorbed with
      | [] -> ""
      | conds -> " absorbing " ^ String.concat ", " (List.map Alg_expr.to_string conds))
      (match bind with
      | Some { bind_driver; bind_var } ->
        Printf.sprintf " [narrowed by keys of %s.$%s]" bind_driver bind_var
      | None -> "")
  | A_sql_bind { source_name; fragment; bind = { bind_driver; bind_var }; _ } ->
    Printf.sprintf "  %s -> SQL-BIND @%s: %s [%s IN keys of %s.$%s]" aid
      source_name fragment.Med_sqlgen.sql_text
      (List.assoc bind_var fragment.Med_sqlgen.binds)
      bind_driver bind_var

(* One line per access, and under a composed view the accesses of each
   specialized definition, two spaces deeper per level ([UNION] between
   the definitions of a union view).  [narrowing] is the variable a bind
   narrows this level on, with the bind: a path access it narrows ends
   in the predicate the driver's keys will fill. *)
let rec add_access_lines buf depth ?narrowing entry =
  Buffer.add_string buf (String.make (2 * depth) ' ');
  Buffer.add_string buf (access_to_string entry);
  (match narrowing, snd entry with
  | Some (v, { bind_driver; bind_var }), A_path { path; pattern; _ } -> (
    match Med_pathgen.bind_site path pattern v with
    | Some { Med_pathgen.rel; attr } ->
      Buffer.add_string buf
        (Printf.sprintf " [%s in keys of %s.$%s]" (Xml_path.in_target_to_string rel attr)
           bind_driver bind_var)
    | None -> ())
  | _ -> ());
  Buffer.add_char buf '\n';
  match snd entry with
  | A_view { composed = Some { defs; _ }; bind; _ } ->
    let outer = match bind with Some b -> Some (b.bind_var, b) | None -> narrowing in
    List.iteri
      (fun i d ->
        if i > 0 then Buffer.add_string buf (String.make (2 * depth + 4) ' ' ^ "UNION\n");
        let narrowing =
          Option.bind outer (fun (v, b) -> Option.map (fun v' -> (v', b)) (def_var d v))
        in
        List.iter (add_access_lines buf (depth + 1) ?narrowing) d.sub.accesses)
      defs
  | _ -> ()

let opt_info_to_string oi =
  if oi.oi_order = "" then Printf.sprintf "optimizer: %s" oi.oi_mode
  else
    Printf.sprintf "optimizer: %s order=%s est_rows=%.0f est_cost=%.2fms%s"
      oi.oi_mode oi.oi_order oi.oi_est_rows oi.oi_est_cost_ms
      (match oi.oi_binds with
      | [] -> ""
      | binds ->
        " binds="
        ^ String.concat ","
            (List.map (fun (t, d) -> Printf.sprintf "%s<-%s" t d) binds))

let explain compiled =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Alg_plan.explain compiled.plan);
  (match compiled.opt_info with
  | None -> ()
  | Some oi ->
    Buffer.add_string buf (opt_info_to_string oi);
    Buffer.add_char buf '\n');
  Buffer.add_string buf "accesses:\n";
  List.iter (add_access_lines buf 0) compiled.accesses;
  (match compiled.residual_conditions with
  | [] -> ()
  | conds ->
    Buffer.add_string buf "residual conditions:\n";
    List.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf "  %s\n" (Alg_expr.to_string c)))
      conds);
  Buffer.contents buf
