let distinct names = List.length (List.sort_uniq String.compare names) = List.length names

let compile_pattern (p : Xq_ast.pattern) =
  if p.Xq_ast.tag = "*" then None
  else begin
    let attr_preds =
      List.map
        (fun (aname, ap) ->
          match ap with
          | Xq_ast.A_lit s -> Xml_path.Attr_cmp (aname, Xml_path.Eq, s)
          | Xq_ast.A_var _ -> Xml_path.Has_attr aname)
        p.Xq_ast.attrs
    in
    let child_preds =
      List.filter_map
        (fun child ->
          match child with
          | Xq_ast.P_element sub when sub.Xq_ast.tag <> "*" -> (
            match sub.Xq_ast.children with
            | [ Xq_ast.P_text s ] ->
              Some (Xml_path.Child_cmp (sub.Xq_ast.tag, Xml_path.Eq, s))
            | _ -> Some (Xml_path.Child_exists sub.Xq_ast.tag))
          (* Content bindings and top-level text matches derive no safe
             predicate (whitespace handling differs between the XML and
             tree views), so they stay client-side. *)
          | Xq_ast.P_element _ | Xq_ast.P_var _ | Xq_ast.P_text _ -> None)
        p.Xq_ast.children
    in
    Some
      {
        Xml_path.absolute = true;
        steps =
          [
            {
              Xml_path.axis = Xml_path.Descendant_or_self;
              test = Xml_path.Name p.Xq_ast.tag;
              preds = attr_preds @ child_preds;
            };
          ];
      }
  end

(* ------------------------------------------------------------------ *)
(* Bind keys on a path                                                 *)
(* ------------------------------------------------------------------ *)

type site = { rel : string list; attr : string option }

(* The first place the pattern binds [v] as an attribute or as the sole
   content of an element, with the child tags leading there from the
   root.  Content shared with siblings (CONTENT_AS) and ELEMENT_AS are
   not sites. *)
let rec find_site rev_tags (q : Xq_ast.pattern) v =
  match
    List.find_map
      (function a, Xq_ast.A_var w when w = v -> Some a | _ -> None)
      q.Xq_ast.attrs
  with
  | Some a -> Some { rel = List.rev rev_tags; attr = Some a }
  | None ->
    List.find_map
      (function
        | Xq_ast.P_element sub -> (
          let rev_tags = sub.Xq_ast.tag :: rev_tags in
          match sub.Xq_ast.children with
          | [ Xq_ast.P_var w ] when w = v -> Some { rel = List.rev rev_tags; attr = None }
          | _ -> find_site rev_tags sub v)
        | Xq_ast.P_var _ | Xq_ast.P_text _ -> None)
      q.Xq_ast.children

let positional (step : Xml_path.step) =
  List.exists (function Xml_path.Position _ -> true | _ -> false) step.Xml_path.preds

let bind_site (path : Xml_path.t) (p : Xq_ast.pattern) v =
  match path.Xml_path.steps with
  | [ step ] when not (positional step) -> (
    match find_site [] p v with
    | Some site ->
      let tags = p.Xq_ast.tag :: site.rel in
      if List.mem "*" tags || not (distinct tags) then None else Some site
    | None -> None)
  | _ -> None

let key_text (k : Value.t) =
  let s = Value.to_string k in
  match k with
  | Value.Null -> None
  | Value.Float f -> (
    match float_of_string_opt s with
    | Some f' when Float.compare f f' = 0 -> Some s
    | Some _ | None -> None)
  | Value.Bool _ | Value.Int _ | Value.String _ | Value.Date _ ->
    if String.trim s = "" then None else Some s

let narrow (path : Xml_path.t) site keys =
  match path.Xml_path.steps with
  | [] -> path
  | first :: rest ->
    let preds = first.Xml_path.preds @ [ Xml_path.in_list ?attr:site.attr site.rel keys ] in
    { path with Xml_path.steps = { first with Xml_path.preds } :: rest }

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)
(* ------------------------------------------------------------------ *)

(* The element sub-patterns of [p] testing [tag]. *)
let tagged (p : Xq_ast.pattern) tag =
  List.filter_map
    (function
      | Xq_ast.P_element sub when String.equal sub.Xq_ast.tag tag -> Some sub
      | Xq_ast.P_element _ | Xq_ast.P_var _ | Xq_ast.P_text _ -> None)
    p.Xq_ast.children

(* What [Xq_eval.match_pattern] reads of an element matching [p]: its
   attributes, and the children its element sub-patterns can match.
   Content (a variable or text child), ELEMENT_AS and a [*] child read
   everything; a tag two sub-patterns share stays whole, so each kept
   child has one sub-pattern to shape it. *)
let rec pattern_shape (p : Xq_ast.pattern) =
  let reads_all =
    p.Xq_ast.tag = "*"
    || p.Xq_ast.element_as <> None
    || List.exists
         (function
           | Xq_ast.P_var _ | Xq_ast.P_text _ -> true
           | Xq_ast.P_element sub -> sub.Xq_ast.tag = "*")
         p.Xq_ast.children
  in
  if reads_all then Source.Whole
  else
    let tags =
      List.sort_uniq String.compare
        (List.filter_map
           (function Xq_ast.P_element sub -> Some sub.Xq_ast.tag | _ -> None)
           p.Xq_ast.children)
    in
    Source.Kids
      (List.map
         (fun tag ->
           match tagged p tag with
           | [ sub ] -> (tag, None, pattern_shape sub)
           | _ -> (tag, None, Source.Whole))
         tags)

let shape ?bound (path : Xml_path.t) (p : Xq_ast.pattern) =
  match path.Xml_path.steps with
  | [ ({ Xml_path.test = Xml_path.Name tag; _ } as step) ]
    when String.equal tag p.Xq_ast.tag && not (positional step) -> (
    match pattern_shape p, bound with
    | Source.Kids kids, Some ({ rel = first :: rest; attr }, keys)
      when List.length (tagged p first) = 1 ->
      Source.Kids
        (List.map
           (fun (tag, pred, sub) ->
             if String.equal tag first then (tag, Some (Xml_path.in_list ?attr rest keys), sub)
             else (tag, pred, sub))
           kids)
    | shape, _ -> shape)
  | _ -> Source.Whole
