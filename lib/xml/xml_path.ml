type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Self
  | Following_sibling
  | Preceding_sibling

type test =
  | Name of string
  | Any_element
  | Text_node
  | Attribute of string

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

type pred =
  | Has_attr of string
  | Attr_cmp of string * cmp_op * string
  | Child_exists of string
  | Child_cmp of string * cmp_op * string
  | Text_cmp of cmp_op * string
  | Position of int
  | In_list of { rel : string list; attr : string option; keys : string list }

type step = {
  axis : axis;
  test : test;
  preds : pred list;
}

type t = {
  absolute : bool;
  steps : step list;
}

exception Syntax_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type pstate = {
  input : string;
  len : int;
  mutable pos : int;
}

let pfail msg = raise (Syntax_error msg)

let peek st = if st.pos >= st.len then '\000' else st.input.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.input st.pos n = s

let eat st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else pfail (Printf.sprintf "expected %S at offset %d" s st.pos)

let skip_ws st =
  while peek st = ' ' || peek st = '\t' do
    advance st
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.'

let read_name st =
  let start = st.pos in
  let continue = ref true in
  while !continue && st.pos < st.len && is_name_char (peek st) do
    (* A single ':' may appear in namespaced tags, but "::" is the axis
       separator and must not be swallowed. *)
    if peek st = ':' && st.pos + 1 < st.len && st.input.[st.pos + 1] = ':' then
      continue := false
    else advance st
  done;
  if st.pos = start then pfail (Printf.sprintf "expected a name at offset %d" start);
  String.sub st.input start (st.pos - start)

(* Inside a literal, the quote character doubled stands for itself. *)
let read_string_lit st =
  let quote = peek st in
  if quote <> '\'' && quote <> '"' then pfail "expected a string literal";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then pfail "unterminated string literal"
    else begin
      let c = peek st in
      advance st;
      if c <> quote then begin
        Buffer.add_char buf c;
        go ()
      end
      else if st.pos < st.len && peek st = quote then begin
        Buffer.add_char buf quote;
        advance st;
        go ()
      end
    end
  in
  go ();
  Buffer.contents buf

let read_op st =
  skip_ws st;
  if looking_at st "!=" then begin
    eat st "!=";
    Neq
  end
  else if looking_at st "<=" then begin
    eat st "<=";
    Le
  end
  else if looking_at st ">=" then begin
    eat st ">=";
    Ge
  end
  else if looking_at st "=" then begin
    eat st "=";
    Eq
  end
  else if looking_at st "<" then begin
    eat st "<";
    Lt
  end
  else if looking_at st ">" then begin
    eat st ">";
    Gt
  end
  else pfail "expected a comparison operator"

let read_rhs st =
  skip_ws st;
  if peek st = '\'' || peek st = '"' then read_string_lit st
  else begin
    (* bare number *)
    let start = st.pos in
    while
      st.pos < st.len
      && (let c = peek st in
          (c >= '0' && c <= '9') || c = '.' || c = '-')
    do
      advance st
    done;
    if st.pos = start then pfail "expected a literal";
    String.sub st.input start (st.pos - start)
  end

let in_list ?attr rel keys = In_list { rel; attr; keys = List.sort_uniq String.compare keys }

(* [in] followed by a blank or the opening parenthesis, so a child named
   [in] or [index] still reads as a name. *)
let looking_at_in st =
  looking_at st "in"
  && (st.pos + 2 >= st.len
     || (let c = st.input.[st.pos + 2] in
         c = ' ' || c = '\t' || c = '('))

let read_in_keys st =
  eat st "in";
  skip_ws st;
  eat st "(";
  skip_ws st;
  let rec keys acc =
    let k = read_rhs st in
    skip_ws st;
    if peek st = ',' then begin
      advance st;
      keys (k :: acc)
    end
    else List.rev (k :: acc)
  in
  let ks = if peek st = ')' then [] else keys [] in
  skip_ws st;
  eat st ")";
  ks

let read_pred st =
  eat st "[";
  skip_ws st;
  let p =
    if peek st = '@' then begin
      advance st;
      let name = read_name st in
      skip_ws st;
      if peek st = ']' then Has_attr name
      else if looking_at_in st then in_list ~attr:name [] (read_in_keys st)
      else begin
        let op = read_op st in
        let rhs = read_rhs st in
        Attr_cmp (name, op, rhs)
      end
    end
    else if looking_at st "text()" then begin
      eat st "text()";
      skip_ws st;
      if looking_at_in st then in_list [] (read_in_keys st)
      else begin
        let op = read_op st in
        let rhs = read_rhs st in
        Text_cmp (op, rhs)
      end
    end
    else if looking_at st "position()" then begin
      eat st "position()";
      skip_ws st;
      eat st "=";
      skip_ws st;
      let rhs = read_rhs st in
      match int_of_string_opt rhs with
      | Some k -> Position k
      | None -> pfail "position() requires an integer"
    end
    else begin
      let name = read_name st in
      if peek st = '/' then begin
        (* A relative child path, optionally ending in an attribute:
           only an IN-list tests one. *)
        let rec rel acc =
          if peek st = '/' then begin
            advance st;
            if peek st = '@' then begin
              advance st;
              let attr = read_name st in
              (List.rev acc, Some attr)
            end
            else rel (read_name st :: acc)
          end
          else (List.rev acc, None)
        in
        let rel, attr = rel [ name ] in
        skip_ws st;
        if not (looking_at_in st) then pfail (Printf.sprintf "expected 'in' at offset %d" st.pos);
        in_list ?attr rel (read_in_keys st)
      end
      else begin
        skip_ws st;
        if peek st = ']' then Child_exists name
        else if looking_at_in st then in_list [ name ] (read_in_keys st)
        else begin
          let op = read_op st in
          let rhs = read_rhs st in
          Child_cmp (name, op, rhs)
        end
      end
    end
  in
  skip_ws st;
  eat st "]";
  p

let axis_of_string = function
  | "child" -> Child
  | "descendant" -> Descendant
  | "descendant-or-self" -> Descendant_or_self
  | "parent" -> Parent
  | "ancestor" -> Ancestor
  | "self" -> Self
  | "following-sibling" -> Following_sibling
  | "preceding-sibling" -> Preceding_sibling
  | other -> pfail (Printf.sprintf "unknown axis %S" other)

let read_step st default_axis =
  skip_ws st;
  let axis, test =
    if looking_at st ".." then begin
      eat st "..";
      (Parent, Any_element)
    end
    else if looking_at st "text()" then begin
      eat st "text()";
      (default_axis, Text_node)
    end
    else if peek st = '.' then begin
      advance st;
      (Self, Any_element)
    end
    else if peek st = '@' then begin
      advance st;
      let name = read_name st in
      (* [/e/@a] selects the attribute of the elements already in
         context, i.e. the self axis filtered on attribute presence. *)
      (Self, Attribute name)
    end
    else if peek st = '*' then begin
      advance st;
      (default_axis, Any_element)
    end
    else begin
      let name = read_name st in
      if looking_at st "::" then begin
        eat st "::";
        let axis = axis_of_string name in
        let test =
          if peek st = '*' then begin
            advance st;
            Any_element
          end
          else if looking_at st "text()" then begin
            eat st "text()";
            Text_node
          end
          else if peek st = '@' then begin
            advance st;
            Attribute (read_name st)
          end
          else Name (read_name st)
        in
        (axis, test)
      end
      else (default_axis, Name name)
    end
  in
  let rec preds acc = if peek st = '[' then preds (read_pred st :: acc) else List.rev acc in
  { axis; test; preds = preds [] }

let parse_exn input =
  let st = { input; len = String.length input; pos = 0 } in
  skip_ws st;
  if st.pos >= st.len then pfail "empty path";
  let absolute = peek st = '/' in
  let rec steps acc first =
    skip_ws st;
    if st.pos >= st.len then List.rev acc
    else begin
      let default_axis =
        if looking_at st "//" then begin
          eat st "//";
          Descendant
        end
        else if peek st = '/' then begin
          advance st;
          Child
        end
        else if first then Child
        else pfail (Printf.sprintf "expected '/' at offset %d" st.pos)
      in
      skip_ws st;
      if st.pos >= st.len then pfail "trailing '/'";
      let step = read_step st default_axis in
      steps (step :: acc) false
    end
  in
  let steps = steps [] true in
  if steps = [] then pfail "empty path";
  { absolute; steps }

let parse input =
  try Ok (parse_exn input) with Syntax_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let axis_to_string = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Self -> "self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"

let test_to_string = function
  | Name n -> n
  | Any_element -> "*"
  | Text_node -> "text()"
  | Attribute n -> "@" ^ n

let op_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Injective: single quotes unless the value holds one, then double
   quotes unless it holds both, then single quotes with each one
   doubled.  The rendering is the fragment cache's identity for a path,
   so two literals must never print alike. *)
let literal_to_string v =
  if not (String.contains v '\'') then "'" ^ v ^ "'"
  else if not (String.contains v '"') then "\"" ^ v ^ "\""
  else "'" ^ String.concat "''" (String.split_on_char '\'' v) ^ "'"

let in_target_to_string rel attr =
  match rel, attr with
  | [], None -> "text()"
  | [], Some a -> "@" ^ a
  | rel, None -> String.concat "/" rel
  | rel, Some a -> String.concat "/" rel ^ "/@" ^ a

let pred_to_string = function
  | Has_attr n -> Printf.sprintf "[@%s]" n
  | Attr_cmp (n, op, v) -> Printf.sprintf "[@%s%s%s]" n (op_to_string op) (literal_to_string v)
  | Child_exists n -> Printf.sprintf "[%s]" n
  | Child_cmp (n, op, v) -> Printf.sprintf "[%s%s%s]" n (op_to_string op) (literal_to_string v)
  | Text_cmp (op, v) -> Printf.sprintf "[text()%s%s]" (op_to_string op) (literal_to_string v)
  | Position k -> Printf.sprintf "[position()=%d]" k
  | In_list { rel; attr; keys } ->
    (* Sorted and deduplicated: one key set, one rendering. *)
    Printf.sprintf "[%s in (%s)]" (in_target_to_string rel attr)
      (String.concat "," (List.map literal_to_string (List.sort_uniq String.compare keys)))

let step_to_string s =
  Printf.sprintf "%s::%s%s" (axis_to_string s.axis) (test_to_string s.test)
    (String.concat "" (List.map pred_to_string s.preds))

let to_string p =
  (if p.absolute then "/" else "")
  ^ String.concat "/" (List.map step_to_string p.steps)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let compare_values op lhs rhs =
  let num =
    match float_of_string_opt lhs, float_of_string_opt rhs with
    | Some a, Some b -> Some (Float.compare a b)
    | _, _ -> None
  in
  let c = match num with Some c -> c | None -> String.compare lhs rhs in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* [compare_values Eq v k] for some key [k], in one hash probe: a value
   that parses as a float equals exactly the numeric keys of its value
   (canonical bits, since [Float.compare] equates -0. with 0. and every
   nan), and any other value exactly the identical non-numeric key. *)
let in_keys keys =
  let canonical f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f in
  let nums = Hashtbl.create 8 and strs = Hashtbl.create 8 in
  List.iter
    (fun k ->
      match float_of_string_opt k with
      | Some f -> Hashtbl.replace nums (Int64.bits_of_float (canonical f)) ()
      | None -> Hashtbl.replace strs k ())
    keys;
  fun v ->
    match float_of_string_opt v with
    | Some f -> Hashtbl.mem nums (Int64.bits_of_float (canonical f))
    | None -> Hashtbl.mem strs v

let in_list_holds rel attr mem e =
  let targets =
    List.fold_left
      (fun es name -> List.concat_map (fun e -> Xml_types.children_named e name) es)
      [ e ] rel
  in
  List.exists
    (fun t ->
      match attr with
      | Some a -> ( match Xml_types.attr t a with Some v -> mem v | None -> false)
      | None -> mem (Xml_types.text_content t))
    targets

(* A predicate as a test over (candidate, position), built once per step
   so an IN-list hashes its keys once, not per candidate. *)
let pred_test p =
  let on_element holds cursor _ = holds (Xml_cursor.element cursor) in
  match p with
  | Has_attr n -> on_element (fun e -> Xml_types.attr e n <> None)
  | Attr_cmp (n, op, rhs) ->
    on_element (fun e ->
        match Xml_types.attr e n with
        | Some v -> compare_values op v rhs
        | None -> false)
  | Child_exists n -> on_element (fun e -> Xml_types.children_named e n <> [])
  | Child_cmp (n, op, rhs) ->
    on_element (fun e ->
        List.exists
          (fun c -> compare_values op (Xml_types.text_content c) rhs)
          (Xml_types.children_named e n))
  | Text_cmp (op, rhs) -> on_element (fun e -> compare_values op (Xml_types.text_content e) rhs)
  | Position k -> fun _ position -> position = k
  | In_list { rel; attr; keys } -> on_element (in_list_holds rel attr (in_keys keys))

let axis_candidates axis cursor =
  match axis with
  | Child -> Xml_cursor.children cursor
  | Descendant -> Xml_cursor.descendants cursor
  | Descendant_or_self -> Xml_cursor.descendants_or_self cursor
  | Parent -> ( match Xml_cursor.parent cursor with Some p -> [ p ] | None -> [])
  | Ancestor -> Xml_cursor.ancestors cursor
  | Self -> [ cursor ]
  | Following_sibling -> Xml_cursor.following_siblings cursor
  | Preceding_sibling -> Xml_cursor.preceding_siblings cursor

let test_holds test cursor =
  let e = Xml_cursor.element cursor in
  match test with
  | Any_element -> true
  | Name n -> String.equal e.Xml_types.tag n
  | Text_node -> true (* text selection resolved at extraction time *)
  | Attribute n -> Xml_types.attr e n <> None

let eval_step step cursors =
  let tests = List.map pred_test step.preds in
  List.concat_map
    (fun cursor ->
      let candidates = axis_candidates step.axis cursor in
      let named = List.filter (test_holds step.test) candidates in
      (* Predicates see positions within the candidate list for this
         context node, matching XPath's child-positional semantics. *)
      List.filteri (fun i c -> List.for_all (fun t -> t c (i + 1)) tests) named)
    cursors

let dedup_in_order cursors =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key = Xml_cursor.path c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cursors

let eval p context =
  let start = if p.absolute then Xml_cursor.root context else context in
  let result = List.fold_left (fun cs step -> eval_step step cs) [ start ] p.steps in
  let result = dedup_in_order result in
  List.sort Xml_cursor.compare_order result

let select p root =
  List.map Xml_cursor.element (eval p (Xml_cursor.of_root root))

let select_strings p root =
  let cursors = eval p (Xml_cursor.of_root root) in
  let last_test =
    match List.rev p.steps with
    | [] -> Any_element
    | s :: _ -> s.test
  in
  match last_test with
  | Attribute n ->
    List.filter_map (fun c -> Xml_types.attr (Xml_cursor.element c) n) cursors
  | Name _ | Any_element | Text_node ->
    List.map (fun c -> Xml_types.text_content (Xml_cursor.element c)) cursors

let matches p root = select p root <> []
