exception Eval_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

type layout = string array

let find_slot layout name =
  let n = Array.length layout in
  let rec go i = if i >= n then -1 else if String.equal layout.(i) name then i else go (i + 1) in
  go 0

let slot layout qualifier name =
  match qualifier with
  | Some q -> (
    let i = find_slot layout (q ^ "." ^ name) in
    if i >= 0 then Ok i
    else
      (* A bare-named field also answers a qualified reference when it is
         the only candidate (single-table queries need no prefixes). *)
      let i = find_slot layout name in
      if i >= 0 then Ok i else Error (Printf.sprintf "unknown column %s.%s" q name))
  | None -> (
    let i = find_slot layout name in
    if i >= 0 then Ok i
    else
      let suffix = "." ^ name in
      let candidates = ref [] in
      Array.iteri
        (fun i fname -> if String.ends_with ~suffix fname then candidates := i :: !candidates)
        layout;
      match !candidates with
      | [ i ] -> Ok i
      | [] -> Error (Printf.sprintf "unknown column %s" name)
      | _ :: _ :: _ -> Error (Printf.sprintf "ambiguous column %s" name))

let like_match ~pattern s =
  let pn = String.length pattern and sn = String.length s in
  (* Classic two-pointer LIKE matcher with backtracking on '%'. *)
  let rec go pi si star_pi star_si =
    if pi < pn && pattern.[pi] = '%' then go (pi + 1) si (pi + 1) si
    else if si < sn && pi < pn && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if si >= sn then pi >= pn || (pi < pn && pattern.[pi] = '%' && go (pi + 1) si star_pi star_si)
    else if star_pi >= 0 then go star_pi (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

let scalar_functions =
  [ "upper"; "lower"; "length"; "abs"; "coalesce"; "substr"; "trim"; "round"; "concat" ]

let apply_function name args =
  match name, args with
  | "upper", [ Value.Null ] | "lower", [ Value.Null ] | "trim", [ Value.Null ] -> Value.Null
  | "upper", [ v ] -> Value.String (String.uppercase_ascii (Value.to_string v))
  | "lower", [ v ] -> Value.String (String.lowercase_ascii (Value.to_string v))
  | "trim", [ v ] -> Value.String (String.trim (Value.to_string v))
  | "length", [ Value.Null ] -> Value.Null
  | "length", [ v ] -> Value.Int (String.length (Value.to_string v))
  | "abs", [ Value.Null ] -> Value.Null
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "round", [ Value.Null ] -> Value.Null
  | "round", [ Value.Float f ] -> Value.Int (int_of_float (Float.round f))
  | "round", [ Value.Int i ] -> Value.Int i
  | "coalesce", args ->
    let rec first = function
      | [] -> Value.Null
      | Value.Null :: rest -> first rest
      | v :: _ -> v
    in
    first args
  | "substr", [ v; Value.Int start ] ->
    let s = Value.to_string v in
    let start = max 1 start - 1 in
    if start >= String.length s then Value.String ""
    else Value.String (String.sub s start (String.length s - start))
  | "substr", [ v; Value.Int start; Value.Int count ] ->
    let s = Value.to_string v in
    let start = max 1 start - 1 in
    if start >= String.length s then Value.String ""
    else Value.String (String.sub s start (min count (String.length s - start)))
  | "concat", args ->
    Value.String (String.concat "" (List.map Value.to_string args))
  | name, args -> fail "unknown function %s/%d" name (List.length args)

(* Both results are static constants: predicates over many rows
   allocate no booleans. *)
let bool b = if b then Value.Bool true else Value.Bool false

(* The test a comparison applies to [Value.compare]'s result. *)
let comparison = function
  | Sql_ast.Eq -> fun c -> c = 0
  | Sql_ast.Neq -> fun c -> c <> 0
  | Sql_ast.Lt -> fun c -> c < 0
  | Sql_ast.Le -> fun c -> c <= 0
  | Sql_ast.Gt -> fun c -> c > 0
  | Sql_ast.Ge -> fun c -> c >= 0
  | Sql_ast.Add | Sql_ast.Sub | Sql_ast.Mul | Sql_ast.Div | Sql_ast.And | Sql_ast.Or ->
    invalid_arg "Sql_eval.comparison"

(* Each closure evaluates its operands in the order the former tuple
   interpreter did: OCaml applies [f (eval a) (eval b)] right operand
   first, so comparisons and arithmetic read [b] before [a], while
   BETWEEN and function arguments go left to right.  The same error
   therefore surfaces first when several operands fail. *)
let rec compile layout expr : Value.t array -> Value.t =
  match expr with
  | Sql_ast.Col (q, n) -> (
    match slot layout q n with
    | Ok i -> fun row -> row.(i)
    | Error m -> fun _ -> raise (Eval_error m))
  | Sql_ast.Lit v -> fun _ -> v
  | Sql_ast.Unop (Sql_ast.Neg, e) -> (
    let ce = compile layout e in
    fun row ->
      match ce row with
      | Value.Null -> Value.Null
      | v -> (
        try Value.neg v with Invalid_argument _ -> fail "cannot negate %s" (Value.to_display v)))
  | Sql_ast.Unop (Sql_ast.Not, e) -> (
    let ce = compile layout e in
    fun row ->
      match ce row with
      | Value.Null -> Value.Null
      | v -> bool (not (Value.is_truthy v)))
  | Sql_ast.Binop (Sql_ast.And, a, b) -> (
    (* Kleene AND: F dominates. *)
    let ca = compile layout a and cb = compile layout b in
    fun row ->
      match ca row with
      | Value.Bool false -> Value.Bool false
      | va -> (
        match cb row with
        | Value.Bool false -> Value.Bool false
        | vb -> (
          match va, vb with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | va, vb -> bool (Value.is_truthy va && Value.is_truthy vb))))
  | Sql_ast.Binop (Sql_ast.Or, a, b) -> (
    let ca = compile layout a and cb = compile layout b in
    fun row ->
      match ca row with
      | Value.Bool true -> Value.Bool true
      | va -> (
        match cb row with
        | Value.Bool true -> Value.Bool true
        | vb -> (
          match va, vb with
          | Value.Null, _ | _, Value.Null -> Value.Null
          | va, vb -> bool (Value.is_truthy va || Value.is_truthy vb))))
  | Sql_ast.Binop ((Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op, a, b) ->
    let ca = compile layout a and cb = compile layout b and holds = comparison op in
    fun row -> (
      let vb = cb row in
      match ca row, vb with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> bool (holds (Value.compare va vb)))
  | Sql_ast.Binop (Sql_ast.Add, a, b) -> arith layout Value.add a b
  | Sql_ast.Binop (Sql_ast.Sub, a, b) -> arith layout Value.sub a b
  | Sql_ast.Binop (Sql_ast.Mul, a, b) -> arith layout Value.mul a b
  | Sql_ast.Binop (Sql_ast.Div, a, b) -> arith layout Value.div a b
  | Sql_ast.Fncall (name, args) ->
    let cargs = List.map (compile layout) args in
    fun row -> apply_function name (List.map (fun c -> c row) cargs)
  | Sql_ast.Like (e, pattern) -> (
    let ce = compile layout e in
    fun row ->
      match ce row with
      | Value.Null -> Value.Null
      | v -> bool (like_match ~pattern (Value.to_string v)))
  | Sql_ast.In_list (e, es) -> (
    let ce = compile layout e and ces = List.map (compile layout) es in
    fun row ->
      match ce row with
      | Value.Null -> Value.Null
      | v ->
        let vs = List.map (fun c -> c row) ces in
        if List.exists (fun x -> Value.compare_sql v x = Some 0) vs then Value.Bool true
        else if List.exists (fun x -> x = Value.Null) vs then Value.Null
        else Value.Bool false)
  | Sql_ast.Between (e, lo, hi) -> (
    let ce = compile layout e and clo = compile layout lo and chi = compile layout hi in
    fun row ->
      let v = ce row in
      let vlo = clo row in
      let vhi = chi row in
      match Value.compare_sql v vlo, Value.compare_sql v vhi with
      | Some a, Some b -> bool (a >= 0 && b <= 0)
      | _, _ -> Value.Null)
  | Sql_ast.Is_null e ->
    let ce = compile layout e in
    fun row -> bool (ce row = Value.Null)
  | Sql_ast.Is_not_null e ->
    let ce = compile layout e in
    fun row -> bool (ce row <> Value.Null)

and arith layout f a b =
  let ca = compile layout a and cb = compile layout b in
  fun row ->
    let vb = cb row in
    let va = ca row in
    try f va vb
    with Invalid_argument _ ->
      fail "type error in arithmetic on %s and %s" (Value.to_display va) (Value.to_display vb)

let truthy = function
  | Value.Null -> false
  | v -> Value.is_truthy v

let compile_pred layout expr =
  let c = compile layout expr in
  fun row -> truthy (c row)

let layout_of tup = Array.of_list (Tuple.field_names tup)

let eval tup expr = compile (layout_of tup) expr (Array.of_list (Tuple.values tup))

let eval_pred tup expr = truthy (eval tup expr)
