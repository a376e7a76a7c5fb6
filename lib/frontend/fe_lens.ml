type param = {
  param_name : string;
  param_ty : Value.ty;
  default : Value.t option;
}

type t = {
  lens_name : string;
  queries : (string * string) list;
  params : param list;
  device : Fe_format.device;
  required_role : Fe_auth.role;
}

exception Lens_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Lens_error m)) fmt

let placeholders template =
  let out = ref [] in
  let n = String.length template in
  let i = ref 0 in
  while !i < n do
    if template.[!i] = '%' then begin
      match String.index_from_opt template (!i + 1) '%' with
      | Some j when j > !i + 1 ->
        let name = String.sub template (!i + 1) (j - !i - 1) in
        let is_ident =
          String.for_all
            (fun c ->
              (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_')
            name
        in
        if is_ident then begin
          if not (List.mem name !out) then out := !out @ [ name ];
          i := j + 1
        end
        else incr i
      | Some _ | None -> incr i
    end
    else incr i
  done;
  !out

let param ?default param_name param_ty = { param_name; param_ty; default }

let make ?(params = []) ?(device = Fe_format.Text) ?(required_role = Fe_auth.Viewer) ~name
    queries =
  let qnames = List.map fst queries in
  if List.length (List.sort_uniq String.compare qnames) <> List.length qnames then
    fail "lens %s: duplicate query names" name;
  List.iter
    (fun (qname, template) ->
      List.iter
        (fun ph ->
          if not (List.exists (fun p -> p.param_name = ph) params) then
            fail "lens %s, query %s: undeclared parameter %%%s%%" name qname ph)
        (placeholders template))
    queries;
  { lens_name = name; queries; params; device; required_role }

let literal_of_value v =
  match v with
  | Value.String s ->
    (* XML-QL string literal with double quotes; escape embedded ones. *)
    let escaped =
      String.concat "\\\"" (String.split_on_char '"' s)
    in
    Printf.sprintf "\"%s\"" escaped
  | Value.Null -> "NULL"
  | Value.Bool true -> "TRUE"
  | Value.Bool false -> "FALSE"
  | Value.Date _ -> Printf.sprintf "\"%s\"" (Value.to_string v)
  | Value.Int _ | Value.Float _ -> Value.to_string v

let substitute template resolved =
  let buf = Buffer.create (String.length template + 32) in
  let n = String.length template in
  let i = ref 0 in
  while !i < n do
    if template.[!i] = '%' then begin
      match String.index_from_opt template (!i + 1) '%' with
      | Some j when j > !i + 1 -> (
        let name = String.sub template (!i + 1) (j - !i - 1) in
        match List.assoc_opt name resolved with
        | Some v ->
          Buffer.add_string buf (literal_of_value v);
          i := j + 1
        | None ->
          Buffer.add_char buf '%';
          incr i)
      | Some _ | None ->
        Buffer.add_char buf '%';
        incr i
    end
    else begin
      Buffer.add_char buf template.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let template_of lens query_name =
  match List.assoc_opt query_name lens.queries with
  | Some t -> t
  | None -> fail "lens %s has no query %S" lens.lens_name query_name

let resolve_args lens query_name args =
  let template = template_of lens query_name in
  let resolve p =
    match List.assoc_opt p.param_name args with
    | Some raw -> (
      match Value.parse_as p.param_ty raw with
      | Some v -> (p.param_name, v)
      | None ->
        fail "lens %s: argument %s=%S is not a %s" lens.lens_name p.param_name raw
          (Value.ty_to_string p.param_ty))
    | None -> (
      match p.default with
      | Some v -> (p.param_name, v)
      | None -> fail "lens %s: missing argument %s" lens.lens_name p.param_name)
  in
  let needed = placeholders template in
  List.filter_map
    (fun p -> if List.mem p.param_name needed then Some (resolve p) else None)
    lens.params

let instantiate_values lens query_name resolved =
  let template = template_of lens query_name in
  let text = substitute template resolved in
  match Xq_parser.parse text with
  | Ok q -> q
  | Error m -> fail "lens %s, query %s: %s" lens.lens_name query_name m

let instantiate lens query_name args =
  instantiate_values lens query_name (resolve_args lens query_name args)

let query_names lens = List.map fst lens.queries

(* ------------------------------------------------------------------ *)
(* Parameter shapes (plan-cache keys)                                  *)
(* ------------------------------------------------------------------ *)

(* A rebindable value is one whose sentinel stand-in parses to the same
   AST shape as the real value, and whose real value can be written into
   the parsed query without consulting the lexer again:
   - strings without backslashes (the lexer's escape rules are the
     identity on them, modulo the quote escaping [literal_of_value]
     adds and the lexer removes);
   - non-negative integers (negative literals parse as [Neg (Const n)]
     in condition position and are rejected outright in attribute
     position, so their parses are value-specific);
   - non-negative floats whose rendering is plain [digits.digits] and
     parses back to the identical float (no exponent forms — the lexer
     has none — and no precision loss). *)
let rebindable = function
  | Value.String s -> not (String.contains s '\\')
  | Value.Int i -> i >= 0
  | Value.Float f ->
    f >= 0.0
    && Float.is_finite f
    &&
    let s = Value.to_string (Value.Float f) in
    String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.') s
    && (match float_of_string_opt s with Some g -> g = f | None -> false)
  | Value.Bool _ | Value.Null | Value.Date _ -> false

(* DEL-bracketed markers, enormous integers, and huge integral floats:
   none can collide with plausible template text or generated data, and
   each renders/parses exactly. *)
let sentinel_for i v =
  match v with
  | Value.String _ -> Value.String (Printf.sprintf "\127nimble-param-%d\127" i)
  | Value.Int _ -> Value.Int (4611686018427000000 + i)
  | Value.Float _ -> Value.Float (9.0e14 +. float_of_int i)
  | _ -> invalid_arg "Fe_lens.sentinel_for: value class is not rebindable"

let class_tag = function
  | Value.String _ -> "str"
  | Value.Int _ -> "int"
  | Value.Float _ -> "float"
  | _ -> invalid_arg "Fe_lens.class_tag"

let param_shape lens query_name resolved =
  let cell (name, v) =
    if rebindable v then name ^ ":" ^ class_tag v
    else name ^ "=" ^ String.escaped (literal_of_value v)
  in
  Printf.sprintf "%s/%s?%s" lens.lens_name query_name
    (String.concat "&" (List.map cell resolved))
