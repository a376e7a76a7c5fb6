type t = (string * Value.t) array

let empty = [||]

let check_distinct arr =
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let name = fst arr.(i) in
    for j = i + 1 to n - 1 do
      if String.equal name (fst arr.(j)) then
        invalid_arg (Printf.sprintf "Tuple.make: duplicate field %S" name)
    done
  done;
  arr

let make bindings = check_distinct (Array.of_list bindings)

let of_arrays names values = check_distinct (Array.map2 (fun n v -> (n, v)) names values)

let fields t = Array.to_list t
let field_names t = Array.to_list (Array.map fst t)
let values t = Array.to_list (Array.map snd t)
let arity t = Array.length t

let find_index t name =
  let n = Array.length t in
  let rec go i = if i >= n then -1 else if String.equal (fst t.(i)) name then i else go (i + 1) in
  go 0

let get t name =
  let i = find_index t name in
  if i < 0 then None else Some (snd t.(i))

let get_exn t name =
  let i = find_index t name in
  if i < 0 then raise Not_found else snd t.(i)

let mem t name = find_index t name >= 0

let set t name v =
  let i = find_index t name in
  if i < 0 then Array.append t [| (name, v) |]
  else begin
    let t' = Array.copy t in
    t'.(i) <- (name, v);
    t'
  end

let remove t name =
  let i = find_index t name in
  if i < 0 then t
  else Array.append (Array.sub t 0 i) (Array.sub t (i + 1) (Array.length t - i - 1))

let project t names =
  Array.of_list
    (List.map
       (fun name ->
         match get t name with
         | Some v -> (name, v)
         | None -> (name, Value.Null))
       names)

let rename t mapping =
  Array.map
    (fun (name, v) ->
      match List.assoc_opt name mapping with
      | Some name' -> (name', v)
      | None -> (name, v))
    t

let prefix p t = Array.map (fun (name, v) -> (p ^ "." ^ name, v)) t

let concat a b =
  let extra = Array.to_list b |> List.filter (fun (name, _) -> find_index a name < 0) in
  Array.append a (Array.of_list extra)

let compare a b =
  let c = List.compare String.compare (field_names a) (field_names b) in
  if c <> 0 then c else List.compare Value.compare (values a) (values b)

let equal a b = compare a b = 0

let hash t =
  Array.fold_left (fun acc (name, v) -> (acc * 31) + Hashtbl.hash name + Value.hash v) 7 t

let to_string t =
  let field (name, v) = Printf.sprintf "%s=%s" name (Value.to_display v) in
  "{" ^ String.concat ", " (List.map field (fields t)) ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)
