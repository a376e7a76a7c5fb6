type index_kind = Btree_index | Hash_index

type index_impl =
  | Ibtree of (Value.t, int) Rel_btree.t
  | Ihash of (Value.t, int list) Hashtbl.t

type index = {
  idx_column : string;
  idx_pos : int;
  impl : index_impl;
}

type t = {
  tbl_schema : Dschema.relational;
  tbl_columns : string array;  (* column names: the layout of every stored row *)
  tbl_primary_key : string option;
  pk_pos : int;  (* -1 when none *)
  mutable slots : Value.t array option array;
  mutable next_slot : int;
  mutable live : int;
  mutable indexes : index list;
}

exception Constraint_violation of string

let column_pos schema cname =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if String.equal c.Dschema.col_name cname then i else go (i + 1) rest
  in
  go 0 schema.Dschema.columns

let create ?primary_key schema =
  let pk_pos =
    match primary_key with
    | None -> -1
    | Some k ->
      let p = column_pos schema k in
      if p < 0 then
        invalid_arg (Printf.sprintf "Rel_table.create: primary key %S is not a column" k);
      p
  in
  {
    tbl_schema = schema;
    tbl_columns = Array.of_list (Dschema.column_names schema);
    tbl_primary_key = primary_key;
    pk_pos;
    slots = Array.make 16 None;
    next_slot = 0;
    live = 0;
    indexes = [];
  }

let schema t = t.tbl_schema
let name t = t.tbl_schema.Dschema.rel_name
let row_count t = t.live
let primary_key t = t.tbl_primary_key
let columns t = t.tbl_columns

let row_to_tuple t row = Tuple.of_arrays t.tbl_columns row

let tuple_to_row t tup =
  match Dschema.coerce_tuple t.tbl_schema tup with
  | None ->
    raise
      (Constraint_violation
         (Printf.sprintf "row %s does not conform to schema %s" (Tuple.to_string tup)
            (Dschema.relational_to_string t.tbl_schema)))
  | Some coerced -> Array.of_list (Tuple.values coerced)

let grow t =
  if t.next_slot >= Array.length t.slots then begin
    let bigger = Array.make (max 16 (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end

let index_add idx v rowid =
  match idx.impl with
  | Ibtree bt -> Rel_btree.insert bt v rowid
  | Ihash h ->
    let existing = Option.value ~default:[] (Hashtbl.find_opt h v) in
    Hashtbl.replace h v (rowid :: existing)

let index_remove idx v rowid =
  match idx.impl with
  | Ibtree bt -> ignore (Rel_btree.remove bt v rowid)
  | Ihash h -> (
    match Hashtbl.find_opt h v with
    | None -> ()
    | Some ids -> (
      match List.filter (fun id -> id <> rowid) ids with
      | [] -> Hashtbl.remove h v
      | ids' -> Hashtbl.replace h v ids'))

let pk_conflict t row =
  t.pk_pos >= 0
  &&
  let key = row.(t.pk_pos) in
  let found = ref false in
  (* Use a PK index when available, else scan. *)
  let via_index =
    List.find_opt (fun idx -> idx.idx_pos = t.pk_pos) t.indexes
  in
  (match via_index with
  | Some idx -> (
    match idx.impl with
    | Ibtree bt -> found := Rel_btree.find_all bt key <> []
    | Ihash h -> found := Hashtbl.mem h key)
  | None ->
    for i = 0 to t.next_slot - 1 do
      match t.slots.(i) with
      | Some r when Value.equal r.(t.pk_pos) key -> found := true
      | Some _ | None -> ()
    done);
  !found

let insert_row t row =
  if Array.length row <> List.length t.tbl_schema.Dschema.columns then
    raise (Constraint_violation "arity mismatch");
  if pk_conflict t row then
    raise
      (Constraint_violation
         (Printf.sprintf "duplicate primary key %s in table %s"
            (Value.to_display row.(t.pk_pos))
            (name t)));
  grow t;
  let id = t.next_slot in
  t.slots.(id) <- Some row;
  t.next_slot <- id + 1;
  t.live <- t.live + 1;
  List.iter (fun idx -> index_add idx row.(idx.idx_pos) id) t.indexes;
  id

let insert t tup = insert_row t (tuple_to_row t tup)

let insert_values t values =
  let cols = t.tbl_schema.Dschema.columns in
  if List.length values <> List.length cols then
    raise (Constraint_violation "INSERT arity mismatch");
  let tup = Tuple.make (List.map2 (fun c v -> (c.Dschema.col_name, v)) cols values) in
  insert t tup

let row t id = if id < 0 || id >= t.next_slot then None else t.slots.(id)

let get t id = Option.map (row_to_tuple t) (row t id)

let iter_rows t f =
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row -> f i row
    | None -> ()
  done

let rows t =
  let out = ref [] in
  for i = t.next_slot - 1 downto 0 do
    match t.slots.(i) with
    | Some row -> out := row :: !out
    | None -> ()
  done;
  !out

let scan t f = iter_rows t (fun i row -> f i (row_to_tuple t row))

let to_list t = List.map (row_to_tuple t) (rows t)

let delete_slot t id =
  match t.slots.(id) with
  | None -> ()
  | Some row ->
    List.iter (fun idx -> index_remove idx row.(idx.idx_pos) id) t.indexes;
    t.slots.(id) <- None;
    t.live <- t.live - 1

(* The slots an UPDATE or DELETE visits: every slot, or the given row
   ids in ascending order — the order a full pass would meet them. *)
let visit t ids f =
  match ids with
  | None ->
    for i = 0 to t.next_slot - 1 do
      f i
    done
  | Some ids -> List.iter f (List.sort_uniq Int.compare ids)

let delete_rows ?ids t pred =
  let deleted = ref 0 in
  visit t ids (fun i ->
      match row t i with
      | Some r when pred r ->
        delete_slot t i;
        incr deleted
      | Some _ | None -> ());
  !deleted

let update_rows ?ids t pred f =
  let updated = ref 0 in
  visit t ids (fun i ->
      match row t i with
      | Some r when pred r ->
        let new_row = tuple_to_row t (f r) in
        List.iter
          (fun idx ->
            if not (Value.equal r.(idx.idx_pos) new_row.(idx.idx_pos)) then begin
              index_remove idx r.(idx.idx_pos) i;
              index_add idx new_row.(idx.idx_pos) i
            end)
          t.indexes;
        t.slots.(i) <- Some new_row;
        incr updated
      | Some _ | None -> ());
  !updated

let clear t =
  t.slots <- Array.make 16 None;
  t.next_slot <- 0;
  t.live <- 0;
  List.iter
    (fun idx ->
      match idx.impl with
      | Ibtree _ -> ()
      | Ihash h -> Hashtbl.reset h)
    t.indexes;
  (* Rebuild btree indexes from scratch (they have no clear). *)
  t.indexes <-
    List.map
      (fun idx ->
        match idx.impl with
        | Ibtree _ ->
          { idx with impl = Ibtree (Rel_btree.create ~cmp:Value.compare ()) }
        | Ihash _ -> idx)
      t.indexes

let create_index t ~kind cname =
  let pos = column_pos t.tbl_schema cname in
  if pos < 0 then invalid_arg (Printf.sprintf "create_index: unknown column %S" cname);
  if List.exists (fun idx -> String.equal idx.idx_column cname) t.indexes then
    invalid_arg (Printf.sprintf "create_index: column %S already indexed" cname);
  let impl =
    match kind with
    | Btree_index -> Ibtree (Rel_btree.create ~cmp:Value.compare ())
    | Hash_index -> Ihash (Hashtbl.create 64)
  in
  let idx = { idx_column = cname; idx_pos = pos; impl } in
  (* Backfill. *)
  for i = 0 to t.next_slot - 1 do
    match t.slots.(i) with
    | Some row -> index_add idx row.(pos) i
    | None -> ()
  done;
  t.indexes <- idx :: t.indexes

let find_index t cname =
  List.find_opt (fun idx -> String.equal idx.idx_column cname) t.indexes

let has_index t cname =
  Option.map
    (fun idx -> match idx.impl with Ibtree _ -> Btree_index | Ihash _ -> Hash_index)
    (find_index t cname)

let rows_of_ids t ids = List.filter_map (row t) ids

let eq_ids t cname v =
  match find_index t cname with
  | Some { impl = Ibtree bt; _ } -> Some (Rel_btree.find_all bt v)
  | Some { impl = Ihash h; _ } -> Some (List.rev (Option.value ~default:[] (Hashtbl.find_opt h v)))
  | None -> None

let lookup_eq_rows t cname v =
  match eq_ids t cname v with
  | Some ids -> rows_of_ids t ids
  | None ->
    let pos = column_pos t.tbl_schema cname in
    let out = ref [] in
    if pos >= 0 then iter_rows t (fun _ r -> if Value.equal v r.(pos) then out := r :: !out);
    List.rev !out

let lookup_range_rows t cname ?lo ?hi () =
  let in_bounds v =
    (match lo with
    | None -> true
    | Some (b, inclusive) ->
      let c = Value.compare v b in
      if inclusive then c >= 0 else c > 0)
    &&
    match hi with
    | None -> true
    | Some (b, inclusive) ->
      let c = Value.compare v b in
      if inclusive then c <= 0 else c < 0
  in
  match find_index t cname with
  | Some { impl = Ibtree bt; _ } ->
    (* NULL keys sort first in the tree but lie in no range. *)
    Rel_btree.range bt ?lo ?hi ()
    |> List.filter_map (fun (k, id) -> if k = Value.Null then None else row t id)
  | Some { impl = Ihash _; _ } | None ->
    let pos = column_pos t.tbl_schema cname in
    let out = ref [] in
    if pos >= 0 then
      iter_rows t (fun _ r ->
          let v = r.(pos) in
          if v <> Value.Null && in_bounds v then out := r :: !out);
    List.rev !out

let lookup_eq t cname v = List.map (row_to_tuple t) (lookup_eq_rows t cname v)

let lookup_range t cname ?lo ?hi () =
  List.map (row_to_tuple t) (lookup_range_rows t cname ?lo ?hi ())

let index_served t cname mode =
  match find_index t cname, mode with
  | Some _, `Eq -> true
  | Some { impl = Ibtree _; _ }, `Range -> true
  | Some { impl = Ihash _; _ }, `Range -> false
  | None, (`Eq | `Range) -> false
