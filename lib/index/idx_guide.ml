(* DataGuide-style structural summary.  The whole structure is immutable
   after [build], so probes are safe from any domain without locking —
   the manager only serializes construction. *)

type t = {
  nodes : Dtree.t array;          (* id -> element node, forest preorder *)
  slot_of_id : int array;         (* id -> label-path slot *)
  keys : string array;            (* slot -> labels joined with '/' *)
  labels : string list array;     (* slot -> label sequence from the root *)
  slot_by_key : (string, int) Hashtbl.t;
  ids : int array array;          (* slot -> ascending ids *)
  ranges : (int * int) array;     (* root k -> (lo, hi) id interval *)
  bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let build forest =
  let nodes = ref [] and slot_of = ref [] in
  let n = ref 0 in
  let keys = ref [] and labels = ref [] and slots = Hashtbl.create 32 in
  let nslots = ref 0 in
  let posting : int list array ref = ref (Array.make 16 []) in
  let slot_for key label_path =
    match Hashtbl.find_opt slots key with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.add slots key s;
      keys := key :: !keys;
      labels := label_path :: !labels;
      if s >= Array.length !posting then begin
        let bigger = Array.make (2 * Array.length !posting) [] in
        Array.blit !posting 0 bigger 0 (Array.length !posting);
        posting := bigger
      end;
      s
  in
  let rec walk key rev_labels tree =
    match tree with
    | Dtree.Atom _ -> ()
    | Dtree.Node nd ->
      let key = if key = "" then nd.Dtree.label else key ^ "/" ^ nd.Dtree.label in
      let rev_labels = nd.Dtree.label :: rev_labels in
      let slot = slot_for key (List.rev rev_labels) in
      let id = !n in
      incr n;
      nodes := tree :: !nodes;
      slot_of := slot :: !slot_of;
      !posting.(slot) <- id :: !posting.(slot);
      List.iter (walk key rev_labels) nd.Dtree.kids
  in
  let ranges =
    List.map
      (fun root ->
        let lo = !n in
        walk "" [] root;
        (lo, !n))
      forest
  in
  let nodes = Array.of_list (List.rev !nodes) in
  let slot_of_id = Array.of_list (List.rev !slot_of) in
  let keys = Array.of_list (List.rev !keys) in
  let labels = Array.of_list (List.rev !labels) in
  (* Preorder appends built each posting list in descending id order. *)
  let ids =
    Array.init !nslots (fun s -> Array.of_list (List.rev !posting.(s)))
  in
  let bytes =
    let key_bytes = Array.fold_left (fun a k -> a + String.length k + 24) 0 keys in
    (Array.length nodes * 16) + (Array.length slot_of_id * 8)
    + Array.fold_left (fun a arr -> a + (Array.length arr * 8) + 16) 0 ids
    + key_bytes
  in
  {
    nodes;
    slot_of_id;
    keys;
    labels;
    slot_by_key = slots;
    ids;
    ranges = Array.of_list ranges;
    bytes;
  }

let node_count t = Array.length t.nodes
let path_count t = Array.length t.keys
let bytes t = t.bytes
let node t id = t.nodes.(id)
let root_range t k = t.ranges.(k)
let path_key t id = t.keys.(t.slot_of_id.(id))

(* ------------------------------------------------------------------ *)
(* Path-pattern support                                                *)
(* ------------------------------------------------------------------ *)

(* The guide answers a path exactly when the label sequence alone
   determines membership: downward axes, name/wildcard tests, and
   predicates confined to the final step (where the manager re-checks
   them per node).  [Text_node] passes every element candidate in the
   walker ([Xml_path.test_holds]), so it is a wildcard here too.
   Position predicates depend on per-context candidate order, which the
   guide does not track. *)

let axis_ok = function
  | Xml_path.Child | Xml_path.Descendant | Xml_path.Descendant_or_self -> true
  | Xml_path.Parent | Xml_path.Ancestor | Xml_path.Self
  | Xml_path.Following_sibling | Xml_path.Preceding_sibling -> false

let test_supported = function
  | Xml_path.Name _ | Xml_path.Any_element | Xml_path.Text_node -> true
  | Xml_path.Attribute _ -> false

let pred_positionless = function
  | Xml_path.Position _ -> false
  | Xml_path.Has_attr _ | Xml_path.Attr_cmp _ | Xml_path.Child_exists _
  | Xml_path.Child_cmp _ | Xml_path.Text_cmp _ | Xml_path.In_list _ -> true

let supported (p : Xml_path.t) =
  let rec steps_ok = function
    | [] -> true
    | [ (last : Xml_path.step) ] ->
      axis_ok last.Xml_path.axis
      && test_supported last.Xml_path.test
      && List.for_all pred_positionless last.Xml_path.preds
    | (s : Xml_path.step) :: tl ->
      axis_ok s.Xml_path.axis && test_supported s.Xml_path.test
      && s.Xml_path.preds = [] && steps_ok tl
  in
  p.Xml_path.steps <> [] && steps_ok p.Xml_path.steps

let test_ok test l =
  match test with
  | Xml_path.Name n -> String.equal n l
  | Xml_path.Any_element | Xml_path.Text_node -> true
  | Xml_path.Attribute _ -> false

(* Match the steps against a label sequence.  [cur] is the label of the
   context node (initially the root); [labels] the labels still to be
   consumed below it.  Mirrors the walker: both absolute and relative
   paths start at the root cursor, descendant consumes >= 1 label,
   descendant-or-self >= 0. *)
let rec match_steps cur steps labels =
  match steps with
  | [] -> labels = []
  | (s : Xml_path.step) :: tl -> (
    let ok = test_ok s.Xml_path.test in
    match s.Xml_path.axis with
    | Xml_path.Child -> (
      match labels with
      | l :: ls -> ok l && match_steps l tl ls
      | [] -> false)
    | Xml_path.Descendant ->
      let rec go = function
        | [] -> false
        | l :: ls -> (ok l && match_steps l tl ls) || go ls
      in
      go labels
    | Xml_path.Descendant_or_self ->
      (ok cur && match_steps cur tl labels)
      ||
      let rec go = function
        | [] -> false
        | l :: ls -> (ok l && match_steps l tl ls) || go ls
      in
      go labels
    | _ -> false)

let matching_slots t (p : Xml_path.t) =
  if not (supported p) then None
  else begin
    let out = ref [] in
    for s = Array.length t.labels - 1 downto 0 do
      match t.labels.(s) with
      | [] -> ()
      | root_label :: rest ->
        if match_steps root_label p.Xml_path.steps rest then out := s :: !out
    done;
    Some !out
  end

let matching_keys t p =
  Option.map (List.map (fun s -> t.keys.(s))) (matching_slots t p)

(* First index in the ascending array whose value is >= v. *)
let lower_bound arr v =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let slot_ids_in_range t slot lo hi =
  let arr = t.ids.(slot) in
  let i0 = lower_bound arr lo and i1 = lower_bound arr hi in
  Array.to_list (Array.sub arr i0 (i1 - i0))

let ids_of_key t ~root key =
  match Hashtbl.find_opt t.slot_by_key key with
  | None -> []
  | Some slot ->
    let lo, hi = t.ranges.(root) in
    slot_ids_in_range t slot lo hi

let has_label t l = Array.exists (List.mem l) t.labels

let all_ids_of_key t key =
  match Hashtbl.find_opt t.slot_by_key key with
  | None -> []
  | Some slot -> Array.to_list t.ids.(slot)

let count t p =
  match matching_slots t p with
  | None -> None
  | Some slots ->
    Some (List.fold_left (fun acc s -> acc + Array.length t.ids.(s)) 0 slots)

let probe t ~root p =
  match matching_slots t p with
  | None -> None
  | Some slots ->
    let lo, hi = t.ranges.(root) in
    let lists = List.map (fun s -> slot_ids_in_range t s lo hi) slots in
    (* Each node belongs to exactly one slot, so the lists are disjoint;
       a sort is a k-way merge back into document order. *)
    Some (List.sort Int.compare (List.concat lists))
