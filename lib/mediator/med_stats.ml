(* Per-source statistics catalog: the optimizer's view of the data.

   One entry per exported table ("source.export"): row count, per-column
   distinct/min-max/null counts and an equi-height histogram.  Entries
   come from two channels of very different quality:

   - [analyze] scans every relational export through the source's own
     [Q_scan] path and computes exact statistics (marked [ts_exact]);
   - [observe_rows] seeds or corrects the row count from execution
     feedback (full-table fetches the mediator happens to run anyway). *)

type bucket = {
  b_lo : Value.t;
  b_hi : Value.t;
  b_rows : int;
}

type col_stats = {
  cs_distinct : int;  (* distinct non-null values *)
  cs_nulls : int;
  cs_min : Value.t option;  (* over non-null values *)
  cs_max : Value.t option;
  cs_hist : bucket array;  (* equi-height over non-null values; [||] when empty *)
}

type table_stats = {
  ts_rows : int;
  ts_exact : bool;  (* true: computed by [analyze]; false: seeded from feedback *)
  ts_cols : (string * col_stats) list;
}

type t = { tables : (string, table_stats) Hashtbl.t }

let create () = { tables = Hashtbl.create 16 }

let table_key ~source ~export = source ^ "." ^ export

let find t ~source ~export = Hashtbl.find_opt t.tables (table_key ~source ~export)

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort String.compare

let set_table t ~source ~export stats =
  Hashtbl.replace t.tables (table_key ~source ~export) stats

(* A row-count change is "material" when it crosses a 2x ratio: small
   drift does not change join orders, so the planner keeps seeing the
   count it last chose by, and plans stay stable across runs. *)
let material_drift old_rows new_rows =
  let lo = min old_rows new_rows and hi = max old_rows new_rows in
  if lo = hi then false
  else if lo = 0 then true
  else float_of_int hi /. float_of_int lo >= 2.0

let observe_rows t ~source ~export rows =
  let key = table_key ~source ~export in
  match Hashtbl.find_opt t.tables key with
  | None -> Hashtbl.replace t.tables key { ts_rows = rows; ts_exact = false; ts_cols = [] }
  | Some prev ->
    if material_drift prev.ts_rows rows then
      Hashtbl.replace t.tables key { prev with ts_rows = rows; ts_exact = false }

(* ------------------------------------------------------------------ *)
(* Building statistics from scanned rows                               *)
(* ------------------------------------------------------------------ *)

let hist_buckets = 16

let column_stats values =
  let nulls = List.length (List.filter (fun v -> v = Value.Null) values) in
  let non_null =
    List.filter (fun v -> v <> Value.Null) values |> List.sort Value.compare
  in
  let arr = Array.of_list non_null in
  let n = Array.length arr in
  if n = 0 then
    { cs_distinct = 0; cs_nulls = nulls; cs_min = None; cs_max = None; cs_hist = [||] }
  else begin
    let distinct =
      Array.fold_left
        (fun (count, prev) v ->
          match prev with
          | Some p when Value.equal p v -> (count, prev)
          | _ -> (count + 1, Some v))
        (0, None) arr
      |> fst
    in
    let buckets = min hist_buckets n in
    let hist =
      Array.init buckets (fun i ->
          let start = i * n / buckets in
          let stop = (i + 1) * n / buckets in
          { b_lo = arr.(start); b_hi = arr.(stop - 1); b_rows = stop - start })
    in
    { cs_distinct = distinct; cs_nulls = nulls; cs_min = Some arr.(0);
      cs_max = Some arr.(n - 1); cs_hist = hist }
  end

let of_rows ~(schema : Dschema.relational) rows =
  let cols =
    List.map
      (fun col ->
        let name = col.Dschema.col_name in
        let values =
          List.map (fun row -> Option.value ~default:Value.Null (Tuple.get row name)) rows
        in
        (name, column_stats values))
      schema.Dschema.columns
  in
  { ts_rows = List.length rows; ts_exact = true; ts_cols = cols }

(* ------------------------------------------------------------------ *)
(* Analysis driver: scan every relational export of every source       *)
(* ------------------------------------------------------------------ *)

let analyze_source t (src : Source.t) =
  List.filter_map
    (fun schema ->
      let export = schema.Dschema.rel_name in
      match src.Source.execute (Source.Q_scan export) with
      | Source.R_rows (_, rows) ->
        let stats = of_rows ~schema rows in
        Hashtbl.replace t.tables
          (table_key ~source:src.Source.name ~export)
          stats;
        Some (table_key ~source:src.Source.name ~export, stats.ts_rows)
      | Source.R_trees _ | Source.R_batch _ -> None
      | exception (Source.Unavailable _ | Source.Query_rejected _) -> None)
    (src.Source.relations ())

let analyze t registry =
  List.concat_map
    (fun name ->
      match Src_registry.find registry name with
      | Some src -> analyze_source t src
      | None -> [])
    (Src_registry.names registry)

(* ------------------------------------------------------------------ *)
(* Estimation primitives                                               *)
(* ------------------------------------------------------------------ *)

let col_stats_of ts name = List.assoc_opt name ts.ts_cols

let non_null_fraction ts cs =
  if ts.ts_rows = 0 then 0.0
  else float_of_int (ts.ts_rows - cs.cs_nulls) /. float_of_int ts.ts_rows

(* Fraction of the table's rows where [column = v]: uniform across the
   distinct non-null values, zero outside the observed [min, max], zero
   for NULL probes (SQL equality never matches NULL). *)
let eq_fraction ts column v =
  match col_stats_of ts column with
  | None -> None
  | Some cs ->
    if ts.ts_rows = 0 then Some 0.0
    else if v = Value.Null then Some 0.0
    else if cs.cs_distinct = 0 then Some 0.0 (* all-NULL column *)
    else begin
      match (cs.cs_min, cs.cs_max) with
      | Some lo, Some hi when Value.compare v lo < 0 || Value.compare v hi > 0 ->
        Some 0.0
      | _ -> Some (non_null_fraction ts cs /. float_of_int cs.cs_distinct)
    end

(* Fraction of rows satisfying [column OP v] from the equi-height
   histogram: full buckets count fully, the boundary bucket counts half
   (uniform-within-bucket assumption). *)
let cmp_fraction ts column op v =
  match col_stats_of ts column with
  | None -> None
  | Some cs ->
    if ts.ts_rows = 0 then Some 0.0
    else if v = Value.Null then Some 0.0
    else if Array.length cs.cs_hist = 0 then Some 0.0
    else begin
      let non_null =
        Array.fold_left (fun acc b -> acc + b.b_rows) 0 cs.cs_hist
      in
      let below_lo b = Value.compare b.b_hi v < 0 in
      let above_hi b = Value.compare b.b_lo v > 0 in
      let matching =
        Array.fold_left
          (fun acc b ->
            let contribution =
              match op with
              | `Lt | `Le ->
                if below_lo b then float_of_int b.b_rows
                else if above_hi b then 0.0
                else float_of_int b.b_rows /. 2.0
              | `Gt | `Ge ->
                if above_hi b then float_of_int b.b_rows
                else if below_lo b then 0.0
                else float_of_int b.b_rows /. 2.0
            in
            acc +. contribution)
          0.0 cs.cs_hist
      in
      Some (matching /. float_of_int non_null
            *. (float_of_int non_null /. float_of_int ts.ts_rows))
    end

let distinct_of ts column =
  match col_stats_of ts column with
  | Some cs when cs.cs_distinct > 0 -> Some cs.cs_distinct
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "statistics:\n";
  let names = table_names t in
  if names = [] then Buffer.add_string buf "  (no statistics collected)\n"
  else
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.tables name with
        | None -> ()
        | Some ts ->
          Buffer.add_string buf
            (Printf.sprintf "  %s: %d rows%s\n" name ts.ts_rows
               (if ts.ts_exact then "" else " (seeded)"));
          List.iter
            (fun (cname, cs) ->
              Buffer.add_string buf
                (Printf.sprintf "    %s: distinct=%d nulls=%d%s\n" cname
                   cs.cs_distinct cs.cs_nulls
                   (match (cs.cs_min, cs.cs_max) with
                   | Some lo, Some hi ->
                     Printf.sprintf " min=%s max=%s buckets=%d"
                       (Value.to_display lo) (Value.to_display hi)
                       (Array.length cs.cs_hist)
                   | _ -> "")))
            ts.ts_cols)
      names;
  Buffer.contents buf
