(* Morsel-driven parallel execution over a reusable domain pool.
   See the interface for the contract; the short version is that the
   engine materializes operator outputs bottom-up (in the same child
   order as the tuple engine), splits per-row work into morsels of
   [chunk] rows, runs morsels on a fixed pool of domains, and stitches
   per-morsel outputs back in morsel order — so answers are
   byte-identical to the tuple engine.  With one domain every region
   runs inline on the caller: the sequential chunked mode.  Everything
   touching process-global state (source functions, metrics, the
   fragment cache, tuple-engine fallback) runs on the caller's domain
   only. *)

[@@@ocaml.warnerror "+a"]

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)
(* ------------------------------------------------------------------ *)

(* One process-wide pool, grown monotonically to the largest worker
   count ever requested and reused across queries (domain spawn costs
   milliseconds — far too slow per morsel).  Hand-rolled because
   domainslib is not a dependency: a mutex/condition-protected job
   queue; workers block on the condition when idle. *)
module Pool = struct
  let lock = Mutex.create ()
  let cond = Condition.create ()
  let jobs : (unit -> unit) Queue.t = Queue.create ()
  let stop = ref false
  let spawned = ref 0
  let handles : unit Domain.t list ref = ref []

  (* OCaml caps live domains at 128; stay comfortably below. *)
  let max_workers = 64

  let rec worker () =
    Mutex.lock lock;
    let rec take () =
      if !stop then None
      else
        match Queue.take_opt jobs with
        | Some job -> Some job
        | None ->
          Condition.wait cond lock;
          take ()
    in
    let job = take () in
    Mutex.unlock lock;
    match job with
    | None -> ()
    | Some job ->
      (try job () with _ -> ());
      worker ()

  let ensure n =
    let n = min n max_workers in
    Mutex.lock lock;
    while !spawned < n do
      handles := Domain.spawn worker :: !handles;
      incr spawned
    done;
    Mutex.unlock lock

  let submit job =
    Mutex.lock lock;
    Queue.add job jobs;
    Condition.signal cond;
    Mutex.unlock lock

  let shutdown () =
    Mutex.lock lock;
    stop := true;
    Condition.broadcast cond;
    let hs = !handles in
    handles := [];
    Mutex.unlock lock;
    List.iter Domain.join hs

  let () = at_exit shutdown
end

(* Run [n] indexed tasks on up to [domains] workers, the caller
   included (slot 0); tasks are claimed from a shared atomic counter,
   so fast workers steal the tail from slow ones (the morsel-driven
   part).  Returns per-slot busy milliseconds.  A task's exception is
   captured and re-raised on the caller — smallest task index first,
   deterministically.  All cross-domain writes (task outputs, busy
   times, errors) are ordered by the completion mutex, so the caller
   reads them race-free. *)
let run_region ~domains n (task : int -> unit) : float array =
  let domains = max 1 domains in
  let busy = Array.make domains 0.0 in
  if n > 0 then begin
    let errors : exn option array = Array.make n None in
    let wrapped i = try task i with e -> errors.(i) <- Some e in
    let helpers = min (domains - 1) (n - 1) in
    if helpers = 0 then begin
      let t0 = Obs_clock.wall_ms () in
      for i = 0 to n - 1 do
        wrapped i
      done;
      busy.(0) <- Obs_clock.wall_ms () -. t0
    end
    else begin
      Pool.ensure helpers;
      let next = Atomic.make 0 in
      let drain slot =
        let t0 = Obs_clock.wall_ms () in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            wrapped i;
            loop ()
          end
        in
        loop ();
        busy.(slot) <- busy.(slot) +. (Obs_clock.wall_ms () -. t0)
      in
      let finish_lock = Mutex.create () in
      let finish_cond = Condition.create () in
      let remaining = ref helpers in
      for slot = 1 to helpers do
        Pool.submit (fun () ->
            drain slot;
            Mutex.lock finish_lock;
            decr remaining;
            if !remaining = 0 then Condition.signal finish_cond;
            Mutex.unlock finish_lock)
      done;
      drain 0;
      Mutex.lock finish_lock;
      while !remaining > 0 do
        Condition.wait finish_cond finish_lock
      done;
      Mutex.unlock finish_lock
    end;
    Array.iter (function Some e -> raise e | None -> ()) errors
  end;
  busy

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  domains : int;
  chunk_size : int;
  busy : float array;  (* per-domain busy ms; slot 0 is the caller *)
  mutable morsels : int;
  root : Alg_ops.op_stats;
}

let busy_max stats = Array.fold_left Float.max 0.0 stats.busy

let busy_min stats =
  match Array.length stats.busy with
  | 0 -> 0.0
  | _ -> Array.fold_left Float.min stats.busy.(0) stats.busy

let root_cells stats =
  [
    Printf.sprintf "domains=%d" stats.domains;
    Printf.sprintf "skew=%.2f/%.2fms" (busy_max stats) (busy_min stats);
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int;
  morsel : int;
  sources : string -> string -> Alg_env.t Seq.t;
  fallback : Alg_plan.t -> Alg_env.t Seq.t;
  template : Alg_env.t -> Alg_plan.template -> Dtree.t;
  cost_rows : Alg_plan.t -> float;  (* build-side estimate for join pre-sizing *)
}

type counters = {
  c_runs : Obs_metrics.counter;
  c_morsels : Obs_metrics.counter;
  c_rows : Obs_metrics.counter;
  c_fallbacks : Obs_metrics.counter;
}

type ctx = {
  cfg : config;
  stats : stats;
  counters : counters;
}

let morsel_ranges morsel n =
  if n = 0 then [||]
  else begin
    let m = (n + morsel - 1) / morsel in
    Array.init m (fun i ->
        let lo = i * morsel in
        (lo, min morsel (n - lo)))
  end

(* Run [m] tasks as one parallel region, folding per-domain busy time
   and morsel counts into the stats.  Metrics tick on the caller only —
   the registry is not thread-safe. *)
let region ctx (ob : Alg_ops.op_stats) m task =
  let busy = run_region ~domains:ctx.cfg.domains m task in
  let slots = min (Array.length busy) (Array.length ctx.stats.busy) in
  for i = 0 to slots - 1 do
    ctx.stats.busy.(i) <- ctx.stats.busy.(i) +. busy.(i)
  done;
  ctx.stats.morsels <- ctx.stats.morsels + m;
  ob.op_morsels <- ob.op_morsels + m;
  Obs_metrics.inc ~by:m ctx.counters.c_morsels

(* Morsel-parallel 1:1 map; output slots are pre-allocated, so order is
   input order by construction. *)
let par_map ctx ob (f : Alg_env.t -> Alg_env.t) (input : Alg_env.t array) =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let ranges = morsel_ranges ctx.cfg.morsel n in
    let out = Array.make n Alg_env.empty in
    region ctx ob (Array.length ranges) (fun i ->
        let lo, len = ranges.(i) in
        for j = lo to lo + len - 1 do
          out.(j) <- f input.(j)
        done);
    out
  end

(* Morsel-parallel filter/expand.  Each morsel writes its first [len]
   rows in place, into its own slice of one output array, and spills
   any further rows into chunks of [len] (no per-row list cells, no
   copying as its output grows).  When every morsel filled its slice
   exactly — a filter that kept every row, a 1:1 expansion — that array
   is the answer; otherwise the pieces are blitted together in morsel
   order. *)
let par_expand ctx ob (f : (Alg_env.t -> unit) -> Alg_env.t -> unit) input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let ranges = morsel_ranges ctx.cfg.morsel n in
    let m = Array.length ranges in
    let out = Array.make n Alg_env.empty in
    let kept = Array.make m 0 and spills = Array.make m [] in
    region ctx ob m (fun i ->
        let lo, len = ranges.(i) in
        let dst = ref out and pos = ref lo and stop = ref (lo + len) and chunks = ref [] in
        let emit env =
          if !pos = !stop then begin
            dst := Array.make len Alg_env.empty;
            chunks := !dst :: !chunks;
            pos := 0;
            stop := len
          end;
          !dst.(!pos) <- env;
          incr pos
        in
        for j = lo to lo + len - 1 do
          f emit input.(j)
        done;
        match !chunks with
        | [] -> kept.(i) <- !pos - lo
        | last :: full ->
          kept.(i) <- len;
          spills.(i) <- List.rev ((last, !pos) :: List.map (fun c -> (c, len)) full));
    let spilled = Array.exists (fun s -> s <> []) spills in
    if (not spilled) && Array.fold_left ( + ) 0 kept = n then out
    else begin
      let total =
        Array.fold_left ( + ) 0 kept
        + Array.fold_left (List.fold_left (fun acc (_, k) -> acc + k)) 0 spills
      in
      let res = Array.make total Alg_env.empty in
      let pos = ref 0 in
      let put src off k =
        Array.blit src off res !pos k;
        pos := !pos + k
      in
      Array.iteri
        (fun i (lo, _) ->
          put out lo kept.(i);
          List.iter (fun (chunk, k) -> put chunk 0 k) spills.(i))
        ranges;
      res
    end
  end

(* Parallel stable sort: decorate and sort each morsel run in parallel
   (keys evaluated once per row), then merge runs pairwise — ties take
   the left (earlier-morsel) side, so the result is exactly the stable
   sort of the input. *)
let par_sort ctx ob specs arr =
  let n = Array.length arr in
  if n <= 1 || specs = [] then arr
  else begin
    let cmp_keys = Alg_ops.sort_compare_keys specs in
    let ranges = morsel_ranges ctx.cfg.morsel n in
    let m = Array.length ranges in
    let runs = Array.make m [||] in
    region ctx ob m (fun i ->
        let lo, len = ranges.(i) in
        let d = Alg_ops.sort_decorate specs (Array.sub arr lo len) in
        Array.stable_sort (fun (ka, _) (kb, _) -> cmp_keys ka kb) d;
        runs.(i) <- d);
    let merge a b =
      let la = Array.length a and lb = Array.length b in
      if la = 0 then b
      else if lb = 0 then a
      else begin
        let out = Array.make (la + lb) a.(0) in
        let i = ref 0 and j = ref 0 and k = ref 0 in
        while !i < la && !j < lb do
          let ka, _ = a.(!i) and kb, _ = b.(!j) in
          if cmp_keys ka kb <= 0 then begin
            out.(!k) <- a.(!i);
            incr i
          end
          else begin
            out.(!k) <- b.(!j);
            incr j
          end;
          incr k
        done;
        while !i < la do
          out.(!k) <- a.(!i);
          incr i;
          incr k
        done;
        while !j < lb do
          out.(!k) <- b.(!j);
          incr j;
          incr k
        done;
        out
      end
    in
    let rec rounds runs =
      let m = Array.length runs in
      if m <= 1 then if m = 0 then [||] else runs.(0)
      else begin
        let half = (m + 1) / 2 in
        let next = Array.make half [||] in
        region ctx ob half (fun i ->
            if (2 * i) + 1 < m then next.(i) <- merge runs.(2 * i) runs.((2 * i) + 1)
            else next.(i) <- runs.(2 * i));
        rounds next
      end
    in
    Array.map snd (rounds runs)
  end

(* Partition count for joins and grouping: one partition per domain. *)
let partitions ctx = max 1 ctx.cfg.domains

let default_cost_rows plan =
  let est = Alg_cost.estimate ~source_rows:(fun _ -> Alg_cost.default_scan_rows) plan in
  est.Alg_cost.rows

let rec eval ctx (ob : Alg_ops.op_stats) plan : Alg_env.t array =
  ob.op_pulled <- true;
  let t0 = Obs_clock.wall_ms () in
  let out = eval_node ctx ob plan in
  ob.op_ms <- ob.op_ms +. (Obs_clock.wall_ms () -. t0);
  ob.op_rows <- Array.length out;
  out

and eval_node ctx (ob : Alg_ops.op_stats) plan : Alg_env.t array =
  let kid i = List.nth ob.op_kids i in
  let fallback () =
    Obs_metrics.inc ctx.counters.c_fallbacks;
    ob.op_fallback <- true;
    Array.of_seq (ctx.cfg.fallback plan)
  in
  match plan with
  | Alg_plan.Scan { source; binding } ->
    (* Sources (mediator fetches, caches, network simulation, metrics)
       are process-global state: materialize on the caller's domain, in
       plan order — which also keeps strict/partial failure semantics
       identical to the tuple engine. *)
    Array.of_seq (ctx.cfg.sources source binding)
  | Alg_plan.Const_envs envs -> Array.of_list envs
  | Alg_plan.Select (input, pred) ->
    let test = Alg_ops.compile_pred pred in
    let rows = eval ctx (kid 0) input in
    par_expand ctx ob (fun emit env -> if test env then emit env) rows
  | Alg_plan.Project (Alg_plan.Select (inner, pred), vars) ->
    (* Fused select+project: one pass filters and narrows.  The select
       node reports the fused pass's rows and time, and no morsels of
       its own. *)
    let sel = kid 0 in
    let test = Alg_ops.compile_pred pred in
    let narrow = Alg_ops.compile_project vars in
    let t0 = Obs_clock.wall_ms () in
    let rows = eval ctx (List.hd sel.op_kids) inner in
    let out = par_expand ctx ob (fun emit env -> if test env then emit (narrow env)) rows in
    sel.op_pulled <- true;
    sel.op_rows <- Array.length out;
    sel.op_ms <- Obs_clock.wall_ms () -. t0;
    out
  | Alg_plan.Project (input, vars) ->
    par_map ctx ob (Alg_ops.compile_project vars) (eval ctx (kid 0) input)
  | Alg_plan.Rename (input, mapping) ->
    par_map ctx ob (fun env -> Alg_env.rename env mapping) (eval ctx (kid 0) input)
  | Alg_plan.Extend (input, var, e) ->
    let f = Alg_ops.compile_value e in
    par_map ctx ob (fun env -> Alg_env.bind_value env var (f env)) (eval ctx (kid 0) input)
  | Alg_plan.Extend_tree (input, var, e) ->
    par_map ctx ob
      (fun env ->
        match Alg_expr.eval_tree env e with
        | Some tree -> Alg_env.bind env var tree
        | None -> Alg_env.bind env var (Dtree.atom Value.Null))
      (eval ctx (kid 0) input)
  | Alg_plan.Hash_join { left; right; left_key; right_key; residual } ->
    (* Build side first (same evaluation order as the tuple engine),
       then: parallel key precompute, one build partition per domain
       (each walks the key column backwards so buckets stay in build
       order), and a morsel-parallel probe over read-only tables.  Per
       left row, matches appear in build order; left order survives the
       stitch — byte-identical to the sequential join. *)
    let rights = eval ctx (kid 1) right in
    let lefts = eval ctx (kid 0) left in
    let n = Array.length rights in
    let rkey = Alg_ops.compile_value right_key in
    let rkeys = Array.make n Value.Null in
    let ranges = morsel_ranges ctx.cfg.morsel n in
    region ctx ob (Array.length ranges) (fun i ->
        let lo, len = ranges.(i) in
        for j = lo to lo + len - 1 do
          rkeys.(j) <- rkey rights.(j)
        done);
    let parts = partitions ctx in
    let part_of k = if parts = 1 then 0 else Hashtbl.hash k mod parts in
    (* Pre-size each partition from the cost model's build-side
       estimate, as the tuple engine does for the whole table. *)
    let hint =
      int_of_float
        (Float.min 1_048_576.0
           (Float.max 16.0 (ctx.cfg.cost_rows right /. float_of_int parts)))
    in
    let tables : (Value.t, Alg_env.t list ref) Hashtbl.t array =
      Array.init parts (fun _ -> Hashtbl.create hint)
    in
    region ctx ob parts (fun p ->
        let table = tables.(p) in
        for j = n - 1 downto 0 do
          match rkeys.(j) with
          | Value.Null -> ()
          | k ->
            if part_of k = p then (
              match Hashtbl.find_opt table k with
              | Some bucket -> bucket := rights.(j) :: !bucket
              | None -> Hashtbl.add table k (ref [ rights.(j) ]))
        done);
    let lkey = Alg_ops.compile_value left_key in
    let keep = Option.map Alg_ops.compile_pred residual in
    par_expand ctx ob
      (fun emit lenv ->
        match lkey lenv with
        | Value.Null -> ()
        | k -> (
          match Hashtbl.find_opt tables.(part_of k) k with
          | None -> ()
          | Some bucket ->
            List.iter
              (fun renv ->
                let joined = Alg_env.concat lenv renv in
                match keep with
                | None -> emit joined
                | Some test -> if test joined then emit joined)
              !bucket))
      lefts
  | Alg_plan.Sort (input, specs) -> par_sort ctx ob specs (eval ctx (kid 0) input)
  | Alg_plan.Group { input; keys; aggs } ->
    let rows = eval ctx (kid 0) input in
    let n = Array.length rows in
    if keys = [] then
      (* Scalar aggregation is one group fed in input order — it cannot
         be split without reassociating float sums, so it runs on the
         caller (shared with the tuple engine, identities included). *)
      Array.of_list (Alg_ops.group_rows ~size_hint:16 keys aggs (Array.to_list rows))
    else begin
      let keyfns = List.map (fun (_, e) -> Alg_ops.compile_value e) keys in
      let keyvals : Value.t list array = Array.make n [] in
      let ranges = morsel_ranges ctx.cfg.morsel n in
      region ctx ob (Array.length ranges) (fun i ->
          let lo, len = ranges.(i) in
          for j = lo to lo + len - 1 do
            keyvals.(j) <- List.map (fun f -> f rows.(j)) keyfns
          done);
      (* One partition per domain: each domain owns the groups whose
         key hashes to it and folds their rows in ascending input
         order, so every per-group aggregate state sees exactly the
         sequence the sequential fold would — float sums associate
         identically.  Groups then merge by first-occurrence row. *)
      let parts = partitions ctx in
      let groups : (int * Value.t list * Alg_ops.agg_state list) list array =
        Array.make parts []
      in
      let hint =
        int_of_float (Float.min 1_048_576.0 (Float.max 16.0 (float_of_int n /. 4.0)))
      in
      region ctx ob parts (fun p ->
          let table = Hashtbl.create hint in
          let order = ref [] in
          for j = 0 to n - 1 do
            let key = keyvals.(j) in
            if parts = 1 || Hashtbl.hash key mod parts = p then begin
              let _, _, states =
                match Hashtbl.find_opt table key with
                | Some entry -> entry
                | None ->
                  let entry = (j, key, List.map (fun _ -> Alg_ops.new_state ()) aggs) in
                  Hashtbl.add table key entry;
                  order := entry :: !order;
                  entry
              in
              List.iter2 (fun st (_, agg) -> Alg_ops.feed rows.(j) st agg) states aggs
            end
          done;
          groups.(p) <- List.rev !order);
      let all = List.concat (Array.to_list groups) in
      let all = List.sort (fun (a, _, _) (b, _, _) -> compare a b) all in
      Array.of_list
        (List.map
           (fun (_, key, states) ->
             let key_bindings = List.map2 (fun (var, _) v -> (var, Dtree.atom v)) keys key in
             let agg_bindings =
               List.map2 (fun st (var, agg) -> (var, Alg_ops.result st agg)) states aggs
             in
             Alg_env.of_bindings (key_bindings @ agg_bindings))
           all)
    end
  | Alg_plan.Union (a, b) ->
    let ea = eval ctx (kid 0) a in
    let eb = eval ctx (kid 1) b in
    Array.append ea eb
  | Alg_plan.Outer_union (a, b) ->
    let ea = eval ctx (kid 0) a in
    let eb = eval ctx (kid 1) b in
    let vars = Alg_ops.union_vars (Array.to_list ea @ Array.to_list eb) in
    par_map ctx ob (fun env -> Alg_env.project env vars) (Array.append ea eb)
  | Alg_plan.Navigate { input; var; path; out } ->
    par_expand ctx ob
      (fun emit env ->
        match Alg_env.get env var with
        | None -> ()
        | Some (Dtree.Atom _) -> ()
        | Some (Dtree.Node _ as tree) ->
          let matches, how = Alg_ops.navigate_matches tree path in
          Alg_ops.count_idx ob how;
          List.iter (fun m -> emit (Alg_env.bind env out m)) matches)
      (eval ctx (kid 0) input)
  | Alg_plan.Unnest { input; var; label; out } ->
    par_expand ctx ob
      (fun emit env ->
        match Alg_env.get env var with
        | None -> ()
        | Some tree ->
          let kids =
            match label with
            | Some l -> Dtree.kids_named tree l
            | None -> Dtree.kids tree
          in
          List.iter (fun k -> emit (Alg_env.bind env out k)) kids)
      (eval ctx (kid 0) input)
  | Alg_plan.Construct { input; binding; template } ->
    par_map ctx ob
      (fun env -> Alg_env.bind env binding (ctx.cfg.template env template))
      (eval ctx (kid 0) input)
  | Alg_plan.Limit (input, limit) ->
    let rows = eval ctx (kid 0) input in
    if limit <= 0 then [||]
    else if Array.length rows <= limit then rows
    else Array.sub rows 0 limit
  | Alg_plan.Nl_join _ | Alg_plan.Merge_join _ | Alg_plan.Dep_join _
  | Alg_plan.Distinct _ -> fallback ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

let run ?domains ~chunk ?(cost_rows = default_cost_rows) ~sources ~fallback ~template
    plan =
  let domains =
    match domains with
    | Some d -> max 1 (min (Pool.max_workers + 1) d)
    | None -> default_domains ()
  in
  let cfg = { domains; morsel = max 1 chunk; sources; fallback; template; cost_rows } in
  let counters =
    {
      c_runs = Obs_metrics.counter "par.runs";
      c_morsels = Obs_metrics.counter "par.morsels";
      c_rows = Obs_metrics.counter "par.rows";
      c_fallbacks = Obs_metrics.counter "par.fallbacks";
    }
  in
  Obs_metrics.inc counters.c_runs;
  let root = Alg_ops.make_stats plan in
  let stats =
    { domains; chunk_size = cfg.morsel; busy = Array.make domains 0.0; morsels = 0; root }
  in
  let ctx = { cfg; stats; counters } in
  let out = eval ctx root plan in
  Obs_metrics.inc ~by:(Array.length out) counters.c_rows;
  (Array.to_list out, stats)
