(* The nimble command-line interface.

   Sources are given as NAME=PATH options: CSV files become scan-only
   flat-file sources, XML files become path-capable XML stores, and .sql
   files (a list of SQL statements) are loaded into an in-memory
   relational source.  With no sources, a small built-in demo federation
   is used so every subcommand works out of the box.

     nimble query  'WHERE <row><name>$n</name></row> IN "crm.customers" CONSTRUCT <c>$n</c>'
     nimble explain '...'
     nimble repl --csv contacts=./contacts.csv
*)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Source loading                                                      *)
(* ------------------------------------------------------------------ *)

let split_spec spec =
  match String.index_opt spec '=' with
  | Some i ->
    (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> failwith (Printf.sprintf "source spec %S is not NAME=PATH" spec)

let load_csv_source spec =
  let name, path = split_spec spec in
  let base = Filename.remove_extension (Filename.basename path) in
  Csv_source.make ~name [ (base, read_file path) ]

let load_xml_source spec =
  let name, path = split_spec spec in
  let base = Filename.remove_extension (Filename.basename path) in
  Xml_source.of_xml_strings ~name [ (base, read_file path) ]

let load_sql_source spec =
  let name, path = split_spec spec in
  let db = Rel_db.create ~name () in
  let text = read_file path in
  (* Statements separated by ';'. *)
  List.iter
    (fun stmt ->
      let stmt = String.trim stmt in
      if stmt <> "" then ignore (Rel_db.exec db stmt))
    (String.split_on_char ';' text);
  Rel_source.make db

let demo_federation () =
  let db = Rel_db.create ~name:"crm" () in
  List.iter
    (fun s -> ignore (Rel_db.exec db s))
    [
      "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, region TEXT, tier INT)";
      "CREATE TABLE orders (oid INT PRIMARY KEY, cust_id INT, item TEXT, amount FLOAT)";
      "INSERT INTO customers VALUES (1, 'Acme', 'west', 1), (2, 'Globex', 'east', 2), \
       (3, 'Initech', 'west', 2)";
      "INSERT INTO orders VALUES (100, 1, 'widget', 250.0), (101, 2, 'server', 9000.0), \
       (102, 3, 'widget', 120.0)";
    ];
  let products =
    Xml_source.of_xml_strings ~name:"products"
      [
        ( "catalog",
          {|<catalog><product sku="widget"><price>25</price></product>
            <product sku="server"><price>4500</price></product></catalog>|} );
      ]
  in
  [ Rel_source.make db; products ]

(* --fetch-mode/--fetch-fanout/--frag-cache plus the resilience knobs
   (--retry/--retry-deadline/--breaker/--flaky), collected into one
   value so every subcommand threads them identically. *)
let apply_fetch sys (mode, fanout, frag_capacity, sem_budget, retries, deadline, breaker, _flaky)
    =
  (match Fetch_sched.mode_of_string mode with
  | Some m -> Nimble.set_fetch_options sys { Fetch_sched.mode = m; fanout = max 1 fanout }
  | None -> failwith (Printf.sprintf "unknown fetch mode %S (seq, gather)" mode));
  if frag_capacity > 0 then Nimble.configure_frag_cache sys ~capacity:frag_capacity ();
  if sem_budget > 0 then Nimble.configure_sem_cache sys ~budget_bytes:sem_budget ();
  if retries < 0 then failwith "--retry must be non-negative";
  if deadline < 0.0 then failwith "--retry-deadline must be non-negative";
  let breaker =
    match breaker with
    | "on" -> true
    | "off" -> false
    | s -> failwith (Printf.sprintf "unknown breaker mode %S (on, off)" s)
  in
  Nimble.set_retry_policy sys
    {
      Src_retry.default_policy with
      max_retries = retries;
      call_deadline_ms = (if deadline > 0.0 then Some deadline else None);
      breaker;
    }

(* --flaky NAME=SPEC[,SPEC...]: wrap an already-registered source in a
   deterministic fault schedule (windows in virtual ms). *)
let parse_fault spec =
  let f s =
    match float_of_string_opt s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "bad fault window number %S" s)
  in
  match String.split_on_char ':' spec with
  | [ "down" ] -> Net_sim.persistently_offline
  | [ "off"; a; b ] -> Net_sim.offline_window ~from_ms:(f a) ~until_ms:(f b)
  | [ "slow"; a; b; x ] ->
    Net_sim.slow_window ~from_ms:(f a) ~until_ms:(f b) ~factor:(f x) ()
  | [ "mid"; a; b; p ] -> (
    match int_of_string_opt p with
    | Some prefix -> Net_sim.midstream_window ~from_ms:(f a) ~until_ms:(f b) ~prefix
    | None -> failwith (Printf.sprintf "bad mid-stream prefix %S" p))
  | _ ->
    failwith
      (Printf.sprintf
         "bad fault spec %S (down, off:FROM:UNTIL, slow:FROM:UNTIL:FACTOR, \
          mid:FROM:UNTIL:PREFIX)"
         spec)

let apply_flaky sys spec =
  match String.index_opt spec '=' with
  | None -> failwith (Printf.sprintf "--flaky %S: expected NAME=SPEC[,SPEC...]" spec)
  | Some i ->
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let faults =
      String.split_on_char ',' rest
      |> List.filter (fun s -> s <> "")
      |> List.map parse_fault
    in
    let reg = Med_catalog.registry (Nimble.catalog sys) in
    (match Src_registry.find reg name with
    | None -> failwith (Printf.sprintf "--flaky: unknown source %S" name)
    | Some src ->
      let wrapped, _stats = Net_sim.wrap ~seed:7 ~faults Net_sim.default_profile src in
      Src_registry.remove reg name;
      Src_registry.register reg wrapped)

(* --parallel/--chunk-size/--optimize/--index: tuple or morsel-driven
   plan evaluation (--parallel N > 0 selects the latter with N domains),
   the join-order strategy, and the path/value index mode. *)
let apply_exec sys (chunk, par, omode, imode) =
  if chunk <= 0 then failwith "chunk size must be positive";
  if par < 0 then failwith "parallelism must be non-negative";
  (match Med_optimize.mode_of_string omode with
  | Some m -> Nimble.set_optimizer sys m
  | None -> failwith (Printf.sprintf "unknown optimizer mode %S (greedy, dp, dp:N)" omode));
  (match Idx_manager.mode_of_string imode with
  | Ok m -> Nimble.set_index_mode sys m
  | Error m -> failwith m);
  Nimble.set_exec_mode sys
    (if par > 0 then Alg_exec.Parallel { domains = par; chunk } else Alg_exec.Tuple)

let build_system csvs xmls sqls fetch exec =
  let sys = Nimble.create () in
  apply_fetch sys fetch;
  apply_exec sys exec;
  let sources =
    List.map load_csv_source csvs
    @ List.map load_xml_source xmls
    @ List.map load_sql_source sqls
  in
  let sources = if sources = [] then demo_federation () else sources in
  List.iter
    (fun src ->
      match Nimble.register_source sys src with
      | Ok () -> ()
      | Error m -> failwith m)
    sources;
  (let _, _, _, _, _, _, _, flaky = fetch in
   List.iter (apply_flaky sys) flaky);
  sys

(* ------------------------------------------------------------------ *)
(* Subcommand bodies                                                   *)
(* ------------------------------------------------------------------ *)

let device_of_flag s =
  match Fe_format.device_of_string s with
  | Some d -> d
  | None -> failwith (Printf.sprintf "unknown device %S (web, wireless, text, xml)" s)

(* Setup failures (bad flags, unreadable files, malformed source data)
   become clean CLI errors rather than uncaught exceptions. *)
let with_setup f =
  try f () with
  | Failure m -> `Error (false, m)
  | Sys_error m -> `Error (false, m)
  | Xml_parser.Parse_error e -> `Error (false, Xml_parser.error_to_string e)
  | Rel_db.Sql_error m -> `Error (false, m)

let run_query csvs xmls sqls fetch exec partial device text =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  let device = device_of_flag device in
  if partial then begin
    match Nimble.query_partial_ex sys text with
    | Ok (trees, skipped, stale) ->
      print_endline (Fe_format.render device trees);
      if skipped <> [] then
        Printf.printf "-- incomplete: sources unavailable: %s\n" (String.concat ", " skipped);
      if stale <> [] then
        Printf.printf "-- stale: served cached extents for: %s\n" (String.concat ", " stale);
      `Ok ()
    | Error m -> `Error (false, m)
  end
  else begin
    match Nimble.query_formatted sys ~device text with
    | Ok rendered ->
      print_endline rendered;
      `Ok ()
    | Error m -> `Error (false, m)
  end

let run_explain csvs xmls sqls fetch exec text =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  match Nimble.explain sys text with
  | Ok plan ->
    print_string plan;
    `Ok ()
  | Error m -> `Error (false, m)

let run_report csvs xmls sqls fetch exec =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  print_string (Nimble.report sys);
  `Ok ()

let run_explain_analyze csvs xmls sqls fetch exec repeat text =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  match Nimble.explain_analyze sys ~repeat text with
  | Ok report ->
    print_string report;
    `Ok ()
  | Error m -> `Error (false, m)

(* Run the queries (warming counters, caches and the feedback store),
   then print the metrics registry and the per-source breakdown. *)
let run_stats csvs xmls sqls fetch exec texts =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  let rec go = function
    | [] ->
      print_string (Nimble.stats_report sys);
      `Ok ()
    | text :: rest -> (
      match Nimble.query sys text with
      | Ok _ -> go rest
      | Error m -> `Error (false, m))
  in
  go texts

let run_trace csvs xmls sqls fetch exec text =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  Nimble.set_tracing true;
  match Nimble.query sys text with
  | Ok _ ->
    print_string (Nimble.trace_report sys);
    `Ok ()
  | Error m -> `Error (false, m)

(* The concurrency server, driven by a request script (see Srv_script
   for the directive set).  Scripts against the built-in demo
   federation start with [demo] to install its users and lenses. *)
let run_serve csvs xmls sqls fetch exec path =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  let env = Srv_script.create ~print:print_endline sys in
  match Srv_script.run env (read_file path) with
  | Ok () -> `Ok ()
  | Error m -> `Error (false, m)

(* ------------------------------------------------------------------ *)
(* REPL                                                                *)
(* ------------------------------------------------------------------ *)

let exec_usage = "usage: \\exec | \\exec tuple | \\exec parallel [DOMAINS]"

let repl_help =
  {|commands:
  \help                       this message
  \report                     system status
  \exports                    addressable source exports
  \define NAME := QUERY       define a mediated schema
  \materialize NAME           materialize a view (manual refresh)
  \refresh NAME               refresh a materialized view
  \explain QUERY              show the physical plan
  \analyze QUERY              run instrumented: est vs actual rows, timings
  \analyze                    collect per-source statistics (rows, histograms)
  \stats                      metrics registry and per-source breakdown
  \trace QUERY                run with tracing on and print the span tree
  \partial QUERY              run in partial-results mode
  \fetch                      show fetch mode and fragment-cache state
  \fetch seq|gather [FANOUT]  switch source fetching (gather = overlapped rounds)
  \fetch cache N              enable a fragment result cache of N entries
  \sem                        show the semantic fragment cache state
  \sem budget BYTES           (re)budget the semantic cache (0 = off)
  \retry                      show the retry/breaker policy and breaker states
  \retry N                    retry failed source calls up to N times
  \retry deadline MS          per-call retry budget in virtual ms (0 = none)
  \retry breaker on|off       per-source circuit breakers
  \retry stale on|off         partial mode may serve stale cached fragments
  \exec                       show the plan execution engine
  \exec tuple                 switch to tuple-at-a-time execution (the default)
  \exec parallel [DOMAINS]    switch to morsel-driven execution (1 = sequential)
  \optimize                   show the join-order strategy
  \optimize greedy|dp[:N]     switch optimizers (dp = cost-based DPsize)
  \index                      show path/value index registrations
  \index off|auto|eager       switch the index mode
  \index build VIEW           force-build a view's structural guide
  \save FILE                  write views/materializations as a script
  \load FILE                  replay a saved script
  \serve FILE                 run a concurrency-server request script
  \quit                       exit
anything else is run as an XML-QL query (end with ';' to span lines)|}

let read_statement () =
  (* Accumulate lines until one ends with ';' or the first line is a
     backslash-command. *)
  let rec go acc =
    match In_channel.input_line stdin with
    | None -> None
    | Some line ->
      let line = String.trim line in
      if acc = "" && (line = "" || line.[0] = '\\') then Some line
      else begin
        let acc = if acc = "" then line else acc ^ " " ^ line in
        if String.length acc > 0 && acc.[String.length acc - 1] = ';' then
          Some (String.sub acc 0 (String.length acc - 1))
        else if acc = "" then Some ""
        else go acc
      end
  in
  go ""

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let run_repl csvs xmls sqls fetch exec =
  with_setup @@ fun () ->
  let sys = build_system csvs xmls sqls fetch exec in
  Printf.printf "nimble repl — %d source(s) registered, \\help for commands\n"
    (List.length (Med_catalog.source_names (Nimble.catalog sys)));
  let rec loop () =
    print_string "nimble> ";
    flush stdout;
    match read_statement () with
    | None -> ()
    | Some "" -> loop ()
    | Some "\\quit" -> ()
    | Some "\\help" ->
      print_endline repl_help;
      loop ()
    | Some "\\report" ->
      print_string (Nimble.report sys);
      loop ()
    | Some "\\exports" ->
      List.iter print_endline (Src_registry.exports (Med_catalog.registry (Nimble.catalog sys)));
      loop ()
    | Some line when starts_with "\\define " line -> (
      let rest = String.sub line 8 (String.length line - 8) in
      match String.index_opt rest ':' with
      | Some i when i + 1 < String.length rest && rest.[i + 1] = '=' ->
        let vname = String.trim (String.sub rest 0 i) in
        let body = String.trim (String.sub rest (i + 2) (String.length rest - i - 2)) in
        (match Nimble.define_view sys vname body with
        | Ok () -> Printf.printf "defined view %s\n" vname
        | Error m -> Printf.printf "error: %s\n" m);
        loop ()
      | _ ->
        print_endline "usage: \\define NAME := QUERY";
        loop ())
    | Some line when starts_with "\\materialize " line ->
      let vname = String.trim (String.sub line 13 (String.length line - 13)) in
      (match Nimble.materialize_view sys vname with
      | Ok () -> Printf.printf "materialized %s\n" vname
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\refresh " line ->
      let vname = String.trim (String.sub line 9 (String.length line - 9)) in
      (match Nimble.refresh_view sys vname with
      | Ok () -> Printf.printf "refreshed %s\n" vname
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\save " line ->
      let path = String.trim (String.sub line 6 (String.length line - 6)) in
      (try
         Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc (Nimble.save_config sys));
         Printf.printf "saved configuration to %s\n" path
       with Sys_error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\load " line ->
      let path = String.trim (String.sub line 6 (String.length line - 6)) in
      (try
         let script = read_file path in
         match Nimble.load_config sys script with
         | Ok () -> Printf.printf "loaded %s\n" path
         | Error m -> Printf.printf "error: %s\n" m
       with Sys_error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\serve " line ->
      let path = String.trim (String.sub line 7 (String.length line - 7)) in
      (try
         let script = read_file path in
         let env = Srv_script.create ~print:print_endline sys in
         match Srv_script.run env script with
         | Ok () -> ()
         | Error m -> Printf.printf "error: %s\n" m
       with Sys_error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\explain " line ->
      let text = String.sub line 9 (String.length line - 9) in
      (match Nimble.explain sys text with
      | Ok plan -> print_string plan
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some "\\analyze" ->
      (match Nimble.analyze_stats sys with
      | Ok report -> print_string report
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\analyze " line ->
      let text = String.sub line 9 (String.length line - 9) in
      (match Nimble.explain_analyze sys text with
      | Ok report -> print_string report
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some "\\optimize" ->
      print_string (Nimble.optimizer_report sys);
      loop ()
    | Some line when starts_with "\\optimize " line ->
      (let arg = String.trim (String.sub line 10 (String.length line - 10)) in
       match Med_optimize.mode_of_string arg with
       | Some m ->
         Nimble.set_optimizer sys m;
         print_string (Nimble.optimizer_report sys)
       | None -> print_endline "usage: \\optimize greedy|dp[:N]");
      loop ()
    | Some "\\stats" ->
      print_string (Nimble.stats_report sys);
      loop ()
    | Some line when starts_with "\\trace " line ->
      let text = String.sub line 7 (String.length line - 7) in
      Nimble.set_tracing true;
      (match Nimble.query sys text with
      | Ok _ -> print_string (Nimble.trace_report sys)
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some "\\fetch" ->
      print_string (Nimble.fetch_report sys);
      loop ()
    | Some line when starts_with "\\fetch " line ->
      (let args =
         String.split_on_char ' ' (String.trim (String.sub line 7 (String.length line - 7)))
         |> List.filter (fun s -> s <> "")
       in
       match args with
       | [ "cache"; n ] -> (
         match int_of_string_opt n with
         | Some capacity when capacity >= 0 ->
           Nimble.configure_frag_cache sys ~capacity ();
           print_string (Nimble.fetch_report sys)
         | _ -> print_endline "usage: \\fetch cache N")
       | mode :: rest -> (
         match (Fetch_sched.mode_of_string mode, rest) with
         | Some m, [] ->
           Nimble.set_fetch_options sys
             { (Nimble.fetch_options sys) with Fetch_sched.mode = m };
           print_string (Nimble.fetch_report sys)
         | Some m, [ n ] -> (
           match int_of_string_opt n with
           | Some fanout when fanout > 0 ->
             Nimble.set_fetch_options sys { Fetch_sched.mode = m; fanout };
             print_string (Nimble.fetch_report sys)
           | _ -> print_endline "usage: \\fetch seq|gather [FANOUT]")
         | _ -> print_endline "usage: \\fetch seq|gather [FANOUT] | \\fetch cache N")
       | [] -> print_string (Nimble.fetch_report sys));
      loop ()
    | Some "\\sem" ->
      print_string (Nimble.sem_report sys);
      loop ()
    | Some line when starts_with "\\sem " line ->
      (let args =
         String.split_on_char ' ' (String.trim (String.sub line 5 (String.length line - 5)))
         |> List.filter (fun s -> s <> "")
       in
       match args with
       | [ "budget"; n ] -> (
         match int_of_string_opt n with
         | Some budget_bytes when budget_bytes >= 0 ->
           Nimble.configure_sem_cache sys ~budget_bytes ();
           print_string (Nimble.sem_report sys)
         | _ -> print_endline "usage: \\sem budget BYTES")
       | [] -> print_string (Nimble.sem_report sys)
       | _ -> print_endline "usage: \\sem | \\sem budget BYTES");
      loop ()
    | Some "\\retry" ->
      print_string (Nimble.retry_report sys);
      loop ()
    | Some line when starts_with "\\retry " line ->
      (let args =
         String.split_on_char ' ' (String.trim (String.sub line 7 (String.length line - 7)))
         |> List.filter (fun s -> s <> "")
       in
       let pol = Nimble.retry_policy sys in
       let set p =
         Nimble.set_retry_policy sys p;
         print_string (Nimble.retry_report sys)
       in
       match args with
       | [ n ] when int_of_string_opt n <> None -> (
         match int_of_string_opt n with
         | Some retries when retries >= 0 ->
           set { pol with Src_retry.max_retries = retries }
         | _ -> print_endline "usage: \\retry N")
       | [ "deadline"; ms ] -> (
         match float_of_string_opt ms with
         | Some d when d >= 0.0 ->
           set
             {
               pol with
               Src_retry.call_deadline_ms = (if d > 0.0 then Some d else None);
             }
         | _ -> print_endline "usage: \\retry deadline MS")
       | [ "breaker"; ("on" | "off") as v ] ->
         set { pol with Src_retry.breaker = v = "on" }
       | [ "stale"; ("on" | "off") as v ] ->
         set { pol with Src_retry.serve_stale = v = "on" }
       | _ ->
         print_endline
           "usage: \\retry | \\retry N | \\retry deadline MS | \\retry breaker \
            on|off | \\retry stale on|off");
      loop ()
    | Some "\\exec" ->
      print_string (Nimble.exec_report sys);
      loop ()
    | Some line when starts_with "\\exec " line ->
      (let args =
         String.split_on_char ' ' (String.trim (String.sub line 6 (String.length line - 6)))
         |> List.filter (fun s -> s <> "")
       in
       let parallel domains =
         Some (Alg_exec.Parallel { domains; chunk = Alg_exec.default_chunk })
       in
       let mode =
         match args with
         | [ "tuple" ] -> Some Alg_exec.Tuple
         | [ "parallel" ] -> parallel (Alg_par.default_domains ())
         | [ "parallel"; n ] -> (
           match int_of_string_opt n with
           | Some domains when domains > 0 -> parallel domains
           | _ -> None)
         | _ -> None
       in
       match mode with
       | Some m ->
         Nimble.set_exec_mode sys m;
         print_string (Nimble.exec_report sys)
       | None -> print_endline exec_usage);
      loop ()
    | Some line when line = "\\par" || starts_with "\\par " line ->
      (* Not an engine command: \exec parallel switches engines. *)
      print_endline exec_usage;
      loop ()
    | Some "\\index" ->
      print_string (Nimble.index_report sys);
      loop ()
    | Some line when starts_with "\\index " line ->
      (let args =
         String.split_on_char ' ' (String.trim (String.sub line 7 (String.length line - 7)))
         |> List.filter (fun s -> s <> "")
       in
       match args with
       | [ ("off" | "auto" | "eager") as m ] ->
         (match Idx_manager.mode_of_string m with
         | Ok mode -> Nimble.set_index_mode sys mode
         | Error e -> print_endline e);
         print_string (Nimble.index_report sys)
       | [ "build"; name ] -> (
         match Nimble.build_index sys name with
         | Ok msg -> print_string msg
         | Error m -> Printf.printf "error: %s\n" m)
       | _ -> print_endline "usage: \\index | \\index off|auto|eager | \\index build VIEW");
      loop ()
    | Some line when starts_with "\\partial " line ->
      let text = String.sub line 9 (String.length line - 9) in
      (match Nimble.query_partial_ex sys text with
      | Ok (trees, skipped, stale) ->
        print_string (Fe_format.render Fe_format.Text trees);
        if skipped <> [] then
          Printf.printf "-- incomplete: %s unavailable\n" (String.concat ", " skipped);
        if stale <> [] then
          Printf.printf "-- stale: %s served from cache\n" (String.concat ", " stale)
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
    | Some line when starts_with "\\" line ->
      Printf.printf "unknown command %s (try \\help)\n" line;
      loop ()
    | Some text ->
      (match Nimble.query sys text with
      | Ok trees -> print_string (Fe_format.render Fe_format.Text trees)
      | Error m -> Printf.printf "error: %s\n" m);
      loop ()
  in
  loop ();
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let csv_opt =
  Arg.(value & opt_all string [] & info [ "csv" ] ~docv:"NAME=PATH" ~doc:"Register a CSV flat-file source.")

let xml_opt =
  Arg.(value & opt_all string [] & info [ "xml" ] ~docv:"NAME=PATH" ~doc:"Register an XML document source.")

let sql_opt =
  Arg.(value & opt_all string [] & info [ "sql" ] ~docv:"NAME=PATH" ~doc:"Load a .sql script into an in-memory relational source.")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XML-QL query text.")

let partial_flag =
  Arg.(value & flag & info [ "partial" ] ~doc:"Partial-results mode: skip unavailable sources and annotate.")

let device_opt =
  Arg.(value & opt string "text" & info [ "device" ] ~docv:"DEVICE" ~doc:"Output device: web, wireless, text or xml.")

let fetch_mode_opt =
  Arg.(
    value & opt string "seq"
    & info [ "fetch-mode" ] ~docv:"MODE"
        ~doc:
          "Source fetch scheduling: $(b,seq) (one access at a time) or \
           $(b,gather) (scatter-gather rounds of --fetch-fanout overlapped \
           accesses, with per-source batching and dedup).")

let fetch_fanout_opt =
  Arg.(
    value & opt int Fetch_sched.default_fanout
    & info [ "fetch-fanout" ] ~docv:"K"
        ~doc:"Accesses per scatter-gather round (gather mode only).")

let frag_cache_opt =
  Arg.(
    value & opt int 0
    & info [ "frag-cache" ] ~docv:"N"
        ~doc:
          "Enable a fragment-level source result cache of N entries (0 \
           disables; sits below the whole-query result cache).")

let sem_cache_opt =
  Arg.(
    value & opt int 0
    & info [ "sem-cache" ] ~docv:"BYTES"
        ~doc:
          "Enable the semantic fragment cache with a budget of $(docv) \
           bytes (0 disables).  Cached extents answer repeated source \
           fragments whose predicate is contained in a cached one \
           without contacting the source, and overlapping predicates \
           ship only the remainder.")

let retry_opt =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Retry transiently unavailable source calls up to $(docv) \
           times with capped exponential backoff and seeded jitter, \
           charged to the virtual clock (0, the default, disables \
           retries).")

let retry_deadline_opt =
  Arg.(
    value & opt float 0.0
    & info [ "retry-deadline" ] ~docv:"MS"
        ~doc:
          "Per-call retry budget in virtual milliseconds: a retry whose \
           backoff would overshoot the budget gives up instead (0 \
           disables the deadline).")

let breaker_opt =
  Arg.(
    value & opt string "off"
    & info [ "breaker" ] ~docv:"on|off"
        ~doc:
          "Per-source circuit breakers: after consecutive failures the \
           breaker opens and calls fail fast (no latency paid) until a \
           cool-down admits a half-open probe.")

let flaky_opt =
  Arg.(
    value & opt_all string []
    & info [ "flaky" ] ~docv:"NAME=SPEC"
        ~doc:
          "Deterministic fault injection: wrap the registered source \
           $(b,NAME) in a seeded fault schedule.  SPECs (comma-separable) \
           are $(b,down) (persistently offline), $(b,off:FROM:UNTIL) \
           (transient offline window in virtual ms), \
           $(b,slow:FROM:UNTIL:FACTOR) (latency multiplier window) and \
           $(b,mid:FROM:UNTIL:PREFIX) (ship PREFIX tuples, then die).")

let fetch_term =
  Term.(
    const (fun mode fanout frag sem retries deadline breaker flaky ->
        (mode, fanout, frag, sem, retries, deadline, breaker, flaky))
    $ fetch_mode_opt $ fetch_fanout_opt $ frag_cache_opt $ sem_cache_opt
    $ retry_opt $ retry_deadline_opt $ breaker_opt $ flaky_opt)

let chunk_size_opt =
  Arg.(
    value & opt int Alg_exec.default_chunk
    & info [ "chunk-size" ] ~docv:"N"
        ~doc:"Rows per morsel on the morsel-driven engine (default 1024).")

let parallel_opt =
  Arg.(
    value & opt int 0
    & info [ "parallel" ] ~docv:"N"
        ~doc:
          "Run plans on the morsel-driven engine with $(docv) domains \
           (the calling domain included; 1 is the sequential chunked \
           mode); 0, the default, runs them tuple-at-a-time.  Answers \
           are identical either way.")

let optimize_opt =
  Arg.(
    value & opt string "greedy"
    & info [ "optimize" ] ~docv:"MODE"
        ~doc:
          "Join-order strategy: $(b,greedy) (connected cheapest-next \
           walk, the default) or $(b,dp) (DPsize dynamic-programming \
           enumeration over the statistics catalog and network \
           profiles, converting large fragments to bind joins; \
           $(b,dp:N) caps enumeration at N relations, falling back to \
           greedy past it).  Answers are identical in both modes.")

let index_opt =
  Arg.(
    value & opt string "auto"
    & info [ "index" ] ~docv:"MODE"
        ~doc:
          "Path/value index mode: $(b,auto) (build structural guides on \
           first probe, the default), $(b,eager) (build them when a view \
           materializes or a document registers) or $(b,off) (always walk \
           trees).  Answers are identical in all modes.")

let exec_term =
  Term.(
    const (fun chunk par omode imode -> (chunk, par, omode, imode))
    $ chunk_size_opt $ parallel_opt $ optimize_opt $ index_opt)

let wrap f = Term.(ret (const f))

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Run an XML-QL query against the registered sources")
    Term.(
      ret (const run_query $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ partial_flag $ device_opt $ query_arg))

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the physical plan and pushed fragments for a query")
    Term.(ret (const run_explain $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ query_arg))

let repeat_opt =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Run the query N times; each run feeds observed cardinalities back \
           into the planner, so later runs show estimates converging on \
           measured row counts.")

let queries_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"QUERY" ~doc:"XML-QL query text (one or more).")

let explain_analyze_cmd =
  Cmd.v
    (Cmd.info "explain-analyze"
       ~doc:
         "Execute a query instrumented: per-operator estimated vs actual rows \
          and time, and a per-source-fragment table")
    Term.(
      ret (const run_explain_analyze $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ repeat_opt $ query_arg))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the given queries, then print the metrics registry and the \
          per-source breakdown")
    Term.(ret (const run_stats $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ queries_arg))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a query with the trace sink enabled and print the span tree")
    Term.(ret (const run_trace $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ query_arg))

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Print the system status report")
    Term.(ret (const run_report $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term))

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive shell: queries, view definitions, materialization")
    Term.(ret (const run_repl $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term))

let script_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"SCRIPT"
        ~doc:
          "Request script: sessions, lens invocations with priorities and \
           deadlines, clock advances, source availability toggles.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrency server over a scripted request stream: \
          multi-query sessions, admission control with deterministic load \
          shedding, the lens plan cache, and load-balanced dispatch over N \
          logical engines")
    Term.(ret (const run_serve $ csv_opt $ xml_opt $ sql_opt $ fetch_term $ exec_term $ script_arg))

let main =
  let doc = "the Nimble XML data integration system" in
  Cmd.group
    (Cmd.info "nimble" ~version:"1.0.0" ~doc)
    [
      query_cmd;
      explain_cmd;
      explain_analyze_cmd;
      stats_cmd;
      trace_cmd;
      report_cmd;
      repl_cmd;
      serve_cmd;
    ]

let () =
  ignore wrap;
  exit (Cmd.eval main)
