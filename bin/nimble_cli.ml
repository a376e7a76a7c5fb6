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

(* Knob settings come first, so an eager index mode sees the sources
   register. *)
let build_system csvs xmls sqls settings flaky =
  let sys = Nimble.create () in
  List.iter
    (fun ((k : Nimble.t Nimble.knob), v) ->
      match k.set sys v with
      | Ok () -> ()
      | Error m -> failwith m)
    settings;
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
  List.iter (apply_flaky sys) flaky;
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

let run_query setup partial device text =
  with_setup @@ fun () ->
  let sys = setup () in
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

let run_explain setup text =
  with_setup @@ fun () ->
  let sys = setup () in
  match Nimble.explain sys text with
  | Ok plan ->
    print_string plan;
    `Ok ()
  | Error m -> `Error (false, m)

let run_report setup =
  with_setup @@ fun () ->
  let sys = setup () in
  print_string (Nimble.report sys);
  `Ok ()

let run_explain_analyze setup repeat text =
  with_setup @@ fun () ->
  let sys = setup () in
  match Nimble.explain_analyze sys ~repeat text with
  | Ok report ->
    print_string report;
    `Ok ()
  | Error m -> `Error (false, m)

(* Run the queries (warming counters, caches and the feedback store),
   then print the metrics registry and the per-source breakdown. *)
let run_stats setup texts =
  with_setup @@ fun () ->
  let sys = setup () in
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

let run_trace setup text =
  with_setup @@ fun () ->
  let sys = setup () in
  Nimble.set_tracing true;
  match Nimble.query sys text with
  | Ok _ ->
    print_string (Nimble.trace_report sys);
    `Ok ()
  | Error m -> `Error (false, m)

(* The concurrency server, driven by a request script (see Srv_script
   for the directive set).  Scripts against the built-in demo
   federation start with [demo] to install its users and lenses. *)
let run_serve setup path =
  with_setup @@ fun () ->
  let sys = setup () in
  let env = Srv_script.create ~print:print_endline sys in
  match Srv_script.run env (read_file path) with
  | Ok () -> `Ok ()
  | Error m -> `Error (false, m)

(* ------------------------------------------------------------------ *)
(* REPL                                                                *)
(* ------------------------------------------------------------------ *)

let exec_usage = "\\exec | \\exec tuple | \\exec parallel [DOMAINS]"

(* The report commands: bare, each prints its view; with arguments, a
   shorthand for [\set] (below) or its usage line. *)
let views =
  [
    ("\\fetch", (Nimble.fetch_report, "\\fetch | \\fetch seq|gather [FANOUT] | \\fetch cache N"));
    ("\\sem", (Nimble.sem_report, "\\sem | \\sem budget BYTES"));
    ( "\\retry",
      ( Nimble.retry_report,
        "\\retry | \\retry N | \\retry deadline MS | \\retry breaker on|off | \\retry stale on|off" ) );
    ("\\exec", (Nimble.exec_report, exec_usage));
    ("\\optimize", (Nimble.optimizer_report, "\\optimize | \\set optimize MODE"));
    ("\\index", (Nimble.index_report, "\\index | \\index off|auto|eager | \\index build VIEW"));
  ]

(* The setting forms the report commands had before [\set], kept for
   existing scripts: each stands for one or two [\set]s. *)
let shorthand cmd args =
  let positive n = Option.fold ~none:false ~some:(fun d -> d > 0) (int_of_string_opt n) in
  match (cmd, args) with
  | "\\fetch", [ "cache"; n ] -> Some [ ("frag-cache", n) ]
  | "\\fetch", [ mode ] -> Some [ ("fetch-mode", mode) ]
  | "\\fetch", [ mode; n ] when positive n -> Some [ ("fetch-mode", mode); ("fetch-fanout", n) ]
  | "\\sem", [ "budget"; n ] -> Some [ ("sem-cache", n) ]
  | "\\retry", [ "deadline"; ms ] -> Some [ ("retry-deadline", ms) ]
  | "\\retry", [ "breaker"; v ] -> Some [ ("breaker", v) ]
  | "\\retry", [ "stale"; v ] -> Some [ ("retry-stale", v) ]
  | "\\retry", [ n ] -> Some [ ("retry", n) ]
  | "\\exec", [ "tuple" ] -> Some [ ("parallel", "0") ]
  | "\\exec", [ "parallel" ] -> Some [ ("parallel", string_of_int (Alg_par.default_domains ())) ]
  | "\\exec", [ "parallel"; n ] when positive n -> Some [ ("parallel", n) ]
  | "\\index", [ mode ] -> Some [ ("index", mode) ]
  | _ -> None

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
  \set NAME VALUE             set an execution knob (\show lists them)
  \show [NAME]                show every knob's value, or one
  \fetch                      show fetch mode and fragment-cache state
  \sem                        show the semantic fragment cache state
  \retry                      show the retry/breaker policy and breaker states
  \exec                       show the plan execution engine
  \optimize                   show the join-order strategy
  \index                      show path/value index registrations
  \index build VIEW           force-build a view's structural guide
  \save FILE                  write knobs, views and materializations as a script
  \load FILE                  replay a saved script
  \serve FILE                 run a concurrency-server request script
  \quit                       exit
anything else is run as an XML-QL query (end with ';' to span lines)
shorthands for \set: \fetch seq|gather [FANOUT], \fetch cache N,
  \sem budget BYTES, \retry N, \retry deadline|breaker|stale VALUE,
  \exec tuple|parallel [DOMAINS], \index off|auto|eager|}

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

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let print_result print = function
  | Ok v -> print v
  | Error m -> Printf.printf "error: %s\n" m

let with_file f path = try f path with Sys_error m -> print_result ignore (Error m)

let view sys cmd args =
  let report, usage = List.assoc cmd views in
  match (cmd, args, shorthand cmd args) with
  | _, [], _ -> print_string (report sys)
  | "\\index", [ "build"; name ], _ -> print_result print_string (Nimble.build_index sys name)
  | _, _, Some settings ->
    print_result
      (fun () -> print_string (report sys))
      (List.fold_left
         (fun acc (name, v) -> Result.bind acc (fun () -> Nimble.set_knob sys name v))
         (Ok ()) settings)
  | _, _, None -> Printf.printf "usage: %s\n" usage

(* One line of input: a backslash command or a query. *)
let repl_command sys line =
  let cmd, arg =
    match String.index_opt line ' ' with
    | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
    | None -> (line, "")
  in
  let show (k : Nimble.t Nimble.knob) = Printf.printf "%s = %s\n" k.name (k.get sys) in
  let render trees = print_string (Fe_format.render Fe_format.Text trees) in
  if line = "" then ()
  else if line.[0] <> '\\' then print_result render (Nimble.query sys line)
  else
    match (cmd, arg) with
    | "\\help", "" -> print_endline repl_help
    | "\\report", "" -> print_string (Nimble.report sys)
    | "\\exports", "" ->
      List.iter print_endline (Src_registry.exports (Med_catalog.registry (Nimble.catalog sys)))
    | "\\define", rest when rest <> "" -> (
      match String.index_opt rest ':' with
      | Some i when i + 1 < String.length rest && rest.[i + 1] = '=' ->
        let vname = String.trim (String.sub rest 0 i) in
        let body = String.trim (String.sub rest (i + 2) (String.length rest - i - 2)) in
        print_result
          (fun () -> Printf.printf "defined view %s\n" vname)
          (Nimble.define_view sys vname body)
      | _ -> print_endline "usage: \\define NAME := QUERY")
    | "\\materialize", name when name <> "" ->
      let name = String.trim name in
      print_result
        (fun () -> Printf.printf "materialized %s\n" name)
        (Nimble.materialize_view sys name)
    | "\\refresh", name when name <> "" ->
      let name = String.trim name in
      print_result (fun () -> Printf.printf "refreshed %s\n" name) (Nimble.refresh_view sys name)
    | "\\save", path when path <> "" ->
      with_file
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Nimble.save_config sys));
          Printf.printf "saved configuration to %s\n" path)
        (String.trim path)
    | "\\load", path when path <> "" ->
      with_file
        (fun path ->
          print_result
            (fun () -> Printf.printf "loaded %s\n" path)
            (Nimble.load_config sys (read_file path)))
        (String.trim path)
    | "\\serve", path when path <> "" ->
      with_file
        (fun path ->
          let env = Srv_script.create ~print:print_endline sys in
          print_result ignore (Srv_script.run env (read_file path)))
        (String.trim path)
    | "\\explain", text when text <> "" -> print_result print_string (Nimble.explain sys text)
    | "\\analyze", "" -> print_result print_string (Nimble.analyze_stats sys)
    | "\\analyze", text -> print_result print_string (Nimble.explain_analyze sys text)
    | "\\stats", "" -> print_string (Nimble.stats_report sys)
    | "\\trace", text when text <> "" ->
      Nimble.set_tracing true;
      print_result (fun _ -> print_string (Nimble.trace_report sys)) (Nimble.query sys text)
    | "\\partial", text when text <> "" ->
      print_result
        (fun (trees, skipped, stale) ->
          render trees;
          if skipped <> [] then
            Printf.printf "-- incomplete: %s unavailable\n" (String.concat ", " skipped);
          if stale <> [] then
            Printf.printf "-- stale: %s served from cache\n" (String.concat ", " stale))
        (Nimble.query_partial_ex sys text)
    | "\\set", arg -> (
      match words arg with
      | [ name; v ] ->
        print_result show
          (Result.bind (Nimble.find_knob name) (fun k -> Result.map (fun () -> k) (k.set sys v)))
      | _ -> print_endline "usage: \\set NAME VALUE")
    | "\\show", "" -> List.iter show Nimble.knobs
    | "\\show", name -> print_result show (Nimble.find_knob (String.trim name))
    | cmd, arg when List.mem_assoc cmd views -> view sys cmd (words arg)
    (* Not an engine command: \exec parallel switches engines. *)
    | "\\par", _ -> Printf.printf "usage: %s\n" exec_usage
    | _ -> Printf.printf "unknown command %s (try \\help)\n" line

let run_repl setup =
  with_setup @@ fun () ->
  let sys = setup () in
  Printf.printf "nimble repl — %d source(s) registered, \\help for commands\n"
    (List.length (Med_catalog.source_names (Nimble.catalog sys)));
  let rec loop () =
    print_string "nimble> ";
    flush stdout;
    match read_statement () with
    | None | Some "\\quit" -> ()
    | Some line ->
      repl_command sys line;
      loop ()
  in
  loop ();
  `Ok ()

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let sources_opt name doc =
  Arg.(value & opt_all string [] & info [ name ] ~docv:"NAME=PATH" ~doc)

(* One flag per entry of [Nimble.knobs]; the value is the settings given,
   in table order. *)
let knob_settings =
  List.fold_right
    (fun (k : Nimble.t Nimble.knob) rest ->
      let flag =
        Arg.(
          value
          & opt (some ~none:(Nimble.knob_default k) string) None
          & info [ k.name ] ~docv:k.docv ~doc:k.doc)
      in
      Term.(const (fun v rest -> Option.fold ~none:rest ~some:(fun v -> (k, v) :: rest) v) $ flag $ rest))
    Nimble.knobs (Term.const [])

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

(* Every subcommand's system: sources, knobs and fault schedules. *)
let setup =
  Term.(
    const (fun csvs xmls sqls settings flaky () -> build_system csvs xmls sqls settings flaky)
    $ sources_opt "csv" "Register a CSV flat-file source."
    $ sources_opt "xml" "Register an XML document source."
    $ sources_opt "sql" "Load a .sql script into an in-memory relational source."
    $ knob_settings $ flaky_opt)

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XML-QL query text.")

let partial_flag =
  Arg.(value & flag & info [ "partial" ] ~doc:"Partial-results mode: skip unavailable sources and annotate.")

let device_opt =
  Arg.(value & opt string "text" & info [ "device" ] ~docv:"DEVICE" ~doc:"Output device: web, wireless, text or xml.")

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

let script_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"SCRIPT"
        ~doc:
          "Request script: sessions, lens invocations with priorities and \
           deadlines, clock advances, source availability toggles.")

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) Term.(ret term)

let main =
  let doc = "the Nimble XML data integration system" in
  Cmd.group
    (Cmd.info "nimble" ~version:"1.0.0" ~doc)
    [
      cmd "query" ~doc:"Run an XML-QL query against the registered sources"
        Term.(const run_query $ setup $ partial_flag $ device_opt $ query_arg);
      cmd "explain" ~doc:"Show the physical plan and pushed fragments for a query"
        Term.(const run_explain $ setup $ query_arg);
      cmd "explain-analyze"
        ~doc:
          "Execute a query instrumented: per-operator estimated vs actual rows \
           and time, and a per-source-fragment table"
        Term.(const run_explain_analyze $ setup $ repeat_opt $ query_arg);
      cmd "stats"
        ~doc:
          "Run the given queries, then print the metrics registry and the \
           per-source breakdown"
        Term.(const run_stats $ setup $ queries_arg);
      cmd "trace" ~doc:"Run a query with the trace sink enabled and print the span tree"
        Term.(const run_trace $ setup $ query_arg);
      cmd "report" ~doc:"Print the system status report" Term.(const run_report $ setup);
      cmd "repl" ~doc:"Interactive shell: queries, view definitions, materialization"
        Term.(const run_repl $ setup);
      cmd "serve"
        ~doc:
          "Run the concurrency server over a scripted request stream: \
           multi-query sessions, admission control with deterministic load \
           shedding, the lens plan cache, and load-balanced dispatch over N \
           logical engines"
        Term.(const run_serve $ setup $ script_arg);
    ]

let () = exit (Cmd.eval main)
