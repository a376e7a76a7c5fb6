(* Line-oriented scripts driving a concurrency server — the shared
   engine of [nimble_cli serve] and the repl's [\serve]. *)

type env = {
  sys : Nimble.t;
  print : string -> unit;
  mutable cfg : Srv_dispatch.config;
  mutable srv : Srv_dispatch.t option;
  offline_stash : (string, Source.t) Hashtbl.t;
}

let create ?(config = Srv_dispatch.default_config) ~print sys =
  { sys; print; cfg = config; srv = None; offline_stash = Hashtbl.create 4 }

let server env =
  match env.srv with
  | Some s -> s
  | None ->
    let s = Srv_dispatch.create ~config:env.cfg env.sys in
    Srv_dispatch.set_listener s (fun id out ->
        env.print
          (match out with
          | Srv_request.Completed _ -> Srv_request.outcome_line out
          | Rejected _ ->
            Printf.sprintf "req %d %s" id (Srv_request.outcome_line out)));
    env.srv <- Some s;
    s

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let kv tok =
  match String.index_opt tok '=' with
  | Some i ->
    Some
      ( String.sub tok 0 i,
        String.sub tok (i + 1) (String.length tok - i - 1) )
  | None -> None

let print_block env s =
  List.iter env.print
    (String.split_on_char '\n' s |> List.filter (fun l -> l <> ""))

(* The server's knobs, in the record shape of {!Nimble.knob}; a
   [config] line sets them before the server starts. *)
let config_knobs : Srv_dispatch.config ref Nimble.knob list =
  let int_knob name doc ~least get set =
    let bad =
      Printf.sprintf "%s must be a %s integer" name
        (if least > 0 then "positive" else "non-negative")
    in
    {
      Nimble.name;
      docv = "N";
      doc;
      get = (fun c -> string_of_int (get !c));
      set =
        (fun c v ->
          match int_of_string_opt v with
          | Some n when n >= least -> Ok (c := set !c n)
          | _ -> Error bad);
    }
  in
  let queue (c : Srv_dispatch.config) f = { c with queue = f c.queue } in
  [
    int_knob "engines" "Logical engines the dispatcher balances requests over." ~least:1
      (fun c -> c.Srv_dispatch.engines)
      (fun c engines -> { c with engines });
    int_knob "queue" "Admission queue capacity." ~least:1
      (fun c -> c.Srv_dispatch.queue.Srv_admit.queue_capacity)
      (fun c n -> queue c (fun q -> { q with queue_capacity = n }));
    int_knob "inflight" "Requests one session may have in flight." ~least:1
      (fun c -> c.Srv_dispatch.queue.Srv_admit.max_session_in_flight)
      (fun c n -> queue c (fun q -> { q with max_session_in_flight = n }));
    int_knob "cache" "Lens plan cache capacity (0 disables it)." ~least:0
      (fun c -> c.Srv_dispatch.plan_cache_capacity)
      (fun c plan_cache_capacity -> { c with plan_cache_capacity });
    {
      Nimble.name = "overhead";
      docv = "MS";
      doc = "Virtual milliseconds of service overhead per request.";
      get = (fun c -> Printf.sprintf "%g" !c.Srv_dispatch.service_overhead_ms);
      set =
        (fun c v ->
          match float_of_string_opt v with
          | Some f when f >= 0.0 -> Ok (c := { !c with service_overhead_ms = f })
          | _ -> Error "overhead must be a non-negative number");
    };
  ]

let apply_config env pairs =
  if env.srv <> None then Error "config must precede the first directive"
  else
    let cfg = ref env.cfg in
    let apply acc tok =
      Result.bind acc (fun () ->
          match kv tok with
          | None -> Error (Printf.sprintf "%S is not KEY=VAL" tok)
          | Some (k, v) -> (
            match List.find_opt (fun kn -> kn.Nimble.name = k) config_knobs with
            | Some kn -> kn.set cfg v
            | None -> Error (Printf.sprintf "unknown key %S" k)))
    in
    List.fold_left apply (Ok ()) pairs
    |> Result.map (fun () -> env.cfg <- !cfg)
    |> Result.map_error (( ^ ) "config: ")

let do_request env = function
  | session :: lens :: query :: rest ->
    let args = ref [] in
    let priority = ref Srv_request.Normal in
    let deadline = ref None in
    let mode = ref Srv_request.Strict in
    let exec = ref None in
    let bad = ref None in
    List.iter
      (fun tok ->
        match kv tok with
        | None -> if !bad = None then bad := Some tok
        | Some ("!prio", v) -> (
          match Srv_request.priority_of_string v with
          | Some p -> priority := p
          | None -> if !bad = None then bad := Some tok)
        | Some ("!deadline", v) -> (
          match float_of_string_opt v with
          | Some f -> deadline := Some f
          | None -> if !bad = None then bad := Some tok)
        | Some ("!mode", "partial") -> mode := Srv_request.Partial
        | Some ("!mode", "strict") -> mode := Srv_request.Strict
        | Some ("!mode", _) -> if !bad = None then bad := Some tok
        | Some ("!exec", v) -> (
          match Alg_exec.mode_of_string v with
          | Some m -> exec := Some m
          | None -> if !bad = None then bad := Some tok)
        | Some (k, v) -> args := (k, v) :: !args)
      rest;
    (match !bad with
    | Some tok -> Error (Printf.sprintf "request: bad token %S" tok)
    | None -> (
      match
        Srv_dispatch.submit (server env) ~session ~lens ~query
          ~args:(List.rev !args) ~priority:!priority ?deadline_ms:!deadline
          ~mode:!mode ?exec:!exec ()
      with
      | Ok _ -> Ok ()
      | Error m -> Error m))
  | _ -> Error "request: expected SESSION LENS QUERY [k=v ...]"

let set_offline env name =
  let reg = Med_catalog.registry (Nimble.catalog env.sys) in
  match Src_registry.find reg name with
  | None -> Error (Printf.sprintf "unknown source %S" name)
  | Some src ->
    if not (Hashtbl.mem env.offline_stash name) then
      Hashtbl.replace env.offline_stash name src;
    Src_registry.remove reg name;
    Src_registry.register reg
      {
        src with
        Source.is_available = (fun () -> false);
        execute = (fun _ -> raise (Source.Unavailable name));
        documents = (fun _ -> raise (Source.Unavailable name));
      };
    env.print (Printf.sprintf "source %s offline" name);
    Ok ()

let set_online env name =
  match Hashtbl.find_opt env.offline_stash name with
  | None -> Error (Printf.sprintf "source %S was not taken offline here" name)
  | Some src ->
    let reg = Med_catalog.registry (Nimble.catalog env.sys) in
    Src_registry.remove reg name;
    Src_registry.register reg src;
    Hashtbl.remove env.offline_stash name;
    env.print (Printf.sprintf "source %s online" name);
    Ok ()

let exec_line env line =
  let line =
    match String.index_opt line '#' with
    | Some 0 -> ""
    | _ -> line
  in
  match tokens line with
  | [] -> Ok ()
  | [ "demo" ] -> (
    try
      Srv_workload.install_demo env.sys;
      env.print "demo users and lenses installed";
      Ok ()
    with
    | Invalid_argument m | Fe_lens.Lens_error m | Fe_auth.Auth_error m ->
      Error m)
  | "config" :: pairs -> apply_config env pairs
  | [ "open"; user; password ] -> (
    match Srv_dispatch.open_session (server env) ~user ~password with
    | Ok ses ->
      env.print
        (Printf.sprintf "session %s open (%s)" user
           (Fe_auth.role_to_string ses.Srv_session.ses_role));
      Ok ()
    | Error m -> Error m)
  | "request" :: rest -> do_request env rest
  | [ "advance"; ms ] -> (
    match float_of_string_opt ms with
    | Some f when f >= 0.0 ->
      Obs_clock.advance f;
      Ok ()
    | _ -> Error "advance: expected a non-negative number of milliseconds")
  | [ "tick" ] ->
    Srv_dispatch.tick (server env);
    Ok ()
  | [ "drain" ] ->
    Srv_dispatch.drain (server env);
    Ok ()
  | [ "offline"; name ] -> set_offline env name
  | [ "online"; name ] -> set_online env name
  | [ "invalidate"; name ] ->
    let dropped = Nimble.invalidate_source env.sys name in
    env.print
      (Printf.sprintf "invalidated %s (dropped %d cached results)" name dropped);
    Ok ()
  | [ "report" ] ->
    print_block env (Srv_dispatch.report (server env));
    Ok ()
  | [ "queue" ] ->
    env.print (Srv_admit.stats_line (Srv_dispatch.admit (server env)));
    Ok ()
  | [ "cache" ] ->
    print_block env (Srv_plancache.report (Srv_dispatch.plan_cache (server env)));
    Ok ()
  | [ "engines" ] ->
    List.iter env.print (Srv_dispatch.engine_lines (server env));
    Ok ()
  | [ "sessions" ] ->
    let srv = server env in
    List.iter
      (fun name ->
        match Srv_dispatch.find_session srv name with
        | Some ses -> env.print (Srv_session.summary ses)
        | None -> ())
      (Srv_dispatch.session_names srv);
    Ok ()
  | cmd :: _ -> Error (Printf.sprintf "unknown directive %S" cmd)

let run env text =
  let lines = String.split_on_char '\n' text in
  let rec go n = function
    | [] -> Ok ()
    | line :: rest -> (
      match exec_line env line with
      | Ok () -> go (n + 1) rest
      | Error m -> Error (Printf.sprintf "line %d: %s" n m))
  in
  go 1 lines
