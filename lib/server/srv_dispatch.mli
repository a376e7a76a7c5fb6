(** The concurrency server: sessions, admission, the lens plan cache,
    and load-balanced dispatch over N logical engines.

    Timing is modeled entirely on the virtual clock ({!Obs_clock}), so
    every run over the same request stream is deterministic: requests
    execute run-to-completion (their simulated network time advances the
    shared clock), and each execution occupies the least-loaded idle
    engine until [start + service] where service = measured virtual time
    plus a fixed per-request overhead.  Queueing therefore develops
    exactly when requests arrive faster than engines free up, and the
    admission queue sheds deterministically.

    Requests bypass the whole-query result cache on purpose — the
    server's caching layer is the plan cache, and byte-identical output
    across interleavings is part of its contract (see the QCheck
    properties in the test suite). *)

type config = {
  engines : int;                  (** logical engines; >= 1 *)
  queue : Srv_admit.config;
  plan_cache_capacity : int;      (** 0 disables the plan cache *)
  service_overhead_ms : float;
      (** fixed virtual cost per request beyond its measured network
          time — what makes engines distinguishably busy *)
}

val default_config : config
(** 2 engines, {!Srv_admit.default_config}, plan cache 32, 1.0 ms
    overhead. *)

type t

val create : ?config:config -> Nimble.t -> t

val open_session :
  ?lenses:string list ->
  t ->
  user:string ->
  password:string ->
  (Srv_session.t, string) result
(** One live session per user name; reopening replaces the old
    session's counters. *)

val submit :
  t ->
  session:string ->
  lens:string ->
  query:string ->
  ?args:(string * string) list ->
  ?priority:Srv_request.priority ->
  ?deadline_ms:float ->
  ?mode:Srv_request.failure_mode ->
  ?exec:Alg_exec.mode ->
  unit ->
  (int, string) result
(** Enqueue an invocation and pump whatever can start at the current
    virtual time; returns the request id.  [Error] only for unknown
    sessions — authorization failures and load shedding are recorded as
    {!Srv_request.Rejected} outcomes under the returned id. *)

val tick : t -> unit
(** Start every queued request an idle engine can take at the current
    virtual time (the workload driver calls this after advancing the
    clock). *)

val drain : t -> unit
(** Advance the virtual clock to engine-free times until the queue is
    empty — finishes all admitted work. *)

val outcome : t -> int -> Srv_request.outcome option
val outcomes : t -> (int * Srv_request.outcome) list
(** All recorded outcomes, by request id. *)

val find_session : t -> string -> Srv_session.t option
val session_names : t -> string list

val plan_cache : t -> Srv_plancache.t
val admit : t -> Srv_admit.t

val set_listener : t -> (int -> Srv_request.outcome -> unit) -> unit
(** Called once per settled request (completion or rejection), in
    settlement order — the CLI's live feed. *)

val engine_lines : t -> string list
(** One deterministic line per engine:
    [engine 0: served=4 busy=12.40ms]. *)

val report : t -> string
(** Full status: config, queue, plan cache, engines, sessions, and
    every outcome in request order. *)
