(** Line-oriented server scripts — the driver behind [nimble_cli serve]
    and the repl's [\serve].

    Directives (blank lines and [#] comments are skipped):
    {v
      demo                          install demo users + lenses
      config KEY=VAL ...            engines=N queue=N inflight=N
                                    cache=N overhead=MS (before first use)
      open USER PASSWORD            open a session
      request SESSION LENS QUERY [k=v ...] [!prio=P] [!deadline=MS]
                                   [!mode=partial] [!exec=MODE]
      advance MS                    advance the virtual clock
      tick                          start whatever idle engines can take
      drain                         run everything admitted to completion
      offline SOURCE                force a registered source offline
      online SOURCE                 restore it
      invalidate NAME               fire a catalog invalidation
      report | queue | cache | engines | sessions
    v}

    Each settled request prints its {!Srv_request.outcome_line}
    immediately, so scripts read as deterministic transcripts. *)

type env

val create :
  ?config:Srv_dispatch.config -> print:(string -> unit) -> Nimble.t -> env
(** [print] receives complete lines (no trailing newline).  [config]
    seeds the server configuration; a [config] directive can still
    adjust it before the first session opens. *)

val config_knobs : Srv_dispatch.config ref Nimble.knob list
(** The keys of a [config] line — [engines], [queue], [inflight],
    [cache] and [overhead] — each with its validation and error text. *)

val server : env -> Srv_dispatch.t
(** The underlying server (created on first use). *)

val exec_line : env -> string -> (unit, string) result

val run : env -> string -> (unit, string) result
(** Execute a whole script; stops at the first failing directive with
    ["line N: ..."]. *)
