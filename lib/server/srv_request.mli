(** Requests of the concurrency server: one lens invocation with
    parameters, a priority class, source-failure semantics, an optional
    queue-wait deadline, and an optional execution-engine override.

    A request either completes with a {!report} (what ran where, how
    long it queued, whether the plan cache hit) or is rejected with a
    typed {!reject} — the deterministic load-shedding surface of
    {!Srv_admit}. *)

type priority =
  | High
  | Normal
  | Low

val priority_rank : priority -> int
(** 0 for [High] — lower ranks dequeue first. *)

val priority_to_string : priority -> string
val priority_of_string : string -> priority option

(** Strict aborts on any unavailable source; partial skips them and
    reports their names (section 3.4). *)
type failure_mode =
  | Strict
  | Partial

type t = {
  req_id : int;              (** server-assigned, in submission order *)
  req_session : string;
  req_lens : string;
  req_query : string;        (** query name within the lens *)
  req_args : (string * string) list;
  req_priority : priority;
  req_deadline_ms : float option;
      (** maximum virtual queue wait; [None] waits forever *)
  req_mode : failure_mode;
  req_exec : Alg_exec.mode option;
      (** per-request engine override; [None] uses the catalog's *)
}

type reject =
  | Overloaded            (** admission queue full *)
  | Session_saturated     (** the session hit its in-flight cap *)
  | Deadline_expired      (** queued past its deadline *)
  | Denied of string      (** unknown session/lens, or role too low *)
  | Failed of string      (** admitted, but execution raised *)

val reject_to_string : reject -> string

type report = {
  rep_request : t;
  rep_engine : int;          (** logical engine that ran it *)
  rep_submit_ms : float;     (** virtual clock at submission *)
  rep_start_ms : float;      (** virtual clock when an engine took it *)
  rep_service_ms : float;    (** virtual service time (network + overhead) *)
  rep_plan_hit : bool;       (** its parse came from the plan cache *)
  rep_rows : int;            (** result trees produced *)
  rep_skipped : string list; (** partial mode: unavailable sources *)
  rep_output : string;       (** device-formatted result *)
}

type outcome =
  | Completed of report
  | Rejected of reject

val queue_wait_ms : report -> float

val outcome_line : outcome -> string
(** One deterministic summary line (virtual times only):
    [req 3 alice sales.by_region ok engine=0 wait=0.00 plan=hit …]. *)
