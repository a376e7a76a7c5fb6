(* Requests and outcomes of the concurrency server. *)

type priority =
  | High
  | Normal
  | Low

let priority_rank = function High -> 0 | Normal -> 1 | Low -> 2
let priority_to_string = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

type failure_mode =
  | Strict
  | Partial

type t = {
  req_id : int;
  req_session : string;
  req_lens : string;
  req_query : string;
  req_args : (string * string) list;
  req_priority : priority;
  req_deadline_ms : float option;
  req_mode : failure_mode;
  req_exec : Alg_exec.mode option;
}

type reject =
  | Overloaded
  | Session_saturated
  | Deadline_expired
  | Denied of string
  | Failed of string

let reject_to_string = function
  | Overloaded -> "overloaded: admission queue full"
  | Session_saturated -> "saturated: session in-flight cap reached"
  | Deadline_expired -> "expired: queued past deadline"
  | Denied m -> "denied: " ^ m
  | Failed m -> "failed: " ^ m

type report = {
  rep_request : t;
  rep_engine : int;
  rep_submit_ms : float;
  rep_start_ms : float;
  rep_service_ms : float;
  rep_plan_hit : bool;
  rep_rows : int;
  rep_skipped : string list;
  rep_output : string;
}

type outcome =
  | Completed of report
  | Rejected of reject

let queue_wait_ms r = r.rep_start_ms -. r.rep_submit_ms

let outcome_line = function
  | Completed r ->
    let q = r.rep_request in
    let cells =
      Obs_report.serve_cells ~engine:r.rep_engine
        ~queue_wait_ms:(queue_wait_ms r) ~plan_hit:r.rep_plan_hit
      @ [
          Obs_report.ms_cell "service" r.rep_service_ms;
          Obs_report.int_cell "rows" r.rep_rows;
        ]
    in
    Printf.sprintf "req %d %s %s.%s ok %s%s" q.req_id q.req_session q.req_lens
      q.req_query
      (Obs_report.cells cells)
      (match r.rep_skipped with
      | [] -> ""
      | xs -> " skipped=" ^ String.concat "," xs)
  | Rejected rej -> "rejected: " ^ reject_to_string rej
