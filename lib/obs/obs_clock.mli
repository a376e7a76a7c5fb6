(** The two clocks of the observability subsystem.

    Wall time is real elapsed time, used for operator and fragment
    timings.  Virtual time is the deterministic simulated-network clock
    that {!Net_sim} charges (latency + per-tuple transfer); components
    advance it explicitly, so traces can report both "how long did this
    take here" and "how much simulated network time did it cost". *)

val wall_ms : unit -> float
(** Current wall-clock time in milliseconds (monotonic enough for
    span durations). *)

val advance : float -> unit
(** Advance the process-wide virtual clock by [ms] (negative or zero
    amounts are ignored). *)

val virtual_ms : unit -> float
(** Accumulated virtual milliseconds since start (or the last reset).
    Inside an open round this includes the in-progress lane, so virtual
    deltas measured within one fetch stay meaningful. *)

val reset_virtual : unit -> unit

(** {1 Overlapped rounds}

    Scatter-gather accounting: a round models K fetches issued
    concurrently on the virtual clock.  While a round is open,
    {!advance} accumulates into the current {e lane} (one lane per
    fetch, started with {!begin_lane}); {!end_round} advances the clock
    by the {e maximum} lane total — concurrent fetches cost the slowest
    one, not the sum.  Per-source accounting ({!Net_sim.stats}) is
    unaffected: it still records every call's full cost.

    Rounds nest defensively: only the outermost round keeps lanes, and
    a nested round's contributions merge serially into the enclosing
    lane (conservative, deterministic). *)

val begin_round : unit -> unit

val begin_lane : unit -> unit
(** Seal the current lane and start a new one.  No-op outside the
    outermost round. *)

val end_round : unit -> float
(** Close the round; when the outermost round closes, advance the clock
    by the maximum lane total and return it (0 for nested rounds). *)
