let wall_ms () = Unix.gettimeofday () *. 1000.0

let virtual_clock = ref 0.0

(* Overlapped fetch rounds (scatter-gather): while a round is open,
   advances land in the current lane instead of moving the clock, and
   closing the round moves the clock by the maximum lane total — K
   concurrent fetches cost the slowest one, not the sum.  Only the
   outermost round does lane accounting; nested rounds (a view fetched
   inside a round compiles and gathers its own plan) merge their
   contributions serially into the enclosing lane, which is
   conservative but deterministic. *)
let round_depth = ref 0
let lane_cur = ref 0.0
let lane_max = ref 0.0

let advance ms =
  if ms > 0.0 then
    if !round_depth > 0 then lane_cur := !lane_cur +. ms
    else virtual_clock := !virtual_clock +. ms

let begin_round () =
  incr round_depth;
  if !round_depth = 1 then begin
    lane_cur := 0.0;
    lane_max := 0.0
  end

let begin_lane () =
  if !round_depth = 1 then begin
    lane_max := Float.max !lane_max !lane_cur;
    lane_cur := 0.0
  end

let end_round () =
  if !round_depth > 0 then decr round_depth;
  if !round_depth = 0 then begin
    let cost = Float.max !lane_max !lane_cur in
    lane_cur := 0.0;
    lane_max := 0.0;
    virtual_clock := !virtual_clock +. cost;
    cost
  end
  else 0.0

(* Including the in-progress lane keeps virtual deltas measured inside
   a lane (per-access spans, TTL checks) meaningful mid-round. *)
let virtual_ms () = !virtual_clock +. (if !round_depth > 0 then !lane_cur else 0.0)

let reset_virtual () =
  virtual_clock := 0.0;
  round_depth := 0;
  lane_cur := 0.0;
  lane_max := 0.0
