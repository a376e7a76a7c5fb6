(* Machine-readable companion to the printed tables: each experiment run
   writes BENCH_<id>.json in the working directory, so scripts (and the
   acceptance harness) can track the headline numbers without scraping
   stdout.

   Experiments accumulate params/rows via [note_*] while they run; the
   harness in main.ml measures wall and virtual time around the whole
   experiment and calls [emit]. *)

let params : (string * string) list ref = ref []
let rows = ref 0

(* Virtual time an experiment accrued before it reset the clock. *)
let banked_virtual_ms = ref 0.0

let reset () =
  params := [];
  rows := 0;
  banked_virtual_ms := 0.0

let note_param key value = params := !params @ [ (key, value) ]
let note_rows n = rows := !rows + n

(* Experiments that restart the virtual clock between configurations
   call this instead of [Obs_clock.reset_virtual], so the record's
   [virtual_ms] is the sum of the intervals between resets rather than
   a delta across them. *)
let reset_virtual () =
  banked_virtual_ms := !banked_virtual_ms +. Obs_clock.virtual_ms ();
  Obs_clock.reset_virtual ()

let virtual_since v0 = !banked_virtual_ms +. Obs_clock.virtual_ms () -. v0

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Well-formedness check (the bench-smoke alias runs it on every       *)
(* record).  A tiny recursive-descent JSON reader — we avoid a JSON    *)
(* dependency for the same reason [emit] writes by hand.               *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let validate_text text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let skip_ws () =
    while (match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        loop ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    float_of_string (String.sub text start (!pos - start))
  in
  (* Returns the members (key, number if the value is one) when the
     value is an object, [] otherwise: the caller only inspects the top
     level. *)
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' ->
      ignore (parse_string ());
      []
    | Some '{' ->
      advance ();
      skip_ws ();
      let keys = ref [] in
      (match peek () with
      | Some '}' -> advance ()
      | _ ->
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          if List.mem_assoc k !keys then fail (Printf.sprintf "duplicate key %S" k);
          skip_ws ();
          expect ':';
          skip_ws ();
          let number = match peek () with Some ('-' | '0' .. '9') -> true | _ -> false in
          let v = if number then Some (parse_number ()) else (ignore (parse_value ()); None) in
          keys := (k, v) :: !keys;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ());
      List.rev !keys
    | Some '[' ->
      advance ();
      skip_ws ();
      (match peek () with
      | Some ']' -> advance ()
      | _ ->
        let rec elements () =
          ignore (parse_value ());
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ());
      []
    | Some ('t' | 'f' | 'n') ->
      let lit = if peek () = Some 't' then "true" else if peek () = Some 'f' then "false" else "null" in
      String.iter (fun c -> if peek () = Some c then advance () else fail "bad literal") lit;
      []
    | Some _ ->
      ignore (parse_number ());
      []
    | None -> fail "unexpected end of input"
  in
  try
    let keys = parse_value () in
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
    else begin
      let required = [ "name"; "params"; "virtual_ms"; "wall_ms"; "rows" ] in
      match List.filter (fun k -> not (List.mem_assoc k keys)) required with
      | _ :: _ as missing -> Error ("missing keys: " ^ String.concat ", " missing)
      | [] -> (
        (* Virtual time only moves forward. *)
        match List.assoc "virtual_ms" keys with
        | Some v when v < 0.0 -> Error (Printf.sprintf "negative virtual_ms %g" v)
        | Some _ -> Ok ()
        | None -> Error "virtual_ms is not a number")
    end
  with Bad msg -> Error msg

let validate_file file =
  match
    try
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Some text
    with Sys_error msg ->
      prerr_endline msg;
      None
  with
  | None -> Error (Printf.sprintf "cannot read %s" file)
  | Some text -> validate_text text

let emit ~name ~virtual_ms ~wall_ms =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"name\": \"%s\",\n  \"params\": {" (escape name);
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s\n    \"%s\": \"%s\"" (if i = 0 then "" else ",") (escape k) (escape v))
    !params;
  if !params <> [] then output_string oc "\n  ";
  Printf.fprintf oc "},\n  \"virtual_ms\": %.3f,\n  \"wall_ms\": %.3f,\n  \"rows\": %d\n}\n"
    virtual_ms wall_ms !rows;
  close_out oc;
  reset ()
