let schema_version = 4

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader (the Export writer's missing half)             *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  type cursor = { src : string; mutable pos : int }

  let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

  let advance c = c.pos <- c.pos + 1

  let rec skip_ws c =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        skip_ws c
    | _ -> ()

  let expect c ch =
    match peek c with
    | Some x when x = ch -> advance c
    | Some x -> fail "expected %C at offset %d, got %C" ch c.pos x
    | None -> fail "expected %C at offset %d, got end of input" ch c.pos

  let literal c word value =
    let n = String.length word in
    if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
      c.pos <- c.pos + n;
      value
    end
    else fail "bad literal at offset %d" c.pos

  (* UTF-8 encode one code point (surrogate pairs already combined). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  let hex4 c =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek c with
       | Some ch ->
           let d =
             match ch with
             | '0' .. '9' -> Char.code ch - Char.code '0'
             | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
             | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
             | _ -> fail "bad \\u escape at offset %d" c.pos
           in
           v := (!v * 16) + d
       | None -> fail "truncated \\u escape at offset %d" c.pos);
      advance c
    done;
    !v

  let parse_string c =
    expect c '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek c with
      | None -> fail "unterminated string at offset %d" c.pos
      | Some '"' -> advance c
      | Some '\\' -> (
          advance c;
          match peek c with
          | None -> fail "truncated escape at offset %d" c.pos
          | Some e ->
              advance c;
              (match e with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'u' ->
                   let cp = hex4 c in
                   let cp =
                     (* Combine a UTF-16 surrogate pair when present. *)
                     if cp >= 0xD800 && cp <= 0xDBFF
                        && c.pos + 1 < String.length c.src
                        && c.src.[c.pos] = '\\'
                        && c.src.[c.pos + 1] = 'u'
                     then begin
                       advance c;
                       advance c;
                       let lo = hex4 c in
                       if lo >= 0xDC00 && lo <= 0xDFFF then
                         0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                       else fail "unpaired surrogate at offset %d" c.pos
                     end
                     else cp
                   in
                   add_utf8 buf cp
               | _ -> fail "bad escape '\\%c' at offset %d" e c.pos);
              go ()
          )
      | Some ch ->
          advance c;
          Buffer.add_char buf ch;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number c =
    let start = c.pos in
    let consume_while pred =
      let rec go () =
        match peek c with
        | Some ch when pred ch ->
            advance c;
            go ()
        | _ -> ()
      in
      go ()
    in
    (match peek c with Some '-' -> advance c | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false);
    (match peek c with
     | Some '.' ->
         advance c;
         consume_while (function '0' .. '9' -> true | _ -> false)
     | _ -> ());
    (match peek c with
     | Some ('e' | 'E') ->
         advance c;
         (match peek c with Some ('+' | '-') -> advance c | _ -> ());
         consume_while (function '0' .. '9' -> true | _ -> false)
     | _ -> ());
    let text = String.sub c.src start (c.pos - start) in
    match float_of_string_opt text with
    | Some v -> v
    | None -> fail "bad number %S at offset %d" text start

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> fail "unexpected end of input at offset %d" c.pos
    | Some '{' ->
        advance c;
        skip_ws c;
        if peek c = Some '}' then begin
          advance c;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws c;
            let key = parse_string c in
            skip_ws c;
            expect c ':';
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' ->
                advance c;
                members ((key, v) :: acc)
            | Some '}' ->
                advance c;
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}' at offset %d" c.pos
          in
          Obj (members [])
        end
    | Some '[' ->
        advance c;
        skip_ws c;
        if peek c = Some ']' then begin
          advance c;
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' ->
                advance c;
                items (v :: acc)
            | Some ']' ->
                advance c;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at offset %d" c.pos
          in
          Arr (items [])
        end
    | Some '"' -> Str (parse_string c)
    | Some 't' -> literal c "true" (Bool true)
    | Some 'f' -> literal c "false" (Bool false)
    | Some 'n' -> literal c "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number c)
    | Some ch -> fail "unexpected %C at offset %d" ch c.pos

  let parse s =
    let c = { src = s; pos = 0 } in
    match parse_value c with
    | v ->
        skip_ws c;
        if c.pos <> String.length s then
          Error (c.pos, Printf.sprintf "trailing garbage at offset %d" c.pos)
        else Ok v
    (* [fail] raises at the offending position, so the cursor still
       points at (or just past) it — close enough for a client to show a
       caret into the line it sent. *)
    | exception Bad msg -> Error (c.pos, msg)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Raw-fragment writers (same conventions as the Export writer)       *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ escape s ^ "\""

let jint = string_of_int

let jfloat v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let jbool = string_of_bool

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type mutate_spec = { mut_ratio : float; mut_seed : int }

type thermal_spec = {
  th_hotspots : int;
  th_amplitude : float;
  th_decay : float;
  th_grid : int;
  th_ambient : float;
  th_seed : int;
  th_weights : float list;
}

type submit = {
  sub_job : string option;
  sub_case : string;
  sub_seed : int option;
  sub_mode : Operon_engine.Runctx.mode;
  sub_budget : float;
  sub_priority : int;
  sub_deadline : float option;
  sub_cache : bool;
  sub_mutate : mutate_spec option;
  sub_thermal : thermal_spec option;
}

type resubmit = {
  re_parent : string;
  re_job : string option;
  re_case : string option;
  re_seed : int option;
  re_mode : Operon_engine.Runctx.mode;
  re_budget : float;
  re_priority : int;
  re_deadline : float option;
  re_cache : bool;
  re_mutate : mutate_spec option;
  re_warm : bool;
}

type request =
  | Submit of submit
  | Resubmit of resubmit
  | Status of string
  | Result of string
  | Cancel of string
  | Stats

type error = {
  err_op : string option;
  err_kind : string;
  err_detail : string;
  err_offset : int option;  (* byte offset into the line, parse errors only *)
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let str_field ?default json key =
  match Json.member key json with
  | Some (Json.Str s) -> s
  | Some _ -> invalid "field %S must be a string" key
  | None -> (
      match default with
      | Some d -> d
      | None -> invalid "missing required field %S" key)

let opt_str_field json key =
  match Json.member key json with
  | Some (Json.Str s) -> Some s
  | Some Json.Null | None -> None
  | Some _ -> invalid "field %S must be a string" key

let opt_num_field json key =
  match Json.member key json with
  | Some (Json.Num v) -> Some v
  | Some Json.Null | None -> None
  | Some _ -> invalid "field %S must be a number" key

(* Integers travel as JSON numbers, i.e. doubles. A value is accepted
   only when an [int] holds it exactly, in [-2^62, 2^62): outside that
   range [int_of_float] is unspecified. [max_int] itself, 2^62 - 1, has
   no double; it reads as 2^62 and is rejected. *)
let opt_int_field json key =
  match opt_num_field json key with
  | None -> None
  | Some v ->
      if not (Float.is_integer v) then invalid "field %S must be an integer" key
      else if v < Float.of_int min_int || v >= -.Float.of_int min_int then
        invalid "field %S must be an integer in [-2^62, 2^62) (got %.17g)" key v
      else Some (int_of_float v)

let bool_field ~default json key =
  match Json.member key json with
  | Some (Json.Bool b) -> b
  | None -> default
  | Some _ -> invalid "field %S must be a boolean" key

(* The submission fields shared between [submit] and [resubmit]. *)
let parse_job_fields json =
  let job = opt_str_field json "job" in
  (match job with
   | Some "" -> invalid "field \"job\" must not be empty"
   | _ -> ());
  let seed =
    match opt_int_field json "seed" with
    | Some s when s <= 0 -> invalid "field \"seed\" must be positive (got %d)" s
    | seed -> seed
  in
  let mode =
    match String.lowercase_ascii (str_field ~default:"lr" json "mode") with
    | "lr" -> Operon_engine.Runctx.Lr
    | "ilp" -> Operon_engine.Runctx.Ilp
    | other -> invalid "unknown mode %S (expected lr or ilp)" other
  in
  let budget =
    match opt_num_field json "ilp_budget" with
    | Some v when v <= 0.0 -> invalid "field \"ilp_budget\" must be positive"
    | Some v -> v
    | None -> 60.0
  in
  let priority =
    match opt_int_field json "priority" with Some p -> p | None -> 0
  in
  let deadline =
    match opt_num_field json "deadline" with
    | Some v when v < 0.0 -> invalid "field \"deadline\" must be >= 0"
    | d -> d
  in
  let cache = bool_field ~default:true json "cache" in
  (job, seed, mode, budget, priority, deadline, cache)

let parse_mutate json =
  match Json.member "mutate" json with
  | None | Some Json.Null -> None
  | Some (Json.Obj _ as m) ->
      let mut_ratio =
        match opt_num_field m "ratio" with
        | Some r when r > 0.0 && r <= 1.0 -> r
        | Some _ -> invalid "field \"mutate.ratio\" must be in (0, 1]"
        | None -> invalid "missing required field \"mutate.ratio\""
      in
      let mut_seed =
        match opt_int_field m "seed" with
        | Some s when s <= 0 ->
            invalid "field \"mutate.seed\" must be positive (got %d)" s
        | Some s -> s
        | None -> 1
      in
      Some { mut_ratio; mut_seed }
  | Some _ -> invalid "field \"mutate\" must be an object"

(* The thermal scenario ships as generator parameters, not as the map
   itself: the server re-synthesizes the field from the design's die and
   the spec's seed, so a few scalars over the wire reproduce the exact
   map a CLI-side [operon thermal-map] run with the same knobs writes. *)
let parse_thermal json =
  match Json.member "thermal" json with
  | None | Some Json.Null -> None
  | Some (Json.Obj _ as th) ->
      let pos_int ~default key =
        match opt_int_field th key with
        | Some v when v <= 0 ->
            invalid "field \"thermal.%s\" must be positive (got %d)" key v
        | Some v -> v
        | None -> default
      in
      let at_most key cap v =
        if v > cap then invalid "field \"thermal.%s\" must be at most %d (got %d)" key cap v
        else v
      in
      let th_hotspots =
        match opt_int_field th "hotspots" with
        | Some v when v < 0 ->
            invalid "field \"thermal.hotspots\" must be >= 0 (got %d)" v
        | Some v -> at_most "hotspots" Operon_thermal.Thermal_map.max_hotspots v
        | None -> 6
      in
      let pos_float ~default key =
        match opt_num_field th key with
        | Some v when v <= 0.0 || not (Float.is_finite v) ->
            invalid "field \"thermal.%s\" must be positive and finite" key
        | Some v -> v
        | None -> default
      in
      let th_amplitude =
        let cap = Operon_thermal.Thermal_map.max_amplitude in
        match opt_num_field th "amplitude" with
        | Some v when not (v >= 0.0 && v <= cap) ->
            invalid "field \"thermal.amplitude\" must be in [0, %g] (got %g)" cap v
        | Some v -> v
        | None -> 25.0
      in
      let th_decay = pos_float ~default:0.15 "decay" in
      let th_grid =
        at_most "grid" Operon_thermal.Thermal_map.max_grid (pos_int ~default:24 "grid")
      in
      let th_ambient =
        match opt_num_field th "ambient" with
        | Some v when not (Float.is_finite v) ->
            invalid "field \"thermal.ambient\" must be finite"
        | Some v -> v
        | None -> 45.0
      in
      let th_seed = pos_int ~default:1 "map_seed" in
      let th_weights =
        match Json.member "weights" th with
        | None | Some Json.Null -> []
        | Some (Json.Arr items) ->
            if items = [] then
              invalid "field \"thermal.weights\" must not be empty"
            else
              List.map
                (function
                  | Json.Num w when Float.is_finite w && w >= 0.0 -> w
                  | Json.Num _ ->
                      invalid
                        "field \"thermal.weights\" entries must be finite and \
                         >= 0"
                  | _ -> invalid "field \"thermal.weights\" must hold numbers")
                items
        | Some _ -> invalid "field \"thermal.weights\" must be an array"
      in
      Some
        { th_hotspots; th_amplitude; th_decay; th_grid; th_ambient; th_seed;
          th_weights }
  | Some _ -> invalid "field \"thermal\" must be an object"

let parse_submit json =
  let sub_case = str_field json "case" in
  let sub_job, sub_seed, sub_mode, sub_budget, sub_priority, sub_deadline,
      sub_cache =
    parse_job_fields json
  in
  let sub_mutate = parse_mutate json in
  let sub_thermal = parse_thermal json in
  Submit
    { sub_job; sub_case; sub_seed; sub_mode; sub_budget; sub_priority;
      sub_deadline; sub_cache; sub_mutate; sub_thermal }

let parse_resubmit json =
  let re_parent =
    match str_field json "parent_job" with
    | "" -> invalid "field \"parent_job\" must not be empty"
    | p -> p
  in
  let re_job, re_seed, re_mode, re_budget, re_priority, re_deadline, re_cache =
    parse_job_fields json
  in
  let re_case = opt_str_field json "case" in
  let re_mutate = parse_mutate json in
  let re_warm = bool_field ~default:false json "warm" in
  Resubmit
    { re_parent; re_job; re_case; re_seed; re_mode; re_budget; re_priority;
      re_deadline; re_cache; re_mutate; re_warm }

let parse_request line =
  match Json.parse line with
  | Error (off, msg) ->
      Error
        { err_op = None; err_kind = "parse_error"; err_detail = msg;
          err_offset = Some off }
  | Ok json -> (
      match
        match json with
        | Json.Obj _ -> (
            let op = str_field json "op" in
            ( Some op,
              match String.lowercase_ascii op with
              | "submit" -> parse_submit json
              | "resubmit" -> parse_resubmit json
              | "status" -> Status (str_field json "job")
              | "result" -> Result (str_field json "job")
              | "cancel" -> Cancel (str_field json "job")
              | "stats" -> Stats
              | other ->
                  invalid
                    "unknown op %S (expected submit, resubmit, status, result, \
                     cancel or stats)"
                    other ))
        | _ -> invalid "request must be a JSON object"
      with
      | _, request -> Ok request
      | exception Invalid detail ->
          let err_op =
            match Json.member "op" json with Some (Json.Str s) -> Some s | _ -> None
          in
          Error { err_op; err_kind = "validation"; err_detail = detail;
                  err_offset = None })

(* ------------------------------------------------------------------ *)
(* Response envelopes                                                 *)
(* ------------------------------------------------------------------ *)

let envelope ?job ?op ~ok fields =
  jobj
    ([ ("schema_version", jint schema_version); ("ok", jbool ok) ]
    @ (match op with Some op -> [ ("op", jstr op) ] | None -> [])
    @ (match job with Some j -> [ ("job", jstr j) ] | None -> [])
    @ fields)

let ok ?job ~op fields = envelope ?job ~op ~ok:true fields

let error ?job ?op ?offset ~kind ~detail () =
  envelope ?job ?op ~ok:false
    [ ( "error",
        jobj
          ([ ("kind", jstr kind); ("detail", jstr detail) ]
          @
          match offset with
          | Some o -> [ ("offset", jint o) ]
          | None -> []) ) ]

(* ------------------------------------------------------------------ *)
(* Canonical request writers                                          *)
(* ------------------------------------------------------------------ *)

(* The shard supervisor re-renders a parsed submission before forwarding
   it: the shard must see the job id the parent assigned, and a retry
   after a shard crash must replay byte-identical submission semantics
   whatever quoting the client used. *)

let mode_name = function
  | Operon_engine.Runctx.Lr -> "lr"
  | Operon_engine.Runctx.Ilp -> "ilp"

let opt_field name render = function
  | None -> []
  | Some v -> [ (name, render v) ]

let mutate_fields m =
  opt_field "mutate"
    (fun (m : mutate_spec) ->
      jobj [ ("ratio", jfloat m.mut_ratio); ("seed", jint m.mut_seed) ])
    m

let thermal_fields th =
  opt_field "thermal"
    (fun (th : thermal_spec) ->
      jobj
        ([ ("hotspots", jint th.th_hotspots);
           ("amplitude", jfloat th.th_amplitude);
           ("decay", jfloat th.th_decay);
           ("grid", jint th.th_grid);
           ("ambient", jfloat th.th_ambient);
           ("map_seed", jint th.th_seed) ]
        @
        match th.th_weights with
        | [] -> []
        | ws -> [ ("weights", "[" ^ String.concat "," (List.map jfloat ws) ^ "]") ]))
    th

let submit_to_json ~job (s : submit) =
  jobj
    ([ ("op", jstr "submit"); ("job", jstr job); ("case", jstr s.sub_case) ]
    @ opt_field "seed" jint s.sub_seed
    @ [ ("mode", jstr (mode_name s.sub_mode));
        ("ilp_budget", jfloat s.sub_budget);
        ("priority", jint s.sub_priority) ]
    @ opt_field "deadline" jfloat s.sub_deadline
    @ [ ("cache", jbool s.sub_cache) ]
    @ mutate_fields s.sub_mutate
    @ thermal_fields s.sub_thermal)

let resubmit_to_json ~job (r : resubmit) =
  jobj
    ([ ("op", jstr "resubmit"); ("job", jstr job);
       ("parent_job", jstr r.re_parent) ]
    @ opt_field "case" jstr r.re_case
    @ opt_field "seed" jint r.re_seed
    @ [ ("mode", jstr (mode_name r.re_mode));
        ("ilp_budget", jfloat r.re_budget);
        ("priority", jint r.re_priority) ]
    @ opt_field "deadline" jfloat r.re_deadline
    @ [ ("cache", jbool r.re_cache) ]
    @ mutate_fields r.re_mutate
    @ [ ("warm", jbool r.re_warm) ])
