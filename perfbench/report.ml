(* The tail percentile of round times, and the info and result lines the
   benchmark prints last. *)

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value); [None] unless that percentile lies above the
   median, i.e. unless there are more than 20 samples. *)
let tail samples =
  let n = Array.length samples in
  if n <= 20 then None
  else begin
    let k = n - 10 in
    let pct = 100 * k / n in
    let a = Array.copy samples in
    Array.sort Float.compare a;
    Some (pct, a.(k - 1))
  end

let ratio num den = if den = 0.0 then 0.0 else num /. den

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_float v =
  if not (Float.is_finite v) then failwith "Report: non-finite metric value";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A JSON value for the info line. *)
type json = Num of float | Str of string | Obj of (string * json) list | Arr of json list

let rec json_to_string = function
  | Num v -> json_float v
  | Str s -> json_string s
  | Arr l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) l)
    ^ "}"

let metrics_json metrics =
  Obj
    (List.map
       (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
       metrics)

(* The final line, the only one a caller of the benchmark reads. *)
let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    attempted failed
    (json_to_string (metrics_json metrics))

let print_info fields = Printf.printf "%s\n%!" (json_to_string (Obj [ ("info", Obj fields) ]))
