module Hmac = Alpenhorn_crypto.Hmac
module Util = Alpenhorn_crypto.Util

type entry = { mutable key : string; mutable round : int }

type t = { owner : string; table : (string, entry) Hashtbl.t; mutable clock : int }

let create ~owner = { owner; table = Hashtbl.create 64; clock = 0 }

let add_friend t ~email ~secret ~round =
  if String.length secret <> 32 then invalid_arg "Keywheel.add_friend: secret must be 32 bytes";
  if round < 0 then invalid_arg "Keywheel.add_friend: negative round";
  Hashtbl.replace t.table email { key = secret; round }

let remove_friend t ~email = Hashtbl.remove t.table email

let friends t = Hashtbl.fold (fun email _ acc -> email :: acc) t.table [] |> List.sort compare
let friend_count t = Hashtbl.length t.table
let entry_round t ~email = Option.map (fun e -> e.round) (Hashtbl.find_opt t.table email)
let current_round t = t.clock

(* H1: evolve the wheel key; H2: dial token for an intent, bound to the
   callee so tokens are directional (a caller never mistakes their own
   outgoing token for an incoming call); H3: session key (shared, so no
   direction binding) *)
let next_key key = Hmac.hmac_sha256 ~key "keywheel-h1"

let h2_input ~callee intent = "keywheel-h2" ^ Util.be32 intent ^ callee
let token_of key ~callee intent = Hmac.hmac_sha256 ~key (h2_input ~callee intent)

let session_of key = Hmac.hmac_sha256 ~key "keywheel-h3"

let advance_entry e ~round =
  while e.round < round do
    e.key <- next_key e.key;
    e.round <- e.round + 1
  done

let advance_to t ~round =
  if round < t.clock then invalid_arg "Keywheel.advance_to: cannot rewind";
  t.clock <- round;
  Hashtbl.iter (fun _ e -> advance_entry e ~round) t.table

let dial_token t ~email ~intent =
  match Hashtbl.find_opt t.table email with
  | None -> None
  | Some e -> if e.round > t.clock then None else Some (token_of e.key ~callee:email intent)

(* One prepared wheel key per friend serves all of its intents: 2 + 2·intents
   SHA-256 compressions instead of 4·intents. The prepared key is as secret
   as the wheel key, so it is zeroed before the entry is left, also when a
   derivation raises. *)
let expected_tokens t ~max_intents =
  Hashtbl.fold
    (fun email e acc ->
      if e.round > t.clock then acc
      else begin
        let k = Hmac.prepare e.key in
        Fun.protect
          ~finally:(fun () -> Hmac.erase k)
          (fun () ->
            let rec go intent acc =
              if intent < 0 then acc
              else
                let token = Hmac.mac k (h2_input ~callee:t.owner intent) in
                go (intent - 1) ((email, intent, token) :: acc)
            in
            go (max_intents - 1) acc)
      end)
    t.table []

let session_key t ~email =
  match Hashtbl.find_opt t.table email with
  | None -> None
  | Some e -> if e.round > t.clock then None else Some (session_of e.key)

(* §5.3 offline catch-up: a client that missed rounds rolls every wheel
   forward in one pass. Same per-entry evolution as [advance_to] — the two
   paths land on identical keys (verified against a never-offline twin in
   the chaos suite). Returns how many rounds the clock moved. *)
let catch_up t ~through =
  if through <= t.clock then 0
  else begin
    let missed = through - t.clock in
    advance_to t ~round:through;
    missed
  end

let copy t =
  let table = Hashtbl.create (Hashtbl.length t.table) in
  Hashtbl.iter (fun email e -> Hashtbl.add table email { key = e.key; round = e.round }) t.table;
  { owner = t.owner; table; clock = t.clock }

let peek_token_at ~secret ~from_round ~at_round ~callee ~intent =
  if at_round < from_round then invalid_arg "Keywheel.peek_token_at";
  let key = ref secret in
  for _ = from_round + 1 to at_round do
    key := next_key !key
  done;
  token_of !key ~callee intent
