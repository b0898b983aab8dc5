(** The keywheel (paper §5, Figures 4-5): per-friend shared secrets that
    evolve every dialing round for metadata forward secrecy.

    One {!t} holds all of a client's keywheel entries. A keywheel entry for
    a friend stores the shared key [K_r] at the entry's round [r]. Three
    keyed hash operations (HMAC-SHA256 with distinct labels, standing in
    for the paper's [H1]/[H2]/[H3]) derive:

    - the next round's key [K_{r+1}] ([advance]),
    - a 32-byte dial token for a given intent ([dial_token]),
    - the session key handed to the application ([session_key]).

    Entries created by the add-friend protocol may carry a round number in
    the future (Fig 5: the friend's client chose [DialingRound] ahead of the
    current round); such entries simply do not advance or produce tokens
    until the wheel catches up. Old keys are erased on advance (strings are
    immutable in OCaml, so "erasure" here means dropping the reference; a
    hardened port would zeroize). *)

type t

val create : owner:string -> t
(** [owner] is this client's own identity; it is bound into incoming-token
    derivation so that dial tokens are directional. *)

val add_friend : t -> email:string -> secret:string -> round:int -> unit
(** Install the initial shared secret agreed at [round]. Replaces any
    existing entry for [email]. *)

val remove_friend : t -> email:string -> unit
(** Drop the entry entirely (§3.2: removing a friend destroys the evidence
    of the friendship). *)

val friends : t -> string list
val friend_count : t -> int
val entry_round : t -> email:string -> int option

val current_round : t -> int
(** The wheel's own clock: the round that [dial_token] will emit tokens
    for. Starts at 0 and only moves forward via {!advance_to}; entries
    whose round is still ahead of the clock are dormant until it catches
    up (Fig 5). *)

val advance_to : t -> round:int -> unit
(** Roll every entry forward to [round], erasing intermediate keys. Entries
    whose round is already ≥ [round] are untouched (future entries, Fig 5).
    @raise Invalid_argument if [round] is behind the wheel's clock. *)

val dial_token : t -> email:string -> intent:int -> string option
(** Token this client would send to call [email] in the wheel's current
    round — [None] if the friend is unknown or the entry's round is still in
    the future. 32 bytes. Bound to the callee's identity, so the caller's
    own mailbox scan never mistakes it for an incoming call. *)

val expected_tokens : t -> max_intents:int -> (string * int * string) list
(** All (friend, intent, token) triples that could arrive in the current
    round — what the client scans a dialing mailbox for (§5: enumerate all
    friends × intents). Each friend's wheel key is prepared once
    ({!Alpenhorn_crypto.Hmac.prepare}) for all of its intents, so a friend
    costs 2 + 2·[max_intents] SHA-256 compressions rather than
    4·[max_intents]. The prepared key is erased before the next friend,
    also when a derivation raises. Tokens equal {!dial_token}'s. *)

val session_key : t -> email:string -> string option
(** Session key for a call in the current round (H3 of the wheel key);
    both sides compute the same value. *)

val catch_up : t -> through:int -> int
(** Explicit offline catch-up (§5.3): roll every wheel forward to
    [through] in one pass, erasing the missed rounds' keys, and return how
    many rounds the clock moved (0 when already caught up — unlike
    {!advance_to} this never raises on a stale [through]). A wheel that
    catches up lands on exactly the keys of a wheel that never went
    offline (chaos-suite twin check, DESIGN.md §10). *)

val copy : t -> t
(** Independent deep copy — mutating either wheel leaves the other
    untouched. Powers the chaos suite's never-offline twin. *)

val peek_token_at :
  secret:string -> from_round:int -> at_round:int -> callee:string -> intent:int -> string
(** Stateless helper: the token a wheel seeded with [secret] at
    [from_round] would emit at [at_round] ≥ [from_round] when calling
    [callee]. Used by tests and by the simulator's oracle checks. *)
