module Bigint = Alpenhorn_bigint.Bigint
module Sha256 = Alpenhorn_crypto.Sha256
module Tel = Alpenhorn_telemetry.Telemetry
module Events = Alpenhorn_telemetry.Events

(* Evaluate the line through [t] and [u] (tangent if equal) at the distorted
   point (xq, yq) ∈ F_p², and the vertical line at [t + u]. Returns
   (l, v, t_plus_u). Uses the fact that on y² = x³ + 1 two distinct affine
   points never share a y-coordinate (x ↦ x³ is a bijection), so line
   evaluations at distorted points are never zero. *)
let line_and_add fp t u ~xq ~yq =
  match (t, u) with
  | Curve.Inf, Curve.Inf -> (Fp2.one, Fp2.one, Curve.Inf)
  | Curve.Inf, Curve.Affine a | Curve.Affine a, Curve.Inf ->
    (* vertical line through the affine point *)
    let l = Fp2.sub fp xq (Fp2.of_fp a.x) in
    ((l, Fp2.one, Curve.add fp t u) : Fp2.el * Fp2.el * Curve.point)
  | Curve.Affine a, Curve.Affine b ->
    let tangent = Bigint.equal a.x b.x && Bigint.equal a.y b.y in
    if Bigint.equal a.x b.x && (not tangent || Field.is_zero a.y) then begin
      (* u = -t (chord is the vertical through t), or t is 2-torsion (the
         tangent at y = 0 is that same vertical); t+u = O so v ≡ 1 *)
      (Fp2.sub fp xq (Fp2.of_fp a.x), Fp2.one, Curve.Inf)
    end
    else begin
      let lambda =
        if tangent then
          Field.mul fp (Field.mul_int fp (Field.sqr fp a.x) 3) (Field.inv fp (Field.mul_int fp a.y 2))
        else Field.mul fp (Field.sub fp b.y a.y) (Field.inv fp (Field.sub fp b.x a.x))
      in
      let x3 = Field.sub fp (Field.sub fp (Field.sqr fp lambda) a.x) b.x in
      let y3 = Field.sub fp (Field.mul fp lambda (Field.sub fp a.x x3)) a.y in
      (* l(Q) = (yq - a.y) - λ(xq - a.x) *)
      let l =
        Fp2.sub fp (Fp2.sub fp yq (Fp2.of_fp a.y)) (Fp2.mul_fp fp (Fp2.sub fp xq (Fp2.of_fp a.x)) lambda)
      in
      let v = Fp2.sub fp xq (Fp2.of_fp x3) in
      (l, v, Curve.Affine { x = x3; y = y3 })
    end

let miller (params : Params.t) p ~xq ~yq =
  let fp = params.fp in
  let q = params.q in
  let num = ref Fp2.one and den = ref Fp2.one in
  let t = ref p in
  for i = Bigint.numbits q - 2 downto 0 do
    let l, v, t2 = line_and_add fp !t !t ~xq ~yq in
    num := Fp2.mul fp (Fp2.sqr fp !num) l;
    den := Fp2.mul fp (Fp2.sqr fp !den) v;
    t := t2;
    if Bigint.testbit q i then begin
      let l, v, t2 = line_and_add fp !t p ~xq ~yq in
      num := Fp2.mul fp !num l;
      den := Fp2.mul fp !den v;
      t := t2
    end
  done;
  Fp2.mul fp !num (Fp2.inv fp !den)

let pair_reference (params : Params.t) a b =
  match (a, b) with
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine _, Curve.Affine { x = bx; y = by } ->
    let fp = params.fp in
    (* distortion map: Q = (ζ·bx, by) ∈ E(F_p²) *)
    let xq = Fp2.mul_fp fp params.zeta bx in
    let yq = Fp2.of_fp by in
    let f = miller params a ~xq ~yq in
    Fp2.pow fp f params.tate_exp

(* ---- Montgomery-kernel Miller loop ----

   Same algorithm as [miller], split into a generator and an evaluator.

   The generator walks the multiples T of the first argument P in
   Jacobian coordinates over [Mont] (no field inversions) and emits, for
   each Miller step, five coefficients in F_p:

       line      l = a·y_Q + b·x_Q + c
       vertical  v = d·x_Q + e

   They depend on P only. The evaluator plugs in the distorted second
   argument Q = (ζ·s, y) and folds the step into the accumulator as
   f ← f·l·v^p. Since v^p = conj(v) = N(v)/v and N(v) ∈ F_p*, this is
   f·l/v up to a base-field factor, as is every scaling the Jacobian
   formulas introduce (powers of Z, small constants). The final exponent
   is (p² − 1)/q = (p − 1)·12l and c^(p−1) = 1 for every c ∈ F_p*, so all
   of them die there and [pair] equals [pair_reference] exactly (the
   property tests check this on random inputs).

   [pair_product] (and [pair], its one-pair case) evaluates each step's
   coefficients as they are generated; [with_prepared] stores them for a
   fixed first argument and [pair_prepared] evaluates the stored table.

   Coefficients, anchored at the affine current point (X/Z², Y/Z³) and
   cleared of denominators:

   - tangent (doubling), scaled by 2y₀Z⁶, with E = 3X², Z3 = 2YZ:
       a = Z3·Z², b = −E·Z², c = E·X − 2Y²
   - chord through T and the affine P = (px, py), scaled by 2Z³(px − x₀),
     with r = 2(S2 − Y):
       a = Z3, b = −r, c = r·px − Z3·py
   - vertical at T' = (X', Y', Z'), scaled by Z'²: d = Z'², e = −X'
   - a step that reaches O (the 2-torsion tangent, T = −P at the last
     addition) has the vertical through T as its line and v = 1:
       a = 0, b = Z², c = −X, d = 0, e = 1

   The squared Z of the current point is carried alongside (X, Y, Z) so
   each step reuses it instead of re-squaring.

   With x_Q = ζ·s for s ∈ F_p, a line is (a·y + c) + (b·s)·ζ and a
   vertical e + (d·s)·ζ, so the accumulator is kept in the basis (1, ζ)
   of F_p² (ζ² = −1 − ζ): evaluating a step's coefficients costs three
   multiplications, and the accumulator is rewritten in the basis (1, i)
   of [Fp2] once, before the final exponentiation. *)

module M = Mont

let coeffs_per_step = 5

(* c0 + c1·ζ *)
type zb = { c0 : M.el; c1 : M.el }

(* (a0 + a1ζ)(b0 + b1ζ) = (a0b0 − a1b1) + (a0b1 + a1b0 − a1b1)ζ, Karatsuba *)
let zmul ctx a b =
  let t0 = M.mul ctx a.c0 b.c0 and t1 = M.mul ctx a.c1 b.c1 in
  let t2 = M.mul ctx (M.add ctx a.c0 a.c1) (M.add ctx b.c0 b.c1) in
  { c0 = M.sub ctx t0 t1; c1 = M.sub ctx (M.sub ctx t2 t0) (M.add ctx t1 t1) }

(* (a0 + a1ζ)² = (a0 + a1)(a0 − a1) + a1(2a0 − a1)ζ *)
let zsqr ctx a =
  {
    c0 = M.mul ctx (M.add ctx a.c0 a.c1) (M.sub ctx a.c0 a.c1);
    c1 = M.mul ctx a.c1 (M.sub ctx (M.add ctx a.c0 a.c0) a.c1);
  }

(* the Miller schedule over the bits of q: [step true] doubles, [step
   false] adds P; the caller squares its accumulator before a doubling *)
let schedule (params : Params.t) step =
  let q = params.q in
  for i = Bigint.numbits q - 2 downto 0 do
    step true;
    if Bigint.testbit q i then step false
  done

(* The generator: the current multiple T of the first argument P,
   Jacobian with cached Z², infinity iff Z = 0. *)
type walk = {
  ctx : M.ctx;
  px : M.el;
  py : M.el;
  mutable tx : M.el;
  mutable ty : M.el;
  mutable tz : M.el;
  mutable tzz : M.el;
}

let walk_of ctx ~x ~y =
  let px = M.of_bigint ctx x and py = M.of_bigint ctx y in
  { ctx; px; py; tx = px; ty = py; tz = M.one ctx; tzz = M.one ctx }

let emit w buf off a b c d e =
  let n = M.limbs w.ctx in
  M.store w.ctx a buf off;
  M.store w.ctx b buf (off + n);
  M.store w.ctx c buf (off + (2 * n));
  M.store w.ctx d buf (off + (3 * n));
  M.store w.ctx e buf (off + (4 * n))

(* the vertical through T as the line, v = 1, and T + (±T) = O *)
let emit_vertical w buf off =
  let ctx = w.ctx in
  emit w buf off (M.zero ctx) w.tzz (M.neg ctx w.tx) (M.zero ctx) (M.one ctx);
  w.tz <- M.zero ctx

let dbl_step w buf off =
  let ctx = w.ctx in
  if M.is_zero w.tz then
    (* T = O: l = v = 1 *)
    emit w buf off (M.zero ctx) (M.zero ctx) (M.one ctx) (M.zero ctx) (M.one ctx)
  else if M.is_zero w.ty then (* 2-torsion: the tangent at y = 0 is vertical *)
    emit_vertical w buf off
  else begin
    let x = w.tx and y = w.ty and z = w.tz and zz = w.tzz in
    let a2 = M.sqr ctx x in
    let b = M.sqr ctx y in
    let c = M.sqr ctx b in
    let t = M.sqr ctx (M.add ctx x b) in
    let d = M.mul_small ctx (M.sub ctx (M.sub ctx t a2) c) 2 in
    let e = M.mul_small ctx a2 3 in
    let f = M.sqr ctx e in
    let x3 = M.sub ctx f (M.mul_small ctx d 2) in
    let y3 = M.sub ctx (M.mul ctx e (M.sub ctx d x3)) (M.mul_small ctx c 8) in
    let z3 = M.mul_small ctx (M.mul ctx y z) 2 in
    let zz3 = M.sqr ctx z3 in
    emit w buf off (M.mul ctx z3 zz)
      (M.neg ctx (M.mul ctx e zz))
      (M.sub ctx (M.mul ctx e x) (M.mul_small ctx b 2))
      zz3 (M.neg ctx x3);
    w.tx <- x3;
    w.ty <- y3;
    w.tz <- z3;
    w.tzz <- zz3
  end

(* add the affine P to T (madd-2007-bl) *)
let add_step w buf off =
  let ctx = w.ctx in
  if M.is_zero w.tz then begin
    (* O + P = P; the line is the vertical through P *)
    w.tx <- w.px;
    w.ty <- w.py;
    w.tz <- M.one ctx;
    w.tzz <- M.one ctx;
    emit w buf off (M.zero ctx) (M.one ctx) (M.neg ctx w.px) (M.zero ctx) (M.one ctx)
  end
  else begin
    let x = w.tx and y = w.ty and z = w.tz and zz = w.tzz in
    let u2 = M.mul ctx w.px zz in
    let s2 = M.mul ctx w.py (M.mul ctx z zz) in
    if M.equal u2 x then begin
      if M.equal s2 y then dbl_step w buf off
      else (* P = −T: the chord is the vertical through T *)
        emit_vertical w buf off
    end
    else begin
      let h = M.sub ctx u2 x in
      let hh = M.sqr ctx h in
      let i = M.mul_small ctx hh 4 in
      let j = M.mul ctx h i in
      let r = M.mul_small ctx (M.sub ctx s2 y) 2 in
      let v = M.mul ctx x i in
      let x3 = M.sub ctx (M.sub ctx (M.sqr ctx r) j) (M.mul_small ctx v 2) in
      let y3 = M.sub ctx (M.mul ctx r (M.sub ctx v x3)) (M.mul_small ctx (M.mul ctx y j) 2) in
      let z3 = M.sub ctx (M.sub ctx (M.sqr ctx (M.add ctx z h)) zz) hh in
      let zz3 = M.sqr ctx z3 in
      emit w buf off z3 (M.neg ctx r)
        (M.sub ctx (M.mul ctx r w.px) (M.mul ctx z3 w.py))
        zz3 (M.neg ctx x3);
      w.tx <- x3;
      w.ty <- y3;
      w.tz <- z3;
      w.tzz <- zz3
    end
  end

let step w dbl buf off = if dbl then dbl_step w buf off else add_step w buf off

(* The evaluator: fold the step stored at [off] into [f] at Q = (ζ·s, y):
   f·l·v^p with l = (a·y + c) + (b·s)ζ, v = e + (d·s)ζ and
   v^p = e + (d·s)ζ² = (e − d·s) − (d·s)ζ. *)
let eval_step ctx buf off ~s ~y f =
  let n = M.limbs ctx in
  let l =
    { c0 = M.add_at ctx buf (off + (2 * n)) (M.mul_at ctx buf off y); c1 = M.mul_at ctx buf (off + n) s }
  in
  let ds = M.mul_at ctx buf (off + (3 * n)) s in
  zmul ctx (zmul ctx f l) { c0 = M.sub_at ctx buf (off + (4 * n)) ds; c1 = M.neg ctx ds }

(* Final exponentiation to (p² − 1)/q = (p − 1)·12l, after rewriting f in
   the basis (1, i): first f^(p−1) = f^p/f = conj(f)²/N(f), one F_p
   inversion, then the 13-bit power to the cofactor 12l. *)
let final_exp (params : Params.t) ctx f =
  let module F2 = M.F2 in
  let zr = M.of_bigint ctx params.zeta.Fp2.re and zi = M.of_bigint ctx params.zeta.Fp2.im in
  let re = M.add ctx f.c0 (M.mul ctx f.c1 zr) and im = M.mul ctx f.c1 zi in
  let norm = M.add ctx (M.sqr ctx re) (M.sqr ctx im) in
  let unitary = F2.mul_el ctx (F2.sqr ctx { F2.re; im = M.neg ctx im }) (M.inv ctx norm) in
  let g = F2.pow ctx unitary params.cofactor in
  Fp2.make (M.to_bigint ctx g.F2.re) (M.to_bigint ctx g.F2.im)

let zone ctx = { c0 = M.one ctx; c1 = M.zero ctx }

(* ---- product of pairings ----

   Batch verification (Bls.verify_batch) needs Π e(a_i, b_i): run all the
   Miller loops in lockstep over one shared accumulator and apply the
   final exponentiation to the product once. Each loop computes
   f_i ← f_i²·l_i, so the product F = Π f_i satisfies F ← F²·Π l_i: the
   accumulator squarings are paid once per step for the whole product.
   Valid because the final powering is a homomorphism of F_p²*. *)

let pair_product (params : Params.t) pairs =
  let ctx = Field.mont_ctx params.fp in
  let terms =
    List.map
      (fun (a, b) ->
        match (a, b) with
        | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair_product: point at infinity"
        | Curve.Affine { x; y }, Curve.Affine { x = s; y = yq } ->
          (walk_of ctx ~x ~y, M.of_bigint ctx s, M.of_bigint ctx yq))
      pairs
  in
  match terms with
  | [] -> Fp2.one
  | terms ->
    let line = Array.make (coeffs_per_step * M.limbs ctx) 0 in
    let f = ref (zone ctx) in
    schedule params (fun dbl ->
        if dbl then f := zsqr ctx !f;
        List.iter
          (fun (w, s, y) ->
            step w dbl line 0;
            f := eval_step ctx line 0 ~s ~y !f)
          terms);
    final_exp params ctx !f

let pair (params : Params.t) a b =
  match (a, b) with
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine _, Curve.Affine _ -> pair_product params [ (a, b) ]

(* ---- prepared first argument ----

   The step coefficients for a fixed first argument go into one flat int
   table, [coeffs_per_step] elements of [limbs] each per Miller step. The
   table is per domain and reused by every [with_prepared] on it, so a
   client scan allocates no line storage; a nested [with_prepared] on a
   domain whose table is in use gets a fresh one. The table holds key
   material (P can be read off the first line), so it is zeroed whenever
   the scope exits, normally or by an exception. *)

type prepared = { pp_params : Params.t; table : int array; mutable live : bool }
type slot = { mutable buf : int array; mutable busy : bool }

let slot = Domain.DLS.new_key (fun () -> { buf = [||]; busy = false })

let with_prepared (params : Params.t) a f =
  match a with
  | Curve.Inf -> invalid_arg "Pairing.with_prepared: point at infinity"
  | Curve.Affine { x; y } ->
    let ctx = Field.mont_ctx params.fp in
    let stride = coeffs_per_step * M.limbs ctx in
    let steps = ref 0 in
    schedule params (fun _ -> incr steps);
    let len = !steps * stride in
    let own = Domain.DLS.get slot in
    let owned = not own.busy in
    if owned && Array.length own.buf <> len then own.buf <- Array.make len 0;
    let table = if owned then own.buf else Array.make len 0 in
    own.busy <- true;
    let prep = { pp_params = params; table; live = true } in
    Fun.protect
      ~finally:(fun () ->
        prep.live <- false;
        Array.fill table 0 len 0;
        if owned then own.busy <- false)
      (fun () ->
        let w = walk_of ctx ~x ~y and off = ref 0 in
        schedule params (fun dbl ->
            step w dbl table !off;
            off := !off + stride);
        f prep)

let pair_prepared prep b =
  if not prep.live then invalid_arg "Pairing.pair_prepared: outside with_prepared";
  match b with
  | Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine { x; y } ->
    let params = prep.pp_params in
    let ctx = Field.mont_ctx params.fp in
    let stride = coeffs_per_step * M.limbs ctx in
    let s = M.of_bigint ctx x and y = M.of_bigint ctx y in
    let f = ref (zone ctx) and off = ref 0 in
    schedule params (fun dbl ->
        if dbl then f := zsqr ctx !f;
        f := eval_step ctx prep.table !off ~s ~y !f;
        off := !off + stride);
    final_exp params ctx !f

let prepared_table_is_clear () = Array.for_all (fun limb -> limb = 0) (Domain.DLS.get slot).buf

let gt_pow (params : Params.t) (g : Fp2.el) k =
  let ctx = Field.mont_ctx params.fp in
  let r = M.F2.pow ctx { M.F2.re = M.of_bigint ctx g.Fp2.re; im = M.of_bigint ctx g.Fp2.im } k in
  Fp2.make (M.to_bigint ctx r.M.F2.re) (M.to_bigint ctx r.M.F2.im)

(* ---- fixed-argument pairing cache ----

   IBE encryption pairs every request against the same PKG master key, and
   BLS verification pairs against long-lived signer keys and the fixed
   generator, so within a round the same (a, b) pairs recur constantly.
   The memo is domain-local state inside the parameter set (params are
   process-wide singletons): each domain of the parallel pool fills its own
   cache, so lookups never contend and need no lock.  Bounded by FIFO
   eviction; correctness never depends on it, it is purely a latency
   lever. *)

let pair_cache_capacity = 512

let c_cache_hit = lazy (Tel.Counter.v Tel.default "pairing.cache_hits")
let c_cache_miss = lazy (Tel.Counter.v Tel.default "pairing.cache_misses")

let warmup (params : Params.t) =
  ignore (Lazy.force c_cache_hit);
  ignore (Lazy.force c_cache_miss);
  Params.force_tables params

let pair_cached (params : Params.t) a b =
  match (a, b) with
  | Curve.Inf, _ | _, Curve.Inf -> invalid_arg "Pairing.pair: point at infinity"
  | Curve.Affine _, Curve.Affine _ -> begin
    let fp = params.fp in
    let cache = Domain.DLS.get params.pair_cache in
    let key = Curve.to_bytes fp a ^ Curve.to_bytes fp b in
    match Hashtbl.find_opt cache.Params.pc_table key with
    | Some gt ->
      Tel.Counter.inc (Lazy.force c_cache_hit);
      gt
    | None ->
      Tel.Counter.inc (Lazy.force c_cache_miss);
      let gt = pair params a b in
      if Hashtbl.length cache.Params.pc_table >= pair_cache_capacity then begin
        match Queue.take_opt cache.Params.pc_fifo with
        | Some oldest ->
          Hashtbl.remove cache.Params.pc_table oldest;
          Events.log Events.default ~severity:Debug
            ~detail:(Printf.sprintf "capacity %d" pair_cache_capacity)
            "pairing.cache_evict"
        | None -> ()
      end;
      Hashtbl.replace cache.Params.pc_table key gt;
      Queue.push key cache.Params.pc_fifo;
      gt
  end

let gt_bytes (params : Params.t) el = Fp2.to_bytes params.fp el

let hash_to_group (params : Params.t) id =
  let fp = params.fp in
  let p = Field.modulus fp in
  let rec attempt ctr =
    if ctr > 255 then failwith "Pairing.hash_to_group: exhausted"
    else begin
      (* expand the identity to enough bytes for near-uniform y mod p *)
      let need = Field.element_bytes fp + 16 in
      let stream =
        Alpenhorn_crypto.Hmac.hkdf ~info:(Printf.sprintf "alpenhorn-h2g-%d" ctr) ~len:need id
      in
      let y = Bigint.rem (Bigint.of_bytes_be stream) p in
      let y2m1 = Field.sub fp (Field.sqr fp y) Bigint.one in
      if Field.is_zero y2m1 then attempt (ctr + 1)
      else begin
        let x = Field.cbrt fp y2m1 in
        let pt = Curve.Affine { x; y } in
        match Curve.mul fp params.cofactor pt with
        | Curve.Inf -> attempt (ctr + 1)
        | g -> g
      end
    end
  in
  attempt 0

let hash_to_scalar (params : Params.t) msg =
  let rec attempt ctr =
    if ctr > 255 then failwith "Pairing.hash_to_scalar: exhausted"
    else begin
      let need = (Bigint.numbits params.q + 7) / 8 + 16 in
      let stream =
        Alpenhorn_crypto.Hmac.hkdf ~info:(Printf.sprintf "alpenhorn-h2s-%d" ctr) ~len:need msg
      in
      let v = Bigint.rem (Bigint.of_bytes_be stream) params.q in
      if Bigint.is_zero v then attempt (ctr + 1) else v
    end
  in
  attempt 0
