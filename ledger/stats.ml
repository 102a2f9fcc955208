(* Order statistics shared by the workloads, [summarize] and [compare]. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile of an already sorted sample ([q] in [0, 1]). *)
let percentile s q =
  let k = Array.length s in
  if k = 0 then nan else s.(min (k - 1) (int_of_float (Float.of_int (k - 1) *. q +. 0.5)))

let median a = percentile (sorted a) 0.5

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] computes
   them (the default "exclusive" method), so spreads printed here match the
   acceptance arithmetic done on the same values elsewhere.  Needs >= 2
   values; a single value is its own quartiles. *)
let quartiles a =
  let d = sorted a in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. Float.of_int (4 - delta)) +. (d.(j) *. Float.of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end
