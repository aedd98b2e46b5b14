type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let min t = t.mn
let max t = t.mx
let sum t = t.mean *. float_of_int t.n

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2 +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    { n; mean; m2; mn = Float.min a.mn b.mn; mx = Float.max a.mx b.mx }
  end
