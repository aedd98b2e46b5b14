module Ewma = struct
  type t = { tau : float; mutable rate : float; mutable last : float }

  let create ~tau = { tau; rate = 0.; last = 0. }

  let observe t ~now ~bytes =
    let dt = now -. t.last in
    if dt <= 0. then
      (* Same-instant arrivals fold straight into the estimate, amortized
         over the time constant. *)
      t.rate <- t.rate +. (float_of_int bytes /. t.tau)
    else begin
      let w = exp (-.dt /. t.tau) in
      (* The burst contributes bytes/dt over the gap, blended by w. *)
      t.rate <- ((1. -. w) *. (float_of_int bytes /. dt)) +. (w *. t.rate);
      t.last <- now
    end

  let rate t ~now =
    let dt = now -. t.last in
    if dt <= 0. then t.rate else t.rate *. exp (-.dt /. t.tau)
end
