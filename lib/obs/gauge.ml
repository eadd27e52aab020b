type t = { mutable value : float; mutable peak : float }

let create () = { value = 0.0; peak = 0.0 }

let set gauge value =
  gauge.value <- value;
  if value > gauge.peak then gauge.peak <- value

let add gauge delta = set gauge (gauge.value +. delta)
let decr gauge = add gauge (-1.0)
let value gauge = gauge.value
let peak gauge = gauge.peak

let reset gauge =
  gauge.value <- 0.0;
  gauge.peak <- 0.0

let pp formatter gauge =
  Format.fprintf formatter "%g (peak %g)" gauge.value gauge.peak
