type mode = Gate_off | Gate_explain | Gate_enforce

let modes = [ ("off", Gate_off); ("explain", Gate_explain); ("enforce", Gate_enforce) ]

type 'e t = { mode : mode; evidence : 'e }

let arm mode evidence =
  match mode with
  | Gate_off -> None
  | Gate_explain | Gate_enforce -> Some { mode; evidence = evidence () }

let active = function Some { mode = Gate_off; _ } | None -> None | g -> g
let enforcing g = g.mode = Gate_enforce

type counter = { mutable checks : int; mutable rejections : int }

let counter () = { checks = 0; rejections = 0 }
let checks c = c.checks
let rejections c = c.rejections

let decide c g ~impossible =
  match g.mode with
  | Gate_off -> false
  | Gate_explain | Gate_enforce ->
      c.checks <- c.checks + 1;
      if impossible then c.rejections <- c.rejections + 1;
      impossible && g.mode = Gate_enforce
