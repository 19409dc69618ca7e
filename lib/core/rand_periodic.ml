module Sub = Pmp_machine.Submachine

let create ?probe ?backend m ~rng ~d =
  let choose _loads ~order =
    let slots = Sub.count_at_order m order in
    Sub.make m ~order ~index:(Pmp_prng.Splitmix64.int rng slots)
  in
  Repacking.create ?probe ?backend ~rng m
    ~name:(Printf.sprintf "rand-periodic(d=%s)" (Realloc.to_string d))
    ~d ~choose
