module D = Bg_decay

type report = {
  name : string;
  n : int;
  symmetric : bool;
  zeta : float;
  zeta_witness : D.Metricity.witness;
  phi : float;
  phi_log : float;
  assouad : float;
  quasi_doubling : float;
  independence : int;
  max_guards : int;
  is_fading_space : bool;
  gamma : (float * float) list;
}

type config = { ctx : D.Ctx.t; gamma_at : float list }

let default = { ctx = D.Ctx.default; gamma_at = [] }

let run ?(config = default) space =
  let module Obs = Bg_prelude.Obs in
  let { ctx; gamma_at } = config in
  let exact_limit = ctx.D.Ctx.exact_limit in
  Obs.with_span
    ~attrs:
      [
        ("space", Obs.S (D.Decay_space.name space));
        ("n", Obs.I (D.Decay_space.n space));
      ]
    "analyze"
  @@ fun () ->
  let zeta_witness = D.Metricity.zeta_witness ~ctx space in
  let zeta = zeta_witness.D.Metricity.value in
  let phi = D.Metricity.phi ~ctx space in
  let assouad = D.Dimension.assouad ?exact_limit space in
  {
    name = D.Decay_space.name space;
    n = D.Decay_space.n space;
    symmetric = D.Decay_space.is_symmetric space;
    zeta;
    zeta_witness;
    phi;
    phi_log = Bg_prelude.Numerics.log2 phi;
    assouad;
    quasi_doubling = D.Dimension.quasi_doubling ~zeta space;
    independence = D.Dimension.independence_dimension ?exact_limit space;
    max_guards = D.Dimension.max_guard_count space;
    is_fading_space = assouad < 1.;
    gamma = List.map (fun r -> (r, D.Fading.gamma ~ctx space ~r)) gamma_at;
  }

let to_table r =
  let open Bg_prelude.Table in
  let t = create ~title:("decay space analysis: " ^ r.name) [ "parameter"; "value" ] in
  add_row t [ S "nodes"; I r.n ];
  add_row t [ S "symmetric"; S (string_of_bool r.symmetric) ];
  add_row t [ S "metricity zeta"; F4 r.zeta ];
  add_row t [ S "phi"; F4 r.phi ];
  add_row t [ S "phi_log = lg phi"; F4 r.phi_log ];
  add_row t [ S "assouad dimension (decay)"; F4 r.assouad ];
  add_row t [ S "quasi-metric doubling A'"; F4 r.quasi_doubling ];
  add_row t [ S "independence dimension"; I r.independence ];
  add_row t [ S "max guard-set size"; I r.max_guards ];
  add_row t [ S "fading space (A < 1)"; S (string_of_bool r.is_fading_space) ];
  List.iter
    (fun (sep, g) ->
      add_row t [ S (Printf.sprintf "gamma(r = %g)" sep); F4 g ])
    r.gamma;
  t

let pp fmt r = Format.pp_print_string fmt (Bg_prelude.Table.render (to_table r))
