(* ζ/φ/γ maintenance under churn: every step recomputes on the pruned
   kernels (see incremental.mli). *)

module Obs = Bg_prelude.Obs

type gamma_info = { g_value : float }

type result = {
  zeta : Metricity.witness;
  phi : Metricity.witness;
  gamma : gamma_info option;
}

type stats = { steps : int; pairs_full : int; dirty_nodes : int }

type t = {
  ctx : Ctx.t;
  r : float option;
  mutable cur : Decay_space.t;
  mutable res : result;
  mutable s_steps : int;
  mutable s_dirty : int;
}

let c_dirty_rows = Obs.counter "incremental.dirty_rows"

let compute ctx r d =
  {
    zeta = Metricity.zeta_witness ~ctx d;
    phi = Metricity.phi_witness ~ctx d;
    gamma = Option.map (fun r -> { g_value = Fading.gamma ~ctx d ~r }) r;
  }

let create ?(ctx = Ctx.default) ?r d =
  { ctx; r; cur = d; res = compute ctx r d; s_steps = 0; s_dirty = 0 }

let space t = t.cur
let current t = t.res

let stats t =
  let n = Decay_space.n t.cur in
  {
    steps = t.s_steps;
    pairs_full = t.s_steps * n * (n - 1);
    dirty_nodes = t.s_dirty;
  }

let step t ~dirty next =
  let n = Decay_space.n t.cur in
  if Decay_space.n next <> n then
    invalid_arg
      (Printf.sprintf "Incremental.step: node count changed (%d -> %d)" n
         (Decay_space.n next));
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Incremental.step: dirty index %d out of range" i))
    dirty;
  let k = Array.length dirty in
  Obs.with_span ~attrs:[ ("n", Obs.I n); ("k", Obs.I k) ] "incremental_step"
  @@ fun () ->
  t.res <- compute t.ctx t.r next;
  t.cur <- next;
  t.s_steps <- t.s_steps + 1;
  t.s_dirty <- t.s_dirty + k;
  Obs.add c_dirty_rows k;
  t.res
