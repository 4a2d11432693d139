(* Shared helpers for the test suite. *)

let rng seed = Core.Prelude.Rng.create seed

let check_float ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg a b = Alcotest.(check int) msg a b

let case name fn = Alcotest.test_case name `Quick fn

let qcheck ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

(* The bg binary for subprocess tests.  Under `dune runtest` the cwd is
   _build/default/test (the dep puts the binary one level up); under
   `dune exec` from the root it is the project root. *)
let bg_exe =
  List.find_opt Sys.file_exists
    [ "../bin/bg.exe"; "_build/default/bin/bg.exe" ]
  |> Option.value ~default:"../bin/bg.exe"

(* A small random symmetric decay space with decays in [0.5, range]. *)
let random_space ?(n = 8) ?(range = 50.) seed =
  let g = rng seed in
  Core.Decay.Decay_space.of_fn ~name:"random" n (fun i j ->
      if i < j then 0.5 +. Core.Prelude.Rng.float g (range -. 0.5)
      else 0.5 +. Core.Prelude.Rng.float g (range -. 0.5))
  |> Core.Decay.Decay_space.symmetrize

(* A small random asymmetric decay space. *)
let random_asym_space ?(n = 8) ?(range = 50.) seed =
  let g = rng seed in
  Core.Decay.Decay_space.of_fn ~name:"random-asym" n (fun _ _ ->
      0.5 +. Core.Prelude.Rng.float g (range -. 0.5))

(* Random planar GEO-SINR instance. *)
let planar_instance ?(n_links = 8) ?(alpha = 3.) ?(side = 20.) seed =
  Core.Sinr.Instance.random_planar (rng seed) ~n_links ~side ~alpha ~lmin:1.
    ~lmax:2.

let ids links = List.sort compare (List.map (fun l -> l.Core.Sinr.Link.id) links)

(* Obs counters read as deltas over [f ()], keyed by name — the registry
   is process-wide, so tests never read absolute values. *)
let counter_deltas names f =
  let module Obs = Core.Prelude.Obs in
  let read () = List.map (fun n -> Obs.counter_value (Obs.counter n)) names in
  let before = read () in
  let v = f () in
  (v, List.combine names (List.map2 ( - ) (read ()) before))

(* The kernel.* counters as deltas, keyed by the name after "kernel.". *)
let kernel_deltas f =
  let names =
    [ "sweeps"; "triples"; "plain_skips"; "cheap_skips"; "deep"; "exp_evals";
      "bisections"; "row_prunes"; "pair_prunes"; "tile_prunes";
      "minplus_rows"; "gamma_visited"; "gamma_skipped"; "gamma_exact"; "gamma_greedy";
      "gamma_budget_cutoffs"; "gamma_abandoned"; "gamma_tie_sorts" ]
  in
  let v, deltas = counter_deltas (List.map (( ^ ) "kernel.") names) f in
  (v, List.map2 (fun k (_, d) -> (k, d)) names deltas)

(* Covered triples eliminated wholesale by the row/pair/tile bounds. *)
let pruned_fraction deltas =
  let k name = List.assoc name deltas in
  if k "triples" = 0 then 0.
  else
    float_of_int (k "triples" - k "plain_skips" - k "cheap_skips" - k "deep")
    /. float_of_int (k "triples")
