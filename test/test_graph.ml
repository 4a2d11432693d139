open Testutil
module G = Core.Graph.Graph
module Mis = Core.Graph.Mis

let test_empty () =
  let g = G.create 4 in
  check_int "no edges" 0 (G.edge_count g);
  check_false "no adjacency" (G.has_edge g 0 1)

let test_add_remove () =
  let g = G.create 4 in
  G.add_edge g 0 1;
  check_true "added" (G.has_edge g 0 1);
  check_true "symmetric" (G.has_edge g 1 0);
  G.remove_edge g 1 0;
  check_false "removed" (G.has_edge g 0 1)

let test_self_loop_rejected () =
  let g = G.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> G.add_edge g 1 1)

let test_out_of_range () =
  let g = G.create 3 in
  Alcotest.check_raises "range" (Invalid_argument "Graph: vertex out of range")
    (fun () -> G.add_edge g 0 5)

let test_degree_neighbours () =
  let g = G.star 5 in
  check_int "centre degree" 4 (G.degree g 0);
  check_int "leaf degree" 1 (G.degree g 3);
  Alcotest.(check (list int)) "neighbours sorted" [ 1; 2; 3; 4 ] (G.neighbours g 0)

let test_edges_listing () =
  let g = G.cycle 4 in
  check_int "C4 edges" 4 (G.edge_count g);
  check_true "edges normalized"
    (List.for_all (fun (u, v) -> u < v) (G.edges g))

let test_complement () =
  let g = G.complete 4 in
  check_int "complement of K4 empty" 0 (G.edge_count (G.complement g));
  let e = G.create 3 in
  check_int "complement of empty is complete" 3 (G.edge_count (G.complement e))

let test_independent_clique () =
  let g = G.cycle 5 in
  check_true "alternating set independent" (G.is_independent g [ 0; 2 ]);
  check_false "adjacent not independent" (G.is_independent g [ 0; 1 ]);
  check_true "edge is clique" (G.is_clique g [ 0; 1 ]);
  check_false "non-edge not clique" (G.is_clique g [ 0; 2 ])

let test_generators () =
  check_int "path edges" 4 (G.edge_count (G.path 5));
  check_int "complete edges" 10 (G.edge_count (G.complete 5));
  check_int "bipartite edges" 6 (G.edge_count (G.complete_bipartite 2 3));
  let du = G.disjoint_union (G.complete 3) (G.cycle 3) in
  check_int "union vertices" 6 (G.n du);
  check_int "union edges" 6 (G.edge_count du);
  check_false "no cross edges" (G.has_edge du 0 3)

let test_random_graph_density () =
  let g = G.random (rng 5) 30 0.5 in
  let e = float_of_int (G.edge_count g) in
  let max_e = 30. *. 29. /. 2. in
  check_true "roughly half the edges" (e /. max_e > 0.35 && e /. max_e < 0.65)

(* ------------------------------------------------------------------ MIS *)

let test_mis_cycle_even () =
  check_int "alpha(C6) = 3" 3 (Mis.independence_number (G.cycle 6))

let test_mis_cycle_odd () =
  check_int "alpha(C7) = 3" 3 (Mis.independence_number (G.cycle 7))

let test_mis_complete () =
  check_int "alpha(K5) = 1" 1 (Mis.independence_number (G.complete 5))

let test_mis_empty_graph () =
  check_int "alpha(empty on 6) = 6" 6 (Mis.independence_number (G.create 6))

let test_mis_star () =
  check_int "alpha(star 8) = 7" 7 (Mis.independence_number (G.star 8))

let test_mis_bipartite () =
  check_int "alpha(K_{3,4}) = 4" 4 (Mis.independence_number (G.complete_bipartite 3 4))

let test_mis_is_independent () =
  let g = G.random (rng 7) 15 0.3 in
  check_true "exact result independent" (G.is_independent g (Mis.exact g));
  check_true "greedy result independent" (G.is_independent g (Mis.greedy g))

let test_mis_limit () =
  Alcotest.check_raises "limit" (Invalid_argument "Mis.exact: graph exceeds size limit")
    (fun () -> ignore (Mis.exact ~limit:3 (G.create 5)))

(* Brute-force MIS for cross-validation. *)
let brute_force_mis g =
  let n = G.n g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
    if G.is_independent g vs && List.length vs > !best then
      best := List.length vs
  done;
  !best

let prop_mis_matches_brute_force =
  qcheck ~count:40 "exact MIS = brute force (n<=10)"
    QCheck.(pair small_int (float_bound_exclusive 1.))
    (fun (seed, p) ->
      let g = G.random (rng seed) 10 p in
      Mis.independence_number g = brute_force_mis g)

let prop_greedy_bounded_by_exact =
  qcheck ~count:40 "greedy <= exact" QCheck.small_int (fun seed ->
      let g = G.random (rng seed) 14 0.3 in
      List.length (Mis.greedy g) <= List.length (Mis.exact g))

(* The bitset solvers replay the reference search: the same greedy
   incumbent, branching vertex and pruning, so the same vertex lists, on
   one and two words per row and at every edge density. *)
let prop_mis_matches_reference =
  qcheck ~count:300 "exact and greedy MIS = reference lists (k<=64)"
    QCheck.(triple small_int (int_range 0 64) (float_bound_inclusive 1.))
    (fun (seed, k, p) ->
      let g = G.random (rng seed) k p in
      Mis.exact g = Naive_ref.mis_exact g && Mis.greedy g = Naive_ref.mis_greedy g)

let prop_mis_size_from_incumbent =
  qcheck ~count:200 "exact_size ~at_least = max at_least alpha"
    QCheck.(triple small_int (int_range 0 30) (int_range 0 32))
    (fun (seed, k, at_least) ->
      let g = G.random (rng seed) k 0.3 in
      let b = Mis.of_graph g in
      let alpha = List.length (Naive_ref.mis_exact g) in
      Mis.exact_size ~at_least b = max at_least alpha
      && Mis.exact_size b = alpha
      && Mis.greedy_size b = List.length (Naive_ref.mis_greedy g))

let prop_complement_involution =
  qcheck ~count:40 "complement twice is identity" QCheck.small_int (fun seed ->
      let g = G.random (rng seed) 10 0.4 in
      let cc = G.complement (G.complement g) in
      G.edges g = G.edges cc)

let suite =
  [
    ( "graph.basic",
      [
        case "empty" test_empty;
        case "add/remove" test_add_remove;
        case "self loop" test_self_loop_rejected;
        case "out of range" test_out_of_range;
        case "degree/neighbours" test_degree_neighbours;
        case "edges listing" test_edges_listing;
        case "complement" test_complement;
        case "independent/clique" test_independent_clique;
        case "generators" test_generators;
        case "random density" test_random_graph_density;
        prop_complement_involution;
      ] );
    ( "graph.mis",
      [
        case "C6" test_mis_cycle_even;
        case "C7" test_mis_cycle_odd;
        case "K5" test_mis_complete;
        case "empty graph" test_mis_empty_graph;
        case "star" test_mis_star;
        case "bipartite" test_mis_bipartite;
        case "results independent" test_mis_is_independent;
        case "size limit" test_mis_limit;
        prop_mis_matches_brute_force;
        prop_greedy_bounded_by_exact;
        prop_mis_matches_reference;
        prop_mis_size_from_incumbent;
      ] );
  ]
