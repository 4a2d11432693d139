module D = Core.Decay.Decay_space
module Met = Core.Decay.Metricity
module Sp = Core.Decay.Spaces
module V = Core.Decay.Validate
module C = Core.Decay.Corrupt
module T = Core.Prelude.Table
module Rng = Core.Prelude.Rng

(* E29 — robustness under injected measurement faults: every corruption
   mode x repair policy either repairs-and-reports (and the repaired
   space analyzes to finite, non-NaN parameters) or rejects with a
   cell-addressed diagnosis.  Never a crash, never a NaN.  This is the
   end-to-end claim behind the paper's premise that *measured* (hence
   dirty) decay data can drive the model. *)

let policies m =
  [ V.Reject; V.Clamp (V.suggested_clamp m); V.Symmetrize; V.Drop_nodes ]

let finite_positive v = Float.is_finite v && v >= 1.

let e29_fault_injection () =
  let t =
    T.create ~title:"E29  robustness: corrupted measurements through the repair pipeline"
      [ "space"; "fault"; "policy"; "outcome"; "zeta"; "phi"; "ok" ]
  in
  let spaces =
    [
      ( "plane n=20",
        D.of_points ~alpha:3.
          (Sp.random_points (Rng.create 2901) ~n:20 ~side:25.) );
      ( "asym n=16",
        D.of_fn ~name:"asym" 16 (fun i j ->
            let g = Rng.create ((2902 * 16 * 16) + (i * 16) + j) in
            0.5 +. Rng.float g 49.5) );
    ]
  in
  let total = ref 0 and ok = ref 0 and nan_seen = ref false in
  List.iter
    (fun (sname, space) ->
      List.iteri
        (fun k mode ->
          let raw = C.apply ~seed:(2910 + k) mode space in
          List.iter
            (fun policy ->
              incr total;
              let row outcome zeta phi good =
                T.add_row t
                  [ T.S sname; T.S (C.label mode);
                    T.S (V.policy_to_string policy); T.S outcome;
                    T.S zeta; T.S phi; T.S (string_of_bool good) ];
                if good then incr ok
              in
              match D.of_matrix_repaired ~name:"corrupted" ~policy raw with
              | Ok (repaired, report) ->
                  let zeta = Met.zeta repaired in
                  let phi = Met.phi repaired in
                  if Float.is_nan zeta || Float.is_nan phi then
                    nan_seen := true;
                  let good = finite_positive zeta && finite_positive phi in
                  row
                    (Printf.sprintf "repaired (%s)"
                       (V.repair_to_string report))
                    (Printf.sprintf "%.3f" zeta)
                    (Printf.sprintf "%.3f" phi)
                    good
              | Error diag ->
                  (* A rejection must come with an actionable diagnosis:
                     at least one cell-addressed issue. *)
                  let good = diag.V.issues <> [] in
                  row ("rejected: " ^ V.describe diag) "-" "-" good
              | exception e ->
                  nan_seen := true;
                  row ("CRASH: " ^ Printexc.to_string e) "-" "-" false)
            (policies raw))
        C.default_suite)
    spaces;
  T.print t;
  Outcome.make
    ~measured:(float_of_int !ok)
    ~bound:(float_of_int !total)
    ~detail:
      (Printf.sprintf
         "%d/%d (space,fault,policy) scenarios repaired-or-rejected cleanly; \
          NaN outputs: %b"
         !ok !total !nan_seen)
    (!ok = !total && not !nan_seen)
