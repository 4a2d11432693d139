type outcome = Outcome.t = {
  pass : bool;
  measured : float option;
  bound : float option;
  detail : string;
}

type entry = { id : string; claim : string; run : unit -> outcome }

let all =
  [
    { id = "E1"; claim = "Prop. 1: theory transfer via induced quasi-metrics";
      run = Exp_model.e1_theory_transfer };
    { id = "E2"; claim = "Thm 2: fading parameter bound on doubling spaces";
      run = Exp_model.e2_fading_bound };
    { id = "E3"; claim = "Sec. 3.4: star space beyond fading spaces";
      run = Exp_model.e3_star_example };
    { id = "E4"; claim = "Thm 3: 2^zeta-hardness construction (capacity = MIS)";
      run = Exp_capacity.e4_thm3_hardness };
    { id = "E5"; claim = "Lemmas B.1/B.3/4.1: sparsification partitions";
      run = Exp_capacity.e5_sparsification };
    { id = "E6"; claim = "Thm 4: amicability polynomial in zeta";
      run = Exp_capacity.e6_amicability };
    { id = "E7"; claim = "Thm 5: Alg. 1 capacity approximation, alpha sweep";
      run = Exp_capacity.e7_capacity_approximation };
    { id = "E8"; claim = "Thm 6: 2^phi-hardness in bounded-growth spaces";
      run = Exp_capacity.e8_thm6_hardness };
    { id = "E9"; claim = "Sec. 4.2: zeta vs phi relationships";
      run = Exp_model.e9_zeta_vs_phi };
    { id = "E10"; claim = "Welzl construction: doubling 1, independence n+1";
      run = Exp_model.e10_welzl };
    { id = "E11"; claim = "Sec. 4.1: guards and kissing numbers on the plane";
      run = Exp_model.e11_guards };
    { id = "E12"; claim = "Sec. 3.3: distributed algorithms vs gamma";
      run = Exp_system.e12_distributed };
    { id = "E13"; claim = "Sec. 2.1: SINR thresholding of packet reception";
      run = Exp_system.e13_thresholding };
    { id = "E14"; claim = "Sec. 1: decay uncorrelated with distance, yet measurable";
      run = Exp_system.e14_measurability };
    { id = "E15"; claim = "extension: power-control regimes [58,27]";
      run = Exp_extensions.e15_power_regimes };
    { id = "E16"; claim = "extension: dynamic packet scheduling [2,3,44]";
      run = Exp_extensions.e16_dynamic_stability };
    { id = "E17"; claim = "extension: Rayleigh-fading reduction [10]";
      run = Exp_extensions.e17_rayleigh };
    { id = "E18"; claim = "extension: spectrum auctions [38,37]";
      run = Exp_applications.e18_spectrum_auction };
    { id = "E19"; claim = "extension: conflict-graph utility [61,60]";
      run = Exp_applications.e19_conflict_graphs };
    { id = "E20"; claim = "extension: broadcast/coloring/dominating-set + sampling";
      run = Exp_applications.e20_protocol_suite };
    { id = "E21"; claim = "extension: online capacity maximization [15]";
      run = Exp_online.e21_online_capacity };
    { id = "E22"; claim = "extension: distributed contention resolution [45]";
      run = Exp_online.e22_contention_resolution };
    { id = "E23"; claim = "extension: flexible data rates [43] + cognitive radio [33]";
      run = Exp_rates.e23_rates_and_cognitive };
    { id = "E24"; claim = "engineering: metricity estimators at scale";
      run = Exp_scaling.e24_metricity_scaling };
    { id = "E25"; claim = "extension: flow-based throughput [8,62]";
      run = Exp_flow.e25_flow_throughput };
    { id = "E26"; claim = "negative control: SINR diagrams [4] do not transfer";
      run = Exp_flow.e26_sinr_diagram_negative };
    { id = "E27"; claim = "extension: dimension parameters off the plane (R^3)";
      run = Exp_dimension3.e27_ambient_dimension };
    { id = "E28"; claim = "ablation: Algorithm 1's design choices";
      run = Exp_ablation.e28_alg1_ablation };
    { id = "E29"; claim = "robustness: corrupted measurements repair-or-reject, never crash";
      run = Exp_robustness.e29_fault_injection };
    { id = "E30"; claim = "resilience: chaos-injected serving answers exactly once, recovers the journal";
      run = Exp_serving.e30_resilient_serving };
    { id = "E31"; claim = "churn: zeta/phi/gamma tracked under mobility; schedules outlive drift";
      run = Exp_churn.e31_churn_scheduling };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) all
