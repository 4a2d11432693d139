include Bg_prelude.Jsonl (* perfbench/ still refers to Obs_tools.Jsonl *)
