//! Figure 10: efficiency of sampling without model adaptation.
//!
//! Reports, per number of observations, the expected number of trajectory
//! generations needed to obtain one valid sample for the traditional rejection
//! sampler (TS1), the segment-wise sampler (TS2) and the forward-backward
//! a-posteriori sampler of the paper (FB, always exactly one). The paper shows
//! TS1 growing exponentially and TS2 roughly linearly, both far above 10⁵ even
//! for two observations, while FB needs a single attempt.

use ust_bench::sampling_efficiency::{measure_sampling_efficiency, SamplingEfficiencyConfig};
use ust_bench::{ExperimentReport, Row, RunScale, RunSettings};

fn main() {
    let settings = RunSettings::from_env(&[]);
    let cfg = match settings.scale {
        RunScale::Quick => SamplingEfficiencyConfig {
            num_states: 500,
            max_observations: 4,
            trials: 3,
            attempt_cap: 50_000,
            observation_interval: 6,
            seed: settings.seed,
        },
        RunScale::Default => SamplingEfficiencyConfig {
            num_states: 2_000,
            max_observations: 6,
            trials: 5,
            attempt_cap: 200_000,
            observation_interval: 8,
            seed: settings.seed,
        },
        RunScale::Paper => SamplingEfficiencyConfig {
            num_states: 10_000,
            max_observations: 10,
            trials: 10,
            attempt_cap: 2_000_000,
            observation_interval: 10,
            seed: settings.seed,
        },
    };
    let mut report = ExperimentReport::new(
        "figure10_sampling_efficiency",
        "Expected number of trajectory generations per valid sample vs. number of observations \
         (paper: Figure 10; TS1 = full rejection, TS2 = segment-wise rejection, FB = a-posteriori \
         sampler; ts1_capped is the fraction of TS1 runs that hit the attempt budget)",
    );
    for row in measure_sampling_efficiency(&cfg) {
        report.push(
            Row::new(format!("observations={}", row.observations))
                .with("TS1", row.ts1_attempts)
                .with("TS2", row.ts2_attempts)
                .with("FB", row.fb_attempts)
                .with("ts1_capped", row.ts1_timeouts),
        );
    }
    report.print();
    report.maybe_write_json(&settings.json_path).expect("failed to write JSON report");
}
