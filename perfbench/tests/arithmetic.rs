//! The benchmark's percentile, quartile, spread and goodput arithmetic.

use gllm_perfbench::record::{
    goodput_tokens, settle, BlockSummary, LatencySummary, Outcome, RequestRecord, Slo,
};
use gllm_perfbench::stats::{mean, median, percentile, quartile_spread, quartiles, Moments};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn percentile_interpolates_linearly_and_clamps() {
    let xs = [4.0, 1.0, 3.0, 2.0];
    assert!(close(percentile(&xs, 0.0), 1.0));
    assert!(close(percentile(&xs, 50.0), 2.5));
    assert!(close(percentile(&xs, 90.0), 3.7));
    assert!(close(percentile(&xs, 100.0), 4.0));
    assert!(close(percentile(&xs, 250.0), 4.0));
    assert!(close(percentile(&xs, -1.0), 1.0));
    assert!(close(percentile(&[7.0], 90.0), 7.0));
    assert_eq!(percentile(&[], 50.0), 0.0);
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(mean(&[1.0, 2.0, 6.0]), 3.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python 3: statistics.quantiles(xs, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[1.0]), None);
    let seven = [0.9, 1.0, 1.1, 1.2, 1.05, 0.95, 1.02];
    let [q1, q2, q3] = quartiles(&seven).unwrap();
    assert!(close(q1, 0.95) && close(q2, 1.02) && close(q3, 1.1));
    // The spread the bounds are stated in: (q3 - q1) / median.
    assert!(close(quartile_spread(&seven).unwrap(), 0.15 / 1.02));
    assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn moments_give_mean_and_coefficient_of_variation() {
    let mut m = Moments::default();
    assert_eq!(m.cv(), 0.0);
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
        m.push(x);
    }
    assert_eq!(m.count(), 8);
    assert!(close(m.mean(), 5.0));
    assert!(close(m.cv(), 0.4));
}

fn rec(ttft: f64, tpot: f64, tokens: usize, outcome: Outcome) -> RequestRecord {
    RequestRecord {
        sent_s: 1.0,
        first_token_s: Some(1.0 + ttft),
        end_s: 1.0 + ttft + tpot * (tokens.saturating_sub(1)) as f64,
        tokens,
        outcome,
    }
}

#[test]
fn ttft_and_tpot_come_from_successful_requests_only() {
    let ok = rec(0.5, 0.25, 5, Outcome::Ok);
    assert!(close(ok.ttft().unwrap(), 0.5));
    assert!(close(ok.tpot().unwrap(), 0.25));
    assert_eq!(rec(0.5, 0.0, 1, Outcome::Ok).tpot(), None);
    for bad in [
        Outcome::Failed,
        Outcome::Rejected,
        Outcome::Malformed,
        Outcome::Mismatch,
    ] {
        let r = rec(0.5, 0.25, 5, bad);
        assert_eq!((r.ttft(), r.tpot()), (None, None));
    }
    let s = LatencySummary::of(&[
        rec(1.0, 0.1, 3, Outcome::Ok),
        rec(3.0, 0.3, 3, Outcome::Ok),
        rec(0.0, 0.0, 3, Outcome::Failed),
    ]);
    assert_eq!((s.ttft_samples, s.tpot_samples), (2, 2));
    assert!(close(s.ttft_p50_s, 2.0));
    assert!(close(s.ttft_p90_s, 2.8));
    assert!(close(s.tpot_p50_s, 0.2));
}

#[test]
fn goodput_counts_tokens_of_requests_within_both_limits() {
    let slo = Slo {
        ttft_s: 1.0,
        tpot_s: 0.1,
    };
    let records = [
        rec(0.5, 0.05, 10, Outcome::Ok),      // meets both: 10
        rec(1.0, 0.1, 4, Outcome::Ok),        // on both limits: 4
        rec(1.5, 0.05, 100, Outcome::Ok),     // TTFT miss
        rec(0.5, 0.2, 100, Outcome::Ok),      // TPOT miss
        rec(0.5, 0.0, 1, Outcome::Ok),        // one token: TTFT only: 1
        rec(0.1, 0.01, 100, Outcome::Failed), // failures always miss
        rec(0.1, 0.01, 100, Outcome::Mismatch),
    ];
    assert_eq!(goodput_tokens(&records, slo), 15);
    assert_eq!(goodput_tokens(&[], slo), 0);
}

#[test]
fn a_block_summary_counts_successful_and_good_tokens_over_its_wall_time() {
    let slo = Slo {
        ttft_s: 1.0,
        tpot_s: 0.1,
    };
    let records = [
        rec(0.5, 0.05, 10, Outcome::Ok),
        rec(1.5, 0.05, 6, Outcome::Ok),
        rec(0.1, 0.01, 100, Outcome::Failed),
    ];
    let b = BlockSummary::of(&records, 2.0, slo);
    assert!(close(b.wall_s, 2.0));
    assert!(close(b.output_tok_s, 8.0));
    assert!(close(b.goodput_tok_s, 5.0));
    assert_eq!(b.latency.ttft_samples, 2);
    assert_eq!(BlockSummary::of(&records, 0.0, slo).output_tok_s, 0.0);
}

#[test]
fn settling_takes_the_favourable_quartile_of_each_metric() {
    // Five blocks; block i is (i + 1) times as slow as the first.
    let blocks: Vec<BlockSummary> = (1..=5)
        .map(|k| {
            let k = f64::from(k);
            BlockSummary {
                wall_s: k,
                output_tok_s: 100.0 / k,
                goodput_tok_s: 50.0 / k,
                latency: LatencySummary {
                    ttft_p50_s: 0.1 * k,
                    ttft_p90_s: 0.2 * k,
                    tpot_p50_s: 0.01 * k,
                    tpot_p90_s: 0.02 * k,
                    ttft_samples: 10,
                    tpot_samples: 9,
                },
            }
        })
        .collect();
    let s = settle(&blocks);
    // Times at their 25th percentile, rates at their 75th.
    assert!(close(s.wall_s, 2.0));
    assert!(close(s.output_tok_s, 50.0));
    assert!(close(s.goodput_tok_s, 25.0));
    assert!(close(s.latency.ttft_p50_s, 0.2));
    assert!(close(s.latency.ttft_p90_s, 0.4));
    assert!(close(s.latency.tpot_p50_s, 0.02));
    assert!(close(s.latency.tpot_p90_s, 0.04));
    assert_eq!((s.latency.ttft_samples, s.latency.tpot_samples), (50, 45));
    // The order of the blocks does not matter, and one block is itself.
    let mut shuffled = blocks.clone();
    shuffled.reverse();
    assert_eq!(settle(&shuffled), s);
    assert_eq!(settle(&blocks[2..3]), blocks[2]);
    assert_eq!(settle(&[]), BlockSummary::default());
}
