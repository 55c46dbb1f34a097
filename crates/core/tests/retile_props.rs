//! Property tests for the pure re-tile planner.
//!
//! [`plan_retile`] is the whole re-tiling policy: it sees a wave's
//! harvested byte histogram and nothing else. These tests drive it with
//! seeded random histograms — uniform noise, Zipf-shaped decay and a single
//! giant partition — and check the invariants the runtime splice relies on:
//!
//! * applying a plan conserves total bytes exactly;
//! * after a split, no sub-partition exceeds the cap (the histogram's mean,
//!   rounded up) unless the fan-out was clamped at [`MAX_SPLIT_WAYS`];
//! * balanced histograms produce no splits;
//! * the planner is a pure function of the histogram (same input twice →
//!   the same plan, and the plan is well-formed).

use xorbits_core::retile::{plan_retile, MAX_SPLIT_WAYS};

/// SplitMix64 — the classic seeded stream, good enough for test shapes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random histogram of `n` partitions in one of three shapes:
/// bytes uniform in `[0, spread)` and occasionally zero; a Zipf-like decay
/// `spread / rank` over a seeded rank order; or one partition holding
/// `spread` bytes among near-empty ones (the shape that clamps the
/// fan-out once `n` exceeds [`MAX_SPLIT_WAYS`]).
fn random_hist(seed: u64, n: usize, spread: u64) -> Vec<u64> {
    let r = |i: usize| mix(seed ^ (i as u64).wrapping_mul(0x9E37));
    match seed % 3 {
        0 => (0..n)
            .map(|i| {
                if r(i).is_multiple_of(13) {
                    0
                } else {
                    r(i) % spread
                }
            })
            .collect(),
        1 => (0..n).map(|i| spread / (1 + r(i) % n as u64)).collect(),
        _ => {
            let hot = (mix(seed) % n as u64) as usize;
            (0..n)
                .map(|i| if i == hot { spread } else { r(i) % 3 })
                .collect()
        }
    }
}

/// The cap the planner splits down to: the mean partition, rounded up.
fn cap_of(hist: &[u64]) -> u64 {
    hist.iter().sum::<u64>().div_ceil(hist.len() as u64)
}

/// Applies a plan to a histogram, returning the rebalanced histogram: a
/// split partition becomes `ways` near-equal parts that conserve its bytes
/// exactly (the runtime splice balances by real chunk bytes instead).
fn apply_plan(hist: &[u64], plan: &[(usize, usize)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(hist.len());
    for (i, &bytes) in hist.iter().enumerate() {
        match plan.iter().find(|&&(part, _)| part == i) {
            Some(&(_, ways)) => {
                let w = ways as u64;
                out.extend((0..w).map(|j| bytes / w + u64::from(j < bytes % w)));
            }
            None => out.push(bytes),
        }
    }
    out
}

#[test]
fn plans_conserve_bytes() {
    for seed in 0..300u64 {
        let n = 2 + (mix(seed) % 100) as usize;
        let spread = 1 + mix(seed ^ 1) % (16 << 20);
        let hist = random_hist(seed, n, spread);
        let out = apply_plan(&hist, &plan_retile(&hist));
        assert_eq!(
            hist.iter().sum::<u64>(),
            out.iter().sum::<u64>(),
            "seed {seed}: retile must conserve totals"
        );
    }
}

#[test]
fn split_partitions_respect_the_cap() {
    let mut clamped = 0;
    for seed in 0..300u64 {
        let n = 2 + (mix(seed ^ 0xCAFE) % 100) as usize;
        // small and large scales: caps from a few bytes to tens of MB
        let spread = 1 + mix(seed) % (1 << (4 + seed % 23));
        let hist = random_hist(seed ^ 0xCAFE, n, spread);
        let cap = cap_of(&hist);
        let plan = plan_retile(&hist);
        for &(part, ways) in &plan {
            assert!(
                (2..=MAX_SPLIT_WAYS).contains(&ways),
                "seed {seed}: ways {ways}"
            );
            assert!(
                hist[part] > cap,
                "seed {seed}: part {part} is not above the cap"
            );
            if ways == MAX_SPLIT_WAYS {
                clamped += 1;
                continue; // clamped fan-out may legitimately overshoot
            }
            // the near-equal split puts at most ceil(bytes/ways) in a
            // sub-partition, and ways = ceil(bytes/cap) keeps that ≤ cap
            let worst = hist[part].div_ceil(ways as u64);
            assert!(
                worst <= cap,
                "seed {seed}: part {part} splits into {worst} B > cap {cap} B"
            );
        }
        // and the applied histogram agrees with the arithmetic: once the
        // planner acts, every partition above the cap was split
        if !plan.is_empty() && plan.iter().all(|&(_, ways)| ways < MAX_SPLIT_WAYS) {
            for bytes in apply_plan(&hist, &plan) {
                assert!(
                    bytes <= cap,
                    "seed {seed}: post-split partition {bytes} B above cap {cap} B"
                );
            }
        }
    }
    assert!(clamped > 0, "no histogram exercised the fan-out clamp");
}

#[test]
fn balanced_histograms_are_noops() {
    for seed in 0..100u64 {
        let n = 2 + (mix(seed ^ 0xBA1A) % 24) as usize;
        let base = 1 + mix(seed ^ 0xBA1A ^ 1) % (8 << 20);
        // jitter within ±10% of the base: max/mean can't reach 2.0
        let hist: Vec<u64> = (0..n)
            .map(|i| base - base / 10 + mix(seed ^ (i as u64) << 7) % (base / 5 + 1))
            .collect();
        let plan = plan_retile(&hist);
        assert!(
            plan.is_empty(),
            "seed {seed}: balanced histogram produced {plan:?}"
        );
    }
}

#[test]
fn planner_is_a_pure_function_of_the_histogram() {
    for seed in 0..300u64 {
        let n = 2 + (mix(seed ^ 0xF00D) % 100) as usize;
        let hist = random_hist(seed ^ 0xF00D, n, 1 + mix(seed) % (32 << 20));
        let a = plan_retile(&hist);
        assert_eq!(
            a,
            plan_retile(&hist),
            "seed {seed}: planner must be deterministic"
        );
        // well-formedness: ascending by partition, each at most once
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0, "seed {seed}: plan out of order: {a:?}");
        }
        assert!(a.iter().all(|&(part, _)| part < hist.len()));
    }
}

#[test]
fn degenerate_histograms_are_noops() {
    for hist in [vec![], vec![5 << 20], vec![0; 8]] {
        assert!(
            plan_retile(&hist).is_empty(),
            "degenerate histogram {hist:?} must be a no-op"
        );
    }
}
