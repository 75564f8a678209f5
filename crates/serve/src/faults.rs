//! Deterministic fault injection for robustness testing.
//!
//! Compiled only under the `fault-injection` cargo feature, so production
//! builds carry none of this. A [`FaultPlan`] is installed process-wide;
//! the batch engine then consults [`fault_for_point`] before each point
//! and suffers the prescribed fault: a panic, NaN moments, or an
//! artificial slowdown. Decisions are a pure hash of `(seed, point
//! index)`, so the same plan faults the same points regardless of worker
//! count or scheduling — the property the integration suite relies on to
//! compare faulted runs against fault-free baselines point by point.
//!
//! The module also provides pure artifact-corruption helpers
//! ([`bit_flip_digit`], [`truncate_at`]) for exercising the loader's
//! rejection paths.

use std::sync::RwLock;
use std::time::Duration;

/// What to inflict on a selected point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic mid-evaluation (exercises `catch_unwind` isolation).
    Panic,
    /// Replace the evaluated moments with NaN (exercises the numeric
    /// health check).
    NanMoments,
    /// Sleep before evaluating (exercises deadlines and shedding).
    Slow(Duration),
}

/// A seeded, rate-based fault schedule. Rates are percentages of points
/// (0–100) and partition a single per-point draw, so one point suffers at
/// most one fault and `panic_rate_pct + nan_rate_pct + slow_rate_pct`
/// must not exceed 100.
///
/// With a sharded server, `target_shard` aims the whole plan at one
/// shard: points evaluated by any other shard see no faults at all. That
/// is the lever the cross-shard chaos harness uses to storm one shard
/// while asserting its neighbors stay bit-identical to a fault-free run.
/// Unsharded evaluation paths (a bare [`crate::WorkerPool`] built for
/// shard 0, a single-shard server) count as shard 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the per-point hash.
    pub seed: u64,
    /// Percent of points that panic.
    pub panic_rate_pct: u8,
    /// Percent of points whose moments become NaN.
    pub nan_rate_pct: u8,
    /// Percent of points that sleep for `slow` first.
    pub slow_rate_pct: u8,
    /// Sleep duration for slow faults.
    pub slow: Duration,
    /// Restrict every fault in this plan to one shard; `None` faults all
    /// shards (the pre-sharding behavior).
    pub target_shard: Option<usize>,
    /// Percent of *chunks* that crash outright (a panic at the chunk
    /// layer, outside the per-point `catch_unwind`), whichever thread
    /// runs them — exercises the chunk guard, the shard's crash count
    /// and its breaker. Drawn independently of the per-point rates.
    pub chunk_crash_rate_pct: u8,
}

static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// Installs a process-wide fault plan (replacing any previous one).
pub fn install(plan: FaultPlan) {
    assert!(
        u32::from(plan.panic_rate_pct)
            + u32::from(plan.nan_rate_pct)
            + u32::from(plan.slow_rate_pct)
            <= 100,
        "fault rates exceed 100%"
    );
    *PLAN.write().expect("fault plan lock poisoned") = Some(plan);
}

/// Removes the active fault plan.
pub fn clear() {
    *PLAN.write().expect("fault plan lock poisoned") = None;
}

/// True when a plan is installed (the batch engine then takes its
/// per-point path so every point passes the injection hook).
pub fn active() -> bool {
    PLAN.read().expect("fault plan lock poisoned").is_some()
}

/// SplitMix64 — a tiny, well-mixed hash; enough to decorrelate adjacent
/// point indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The fault (if any) this plan schedules for batch point `index`.
    /// Pure in `(seed, index)`: thread count and evaluation order do not
    /// change the answer — which lets tests recompute the faulted set
    /// after the fact and compare runs point by point. Ignores
    /// `target_shard` (see [`FaultPlan::fault_for_on`]).
    pub fn fault_for(&self, index: usize) -> Option<Fault> {
        let draw = (splitmix64(self.seed ^ (index as u64)) % 100) as u8;
        if draw < self.panic_rate_pct {
            Some(Fault::Panic)
        } else if draw < self.panic_rate_pct + self.nan_rate_pct {
            Some(Fault::NanMoments)
        } else if draw < self.panic_rate_pct + self.nan_rate_pct + self.slow_rate_pct {
            Some(Fault::Slow(self.slow))
        } else {
            None
        }
    }

    /// [`FaultPlan::fault_for`], filtered by shard: `None` when the plan
    /// targets a different shard than the one evaluating the point.
    pub fn fault_for_on(&self, shard: usize, index: usize) -> Option<Fault> {
        if self.target_shard.is_some_and(|t| t != shard) {
            return None;
        }
        self.fault_for(index)
    }

    /// Whether the chunk starting at global point index `chunk_start` on
    /// `shard` crashes. Deterministic in `(seed, chunk_start)` and drawn
    /// independently of the per-point fault partition.
    pub fn crashes_chunk_on(&self, shard: usize, chunk_start: usize) -> bool {
        if self.chunk_crash_rate_pct == 0 || self.target_shard.is_some_and(|t| t != shard) {
            return false;
        }
        let draw = splitmix64(self.seed ^ 0xdead_beef_0bad_cafe ^ (chunk_start as u64)) % 100;
        (draw as u8) < self.chunk_crash_rate_pct
    }
}

/// The fault (if any) scheduled for batch point `index` under the active
/// plan, evaluated on an unsharded path (shard 0).
pub fn fault_for_point(index: usize) -> Option<Fault> {
    fault_for_point_on(0, index)
}

/// The fault (if any) scheduled for batch point `index` under the active
/// plan when evaluated by `shard`.
pub fn fault_for_point_on(shard: usize, index: usize) -> Option<Fault> {
    let plan = (*PLAN.read().expect("fault plan lock poisoned"))?;
    plan.fault_for_on(shard, index)
}

/// Whether the active plan crashes the chunk starting at `chunk_start`
/// on `shard`.
pub fn fault_crashes_chunk(shard: usize, chunk_start: usize) -> bool {
    match *PLAN.read().expect("fault plan lock poisoned") {
        Some(plan) => plan.crashes_chunk_on(shard, chunk_start),
        None => false,
    }
}

/// Serializes this crate's own tests that install a plan: the plan is
/// process-global, and unit tests run in parallel.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Flips one bit of one ASCII digit in `text` (chosen by `seed`), leaving
/// it valid UTF-8 but corrupt — the minimal artifact corruption a
/// checksum must catch.
///
/// # Panics
///
/// Panics when `text` contains no ASCII digit.
pub fn bit_flip_digit(text: &str, seed: u64) -> String {
    let digits: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    assert!(!digits.is_empty(), "no digit to corrupt");
    let pos = digits[(splitmix64(seed) % digits.len() as u64) as usize];
    let mut bytes = text.as_bytes().to_vec();
    // XOR with 1 maps 0↔1, 2↔3, …, 8↔9: still a digit, different value.
    bytes[pos] ^= 0x01;
    String::from_utf8(bytes).expect("digit flip preserves UTF-8")
}

/// Truncates `text` to the given fraction of its length (on a char
/// boundary) — a partially-written artifact.
pub fn truncate_at(text: &str, keep_fraction: f64) -> String {
    let mut keep = ((text.len() as f64) * keep_fraction.clamp(0.0, 1.0)) as usize;
    while keep > 0 && !text.is_char_boundary(keep) {
        keep -= 1;
    }
    text[..keep].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        // The plan is process-global and lib tests run in parallel, so
        // aim it at a shard no other test evaluates on: an untargeted
        // plan would fault their batches too.
        const SHARD: usize = 7778;
        let _guard = test_guard();
        install(FaultPlan {
            seed: 42,
            panic_rate_pct: 10,
            nan_rate_pct: 10,
            target_shard: Some(SHARD),
            ..FaultPlan::default()
        });
        assert!(active());
        let decide = |i| fault_for_point_on(SHARD, i);
        let first: Vec<Option<Fault>> = (0..1000).map(decide).collect();
        let second: Vec<Option<Fault>> = (0..1000).map(decide).collect();
        assert_eq!(first, second);
        let panics = first.iter().filter(|f| **f == Some(Fault::Panic)).count();
        let nans = first
            .iter()
            .filter(|f| **f == Some(Fault::NanMoments))
            .count();
        // 10% nominal rate over 1000 draws: allow generous slack, but both
        // fault kinds must actually occur and most points stay healthy.
        assert!((50..200).contains(&panics), "{panics}");
        assert!((50..200).contains(&nans), "{nans}");
        clear();
        assert!(!active());
        assert_eq!(fault_for_point(0), None);
    }

    #[test]
    fn corruption_helpers_change_and_shrink_text() {
        let text = r#"{"x": 12345, "y": "abc"}"#;
        let flipped = bit_flip_digit(text, 7);
        assert_ne!(text, flipped);
        assert_eq!(text.len(), flipped.len());
        assert_eq!(
            text.bytes()
                .zip(flipped.bytes())
                .filter(|(a, b)| a != b)
                .count(),
            1
        );
        let cut = truncate_at(text, 0.5);
        assert_eq!(cut.len(), text.len() / 2);
        assert!(text.starts_with(&cut));
    }

    #[test]
    #[should_panic(expected = "fault rates exceed 100%")]
    fn over_100_percent_rejected() {
        install(FaultPlan {
            seed: 0,
            panic_rate_pct: 60,
            nan_rate_pct: 60,
            ..FaultPlan::default()
        });
    }

    #[test]
    fn shard_targeting_gates_faults_and_chunk_crashes() {
        let plan = FaultPlan {
            seed: 7,
            panic_rate_pct: 50,
            chunk_crash_rate_pct: 50,
            target_shard: Some(1),
            ..FaultPlan::default()
        };
        // Off-target shard sees nothing; the target shard sees exactly
        // the unfiltered schedule.
        for i in 0..500 {
            assert_eq!(plan.fault_for_on(0, i), None);
            assert_eq!(plan.fault_for_on(1, i), plan.fault_for(i));
            assert!(!plan.crashes_chunk_on(0, i));
        }
        let crashes = (0..500).filter(|&c| plan.crashes_chunk_on(1, c)).count();
        assert!((150..350).contains(&crashes), "{crashes}");
        // Untargeted plans hit every shard identically.
        let broad = FaultPlan {
            target_shard: None,
            ..plan
        };
        for i in 0..100 {
            assert_eq!(broad.fault_for_on(0, i), broad.fault_for_on(1, i));
            assert_eq!(broad.crashes_chunk_on(0, i), broad.crashes_chunk_on(1, i));
        }
    }
}
