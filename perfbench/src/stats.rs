//! Order statistics, host-clock helpers and the output digest.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule.
/// Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over everything a workload simulated. Two runs whose outputs
/// agree bit for bit print the same digest; any change to a simulated
/// statistic changes it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string and a terminator into the digest.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of one value's `Debug` rendering. `Debug` prints every field of
/// a run, and prints each `f64` in its shortest round-trip form, so two
/// renderings are equal exactly when every field is bit-identical.
pub fn digest_debug(v: &impl std::fmt::Debug) -> u64 {
    let mut d = Digest::default();
    d.text(&format!("{v:?}"));
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.0);
        assert_eq!(quantile(&s, 0.9), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_bit_patterns() {
        assert_ne!(digest_debug(&0.0f64), digest_debug(&-0.0f64));
        assert_eq!(digest_debug(&1.5f64), digest_debug(&1.5f64));
    }
}
