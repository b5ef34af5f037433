//! Order statistics, windowed rates and input digests.

/// Nearest-rank percentile of `v` (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median (nearest-rank p50).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The median, averaging the two middle values of an even count (the
/// nearest-rank [`median`] of two values is always the lower one). 0
/// for no samples.
pub fn midpoint(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`
/// samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The tail a run may report: the highest of `candidates` (ascending
/// quantiles) that leaves at least `min_beyond` samples beyond it. With
/// too few samples for any candidate, the median.
pub fn tail_quantile(n: usize, candidates: &[f64], min_beyond: usize) -> f64 {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= min_beyond)
        .unwrap_or(0.5)
}

/// Events counted into fixed windows of `window_s` seconds.
pub struct RateWindows {
    window_s: f64,
    counts: Vec<u64>,
}

impl RateWindows {
    pub fn new(window_s: f64) -> RateWindows {
        RateWindows {
            window_s,
            counts: Vec::new(),
        }
    }

    /// Count an event `t_s` seconds after the start.
    pub fn add(&mut self, t_s: f64) {
        if t_s >= 0.0 {
            let w = (t_s / self.window_s) as usize;
            if self.counts.len() <= w {
                self.counts.resize(w + 1, 0);
            }
            self.counts[w] += 1;
        }
    }

    /// Median event rate (per second) over the full windows of a
    /// measurement that lasted `span_s`; a trailing partial window is
    /// dropped. 0 when no full window fits.
    pub fn median_rate(&self, span_s: f64) -> f64 {
        let full = (span_s / self.window_s).floor() as usize;
        let rates: Vec<f64> = (0..full)
            .map(|w| self.counts.get(w).copied().unwrap_or(0) as f64 / self.window_s)
            .collect();
        median(&rates)
    }
}

/// FNV-1a 64-bit digest, for fingerprinting generated inputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64: the seed expander every generator here draws from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(midpoint(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(midpoint(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(midpoint(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let qs = [0.5, 0.9, 0.95, 0.99, 0.999];
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.95), 5);
        assert_eq!(tail_quantile(100, &qs, 10), 0.9);
        // 99 samples: p90 leaves 9, so the tail falls back to p50.
        assert_eq!(tail_quantile(99, &qs, 10), 0.5);
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail_quantile(1000, &qs, 10), 0.99);
        assert_eq!(tail_quantile(10_000, &qs, 10), 0.999);
        // Too few samples for any candidate: the median.
        assert_eq!(tail_quantile(9, &qs, 10), 0.5);
    }

    fn windowed_rate_median(events: &[f64], span_s: f64, window_s: f64) -> f64 {
        let mut w = RateWindows::new(window_s);
        for &t in events {
            w.add(t);
        }
        w.median_rate(span_s)
    }

    #[test]
    fn windowed_rate_takes_the_median_full_window() {
        // Windows of 1 s over 4 s: 10, 20, 30, 40 events; the 0.5 s
        // trailing partial window is ignored.
        let mut ev = Vec::new();
        for (w, n) in [10, 20, 30, 40].iter().enumerate() {
            for i in 0..*n {
                ev.push(w as f64 + f64::from(i) / f64::from(*n));
            }
        }
        ev.extend([4.1, 4.2, 4.3]);
        assert_eq!(windowed_rate_median(&ev, 4.5, 1.0), 20.0);
        // Half-second windows double the per-window rate scale.
        let even: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.01).collect();
        assert_eq!(windowed_rate_median(&even, 1.0, 0.5), 100.0);
        assert_eq!(windowed_rate_median(&even, 0.4, 0.5), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.update(b"ab");
        let mut b = Digest::default();
        b.update(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.update(b"a");
        c.update(b"b");
        assert_eq!(a.finish(), c.finish());
    }
}
