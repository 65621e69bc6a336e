//! Small shared pieces: the seeded generator, exact order statistics,
//! timing helpers and host facts read from `/proc` and `/sys`.

use std::path::Path;
use std::time::Instant;

/// Splitmix64, the workspace-standard deterministic generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-species density scales of the compute workloads' initial states:
/// `n` values in `[1 - SCALE_SPAN, 1 + SCALE_SPAN]`, a pure function of
/// `seed`.
pub fn density_scales(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = seed ^ 0x5ca1_e5ca_1e5c_a1e5;
    (0..n)
        .map(|_| {
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            1.0 + SCALE_SPAN * (2.0 * u - 1.0)
        })
        .collect()
}

/// Half-width of the seeded per-species density scale. Collision rates
/// scale with density, so the scale moves the Newton iteration count: at
/// ±5 % `batch256_fused` does up to 6.5 % more or less work from one seed
/// to the next, which a comparison across seeds would read as noise; at
/// ±0.5 % it is 0.7 %.
pub const SCALE_SPAN: f64 = 0.005;

/// Multiply each species block of a species-major state by its scale.
pub fn scale_species(state: &mut [f64], scales: &[f64]) {
    let n = state.len() / scales.len();
    for (block, s) in state.chunks_mut(n).zip(scales) {
        for x in block {
            *x *= s;
        }
    }
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn shuffled(rng: &mut u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Exact nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method), so `aa` reports the spread the driver
/// computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Run `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of the largest cache `cpu0` reports in sysfs, or `None`
/// where sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path().join("size")) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1u64 << 10),
            Some('M') => (&text[..text.len() - 1], 1u64 << 20),
            Some('G') => (&text[..text.len() - 1], 1u64 << 30),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            best = best.max(Some(n * mult));
        }
    }
    best
}

/// The commit a git checkout at `root` has checked out, read from the
/// files under `.git` (the driver's checkout is not a repository, and no
/// process is started for this).
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.05), 15.0);
        assert_eq!(percentile(&v, 0.30), 20.0);
        assert_eq!(percentile(&v, 0.40), 20.0);
        assert_eq!(percentile(&v, 0.50), 35.0);
        assert_eq!(percentile(&v, 1.00), 50.0);
        // Order of the input does not matter; p95 of 100 values is the 95th.
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&hundred, 0.951), 96.0);
        hundred.truncate(1);
        assert_eq!(percentile(&hundred, 0.95), 100.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn seeded_inputs_repeat_and_stay_in_range() {
        assert_eq!(density_scales(42, 10), density_scales(42, 10));
        assert_ne!(density_scales(42, 10), density_scales(43, 10));
        for s in density_scales(7, 64) {
            assert!((1.0 - SCALE_SPAN..=1.0 + SCALE_SPAN).contains(&s));
        }
        let (mut a, mut b) = (9u64, 9u64);
        let p = shuffled(&mut a, 9);
        assert_eq!(p, shuffled(&mut b, 9));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn scales_apply_per_species_block() {
        let mut state = vec![1.0; 6];
        scale_species(&mut state, &[2.0, 3.0, 4.0]);
        assert_eq!(state, [2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
    }
}
