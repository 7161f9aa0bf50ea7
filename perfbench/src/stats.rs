//! Measurement helpers: quantiles, set-up timing, peak memory and a
//! seeded generator for sampling checks and request schedules.

use std::time::Instant;

/// The `q`-quantile of `values`, interpolating linearly between the
/// closest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, over `windows` consecutive runs of `samples`, of each
/// run's fastest sample; 0 for no samples. On a box whose speed changes
/// in stretches of seconds, a window's fastest sample stays put while
/// its median follows the share of slow stretches.
pub fn median_of_window_minima(samples: &[f64], windows: usize) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let minima: Vec<f64> = samples
        .chunks(size)
        .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&minima)
}

/// The arithmetic mean of `values`; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Windows a run's set-up samples fall into for `setup_s`: each holds
/// several seconds of a 30 s run.
pub const SETUP_WINDOWS: usize = 5;

/// Times one set-up and returns its result with the seconds it took. A
/// set-up faster than `min_batch_s` is repeated back to back and timed
/// as the batch mean, so a microsecond set-up still reads a stable
/// figure. Each repeat drops the previous result first, so peak memory
/// holds one set-up, as the workload does.
pub fn setup_sample<T>(min_batch_s: f64, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut runs = 0u32;
    let mut last = None;
    loop {
        drop(last.take());
        last = Some(std::hint::black_box(setup()));
        runs += 1;
        if start.elapsed().as_secs_f64() >= min_batch_s {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64() / f64::from(runs);
    (last.expect("at least one set-up ran"), secs)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak resident set to the current one (Linux
/// `clear_refs` 5), so the next workload's `peak_rss_mb` is its own.
/// False where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// SplitMix64: a small seeded generator for sampling and schedules.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; streams stay independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (0 when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}
