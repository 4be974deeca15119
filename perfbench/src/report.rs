//! The run report: metric values, sample statistics, provenance and the
//! one-line JSON result (the last line of standard output).

use std::fmt::Write as _;
use std::time::Instant;

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Operations the workload issued.
    pub attempted: u64,
    /// Operations that failed (no decision, model drop, abandoned install,
    /// finding without a certified plan).
    pub failed: u64,
    /// `(name, unit, value)` in emission order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// `(key, JSON value)` provenance and workload-size fields.
    pub provenance: Vec<(String, String)>,
    /// Sample counts behind each reported statistic.
    pub samples: Vec<(String, usize)>,
    /// Human-readable traced-run table rows.
    pub table: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    pub fn prov(&mut self, key: &str, value: impl std::fmt::Display) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    pub fn prov_str(&mut self, key: &str, value: &str) {
        self.provenance.push((key.to_string(), json_str(value)));
    }

    pub fn sample_count(&mut self, key: &str, n: usize) {
        self.samples.push((key.to_string(), n));
    }

    /// The provenance line (printed before the result line).
    pub fn provenance_json(&self) -> String {
        let mut s = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {v}", json_str(k));
        }
        s.push_str("}, \"samples\": {");
        for (i, (k, n)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {n}", json_str(k));
        }
        let _ = write!(
            s,
            "}}, \"attempted\": {}, \"failed\": {}}}",
            self.attempted, self.failed
        );
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of `v` (`q` in `[0, 1]`); sorts in place.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The `q` percentile of each block of `block` consecutive samples, then
/// the median over blocks: a per-sample percentile that one noisy stretch
/// of the run (a descheduled vCPU, a neighbour's burst) cannot move. A
/// trailing partial block joins the one before it.
pub fn block_percentile(samples: &[f64], q: f64, block: usize) -> f64 {
    let n_blocks = (samples.len() / block.max(1)).max(1);
    let mut per_block: Vec<f64> = (0..n_blocks)
        .map(|b| {
            let end = if b + 1 == n_blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            percentile(&mut samples[b * block..end].to_vec(), q)
        })
        .collect();
    median(&mut per_block)
}

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
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

/// The machine and build facts every report carries.
pub fn add_host_provenance(r: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    r.prov("nproc", nproc);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    r.prov_str("cpu_model", &cpu);
    let rev = std::env::var("DFI_BENCH_REV").unwrap_or_else(|_| "unknown".to_string());
    r.prov_str("git_revision", &rev);
}

/// Runs `f` until at least `min_calls` calls and `min_secs` seconds have
/// passed, in batches, returning nanoseconds per call (median over
/// batches).
pub fn time_per_call<F: FnMut(usize)>(min_calls: usize, min_secs: f64, mut f: F) -> f64 {
    let batch = (min_calls / 8).max(1);
    let mut per_batch = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while per_batch.len() < 8 || start.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_batch.push(t0.elapsed().as_secs_f64() * 1e9 / batch as f64);
        if per_batch.len() >= 4096 {
            break;
        }
    }
    median(&mut per_batch)
}
