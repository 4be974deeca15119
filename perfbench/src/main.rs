//! DFI benchmark: end-to-end wall-clock metrics for three workloads
//! (`fleet`, `enterprise`, `audit`), or per-layer metrics with `--trace 1`.
//!
//! Usage: `dfi-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--size full|toy] [--plant none|wrong-decision|wrong-plan]`
//!
//! Every workload checks its outputs before any number is reported; a
//! failed check exits non-zero without a result line. The last line of
//! standard output is the JSON result.

mod audit;
mod enterprise;
mod fleet;
mod layers;
mod metrics;
mod report;
mod trace;

use std::process::ExitCode;

use metrics::{Values, END_TO_END, PER_LAYER};
use report::{add_host_provenance, peak_rss_mb, Report};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// A deliberate defect injected to prove the correctness checks bite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plant {
    None,
    /// One decision differs from the oracle's.
    WrongDecision,
    /// One repair plan is altered after synthesis.
    WrongPlan,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
    plant: Plant,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        plant: Plant::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
            }
            "--trace" => a.trace = val == "1",
            "--size" => a.toy = val == "toy",
            "--plant" => {
                a.plant = match val.as_str() {
                    "none" => Plant::None,
                    "wrong-decision" => Plant::WrongDecision,
                    "wrong-plan" => Plant::WrongPlan,
                    _ => return Err(format!("bad --plant {val}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dfi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::TRACING.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    let mut r = Report::default();
    let mut v = Values::new();
    let outcome = match args.workload.as_str() {
        "fleet" => fleet::run(
            args.seed,
            args.seconds,
            args.toy,
            args.plant,
            &mut r,
            &mut v,
        ),
        "enterprise" => enterprise::run(
            args.seed,
            args.seconds,
            args.toy,
            args.plant,
            &mut r,
            &mut v,
        ),
        "audit" => audit::run(
            args.seed,
            args.seconds,
            args.toy,
            args.plant,
            &mut r,
            &mut v,
        ),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("CHECK FAILED ({}): {e}", args.workload);
        return ExitCode::FAILURE;
    }
    v.insert("peak_rss_mb", peak_rss_mb());

    r.prov_str("workload", &args.workload);
    r.prov("seed", args.seed);
    r.prov("seconds", args.seconds);
    r.prov("trace", u8::from(args.trace));
    r.prov_str("size", if args.toy { "toy" } else { "full" });
    add_host_provenance(&mut r);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        let value = match v.get(name) {
            Some(x) => *x,
            None if args.trace => {
                r.table
                    .push(format!("{name}: not on this workload's path (0)"));
                0.0
            }
            None => {
                eprintln!("internal error: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        r.metric(name, unit, value);
    }
    for line in &r.table {
        println!("# {line}");
    }
    println!("{}", r.provenance_json());
    println!("{}", r.result_json());
    ExitCode::SUCCESS
}
