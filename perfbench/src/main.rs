//! Host wall-clock benchmark of the CRK-HACC reproduction.
//!
//! ```text
//! perfbench --workload hydro-fast|hydro-metered|ranks8 --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Runs one workload as a single closed loop — one step starts when the
//! previous one has finished — for `S` seconds and prints one JSON
//! record on stdout: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`), sample counts, correctness checks
//! and detail. A traced run also writes a Chrome trace of its first
//! sampled steps to `DIR` (default `.bench_out`). `perfbench/run.py`
//! builds this binary and turns the record into the benchmark's result
//! line; see `perfbench/README.md`.

mod calib;
mod clock;
mod hydro;
mod ranks;
mod report;
mod trace;

use report::Json;
use std::path::PathBuf;
use sycl_sim::MeterPolicy;

/// Worker threads for the kernel scheduler and the data-parallel host
/// loops: the two cores of the reference host.
pub const POOL_THREADS: usize = 2;

/// Extra set-ups timed before the window (each trajectory's own set-up
/// is timed too): set-up takes milliseconds, so its median needs many
/// samples to hold still.
pub const SETUP_SAMPLES: usize = 101;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Writes a traced run's Chrome trace and names it in the record.
pub fn write_trace(args: &Args, chrome: &str, rec: &mut report::Record) {
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, chrome));
    rec.check(
        "trace_written",
        written.is_ok(),
        match written {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("{}: {e}", path.display()),
        },
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the pool width and clear the program's environment knobs
    // (async step, autotuner, meter and executor overrides) before any
    // thread starts: each workload fixes these itself.
    std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS.to_string());
    for knob in [
        "HACC_ASYNC",
        "HACC_TUNE",
        "HACC_TUNE_EPSILON",
        "HACC_METER",
        "HACC_EXEC",
    ] {
        std::env::remove_var(knob);
    }
    let (rec, meter) = match args.workload.as_str() {
        "hydro-fast" => (hydro::run(&args, MeterPolicy::Off), "off"),
        "hydro-metered" => (hydro::run(&args, MeterPolicy::Full), "full"),
        // The multi-rank engine runs no kernels, so no meter applies.
        "ranks8" => (ranks::run(&args), "none"),
        w => {
            eprintln!("perfbench: unknown workload {w} (hydro-fast, hydro-metered, ranks8)");
            std::process::exit(2);
        }
    };
    let head = vec![
        ("workload", Json::String(args.workload.clone())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("meter", Json::String(meter.into())),
        ("pool_threads", Json::U64(POOL_THREADS as u64)),
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "build_profile",
            Json::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release (thin LTO, codegen-units=1)"
                }
                .into(),
            ),
        ),
    ];
    println!("{}", rec.to_json(head, args.trace));
}
