//! The `ranks8` workload: `MultiRankSim` with 8 ranks on Frontier,
//! `MultiRankProblem::small(2048, seed)`, the default (barriered)
//! schedule on the two-thread pool, and a coordinated checkpoint
//! encoded and decoded every few steps.
//!
//! No kernel runs here: the time goes to the rank engine, migration and
//! halo traffic through the transport, and the checkpoint codec. The
//! reference digest is the single-rank run of the same problem — the
//! engine's decomposition-invariance contract.

use crate::clock::{report_end_to_end, HostClock, GAUGE_REF_MS};
use crate::report::{median, peak_rss_mib, timing_detail, Record};
use crate::trace::{self, STEP_SPAN};
use crate::{Args, POOL_THREADS};
use bytes::Bytes;
use hacc_comm::TransportStats;
use hacc_core::{MultiRankCheckpoint, MultiRankProblem, MultiRankSim, StepStats};
use hacc_telemetry::Recorder;
use std::time::Instant;
use sycl_sim::GpuArch;

const RANKS: usize = 8;
const PARTICLES: usize = 2048;
/// Steps per trajectory.
pub const STEPS: u64 = 64;
/// A checkpoint round trip follows every `CKPT_EVERY`-th step.
const CKPT_EVERY: u64 = 4;
/// Sampled steps whose spans go into the Chrome trace file.
const TRACE_FILE_STEPS: u64 = 4;

fn build(ranks: usize, seed: u64) -> MultiRankSim {
    let mut sim = MultiRankSim::new(
        ranks,
        GpuArch::frontier(),
        MultiRankProblem::small(PARTICLES, seed),
    );
    sim.set_async(false);
    sim
}

/// Encodes a checkpoint of `sim`, decodes it and restores from the
/// decoded copy. Returns the encoded size.
fn checkpoint_round_trip(sim: &mut MultiRankSim, rec: Option<&Recorder>) -> Result<u64, String> {
    let (ckpt, wire) = {
        let _s = rec.map(|r| r.span("ckpt.encode"));
        let ckpt = sim.checkpoint();
        let wire: Bytes = ckpt.to_bytes();
        (ckpt, wire)
    };
    let bytes = wire.len() as u64;
    let _s = rec.map(|r| r.span("ckpt.decode"));
    let decoded = MultiRankCheckpoint::from_bytes(wire).map_err(|e| e.to_string())?;
    if decoded != ckpt {
        return Err(format!(
            "checkpoint at step {} did not round-trip",
            ckpt.step
        ));
    }
    sim.restore(&decoded).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// One step plus its checkpoint round trip when one is due.
fn step(sim: &mut MultiRankSim, rec: Option<&Recorder>) -> Result<(StepStats, u64), String> {
    let stats = sim.step().map_err(|e| e.to_string())?;
    let bytes = if sim.step_count().is_multiple_of(CKPT_EVERY) {
        checkpoint_round_trip(sim, rec)?
    } else {
        0
    };
    Ok((stats, bytes))
}

struct Trajectory {
    steps_ok: u64,
    digest: u64,
    modeled_per_step: f64,
}

pub fn run(args: &Args) -> Record {
    let mut rec = Record::default();
    let mut warm = build(RANKS, args.seed);
    for _ in 0..2 {
        warm.step().expect("warm-up step");
    }
    drop(warm);

    let mut trajectories = Vec::new();
    let window = Instant::now();
    if args.trace {
        traced_window(args, &mut rec, &mut trajectories, window);
    } else {
        timed_window(args, &mut rec, &mut trajectories, window);
    }
    rec.set("peak_rss_mib", peak_rss_mib());

    let mut reference = build(1, args.seed);
    match reference.run(STEPS) {
        Ok(_) => {
            let digest = reference.state_digest();
            rec.digest = format!("{digest:016x}");
            let mut mismatched = 0;
            for t in &trajectories {
                if t.steps_ok < STEPS || t.digest != digest {
                    mismatched += 1;
                    rec.failed += t.steps_ok;
                }
            }
            rec.check(
                "digest_matches_reference",
                mismatched == 0,
                format!(
                    "{} of {} trajectories end on the 1-rank digest {digest:016x}",
                    trajectories.len() - mismatched,
                    trajectories.len()
                ),
            );
        }
        Err(e) => {
            rec.check(
                "reference_runs",
                false,
                format!("1-rank reference failed: {e}"),
            );
            rec.failed = rec.attempted;
        }
    }
    let modeled = trajectories.first().map_or(0.0, |t| t.modeled_per_step);
    let modeled_equal = trajectories
        .iter()
        .all(|t| t.modeled_per_step.to_bits() == modeled.to_bits());
    rec.check(
        "modeled_seconds_repeat",
        modeled_equal,
        format!(
            "Σ node seconds per step identical across {} trajectories",
            trajectories.len()
        ),
    );
    rec.modeled_ref_s = modeled;
    rec.set("modeled_device_s", modeled);
    rec
}

/// Runs one trajectory, stopping at the first error; `per_step` takes
/// one step (with its checkpoint) and returns its stats.
fn trajectory(
    sim: &mut MultiRankSim,
    rec: &mut Record,
    mut per_step: impl FnMut(&mut MultiRankSim) -> Result<StepStats, String>,
) -> Trajectory {
    let mut steps_ok = 0;
    let mut node_seconds = 0.0;
    for _ in 0..STEPS {
        rec.attempted += 1;
        match per_step(sim) {
            Ok(stats) => {
                node_seconds += stats.node_seconds;
                steps_ok += 1;
            }
            Err(e) => {
                rec.failed += 1;
                rec.check("steps_succeed", false, e);
                break;
            }
        }
    }
    Trajectory {
        steps_ok,
        digest: sim.state_digest(),
        modeled_per_step: node_seconds / STEPS as f64,
    }
}

fn timed_window(
    args: &Args,
    rec: &mut Record,
    trajectories: &mut Vec<Trajectory>,
    window: Instant,
) {
    let mut setups = HostClock::new(1);
    for _ in 0..crate::SETUP_SAMPLES {
        let t0 = Instant::now();
        drop(std::hint::black_box(build(RANKS, args.seed)));
        setups.record(t0.elapsed().as_secs_f64() * 1e3);
    }
    setups.flush();
    let mut steps = HostClock::new(POOL_THREADS);
    while trajectories.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let mut sim = build(RANKS, args.seed);
        setups.record(t0.elapsed().as_secs_f64() * 1e3);
        setups.flush();
        let t = trajectory(&mut sim, rec, |sim| {
            let t0 = Instant::now();
            let (stats, _) = step(sim, None)?;
            steps.record(t0.elapsed().as_secs_f64() * 1e3);
            Ok(stats)
        });
        trajectories.push(t);
    }
    steps.flush();
    report_end_to_end(rec, PARTICLES, &steps, &setups);
    rec.samples
        .push(("trajectories", trajectories.len() as u64));
}

/// Per-step totals of the traced engine.
#[derive(Default)]
struct Totals {
    steps: u64,
    self_ns: std::collections::BTreeMap<&'static str, u64>,
    migrated: u64,
    wait_share: f64,
    overlap: f64,
    imbalance: f64,
    ckpt_bytes: u64,
    ckpts: u64,
    program_events: u64,
    coverage: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// The traced window: an untraced engine and a traced one step in
/// lockstep from the same seed (alternating which goes first); the
/// traced one carries a recorder and benchmark spans.
fn traced_window(
    args: &Args,
    rec: &mut Record,
    trajectories: &mut Vec<Trajectory>,
    window: Instant,
) {
    let spans = Recorder::new();
    let mut tot = Totals::default();
    let mut clock = HostClock::new(POOL_THREADS);
    let mut trace_events = Vec::new();
    let mut comm = TransportStats::default();
    while trajectories.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let mut plain = build(RANKS, args.seed);
        let mut traced = build(RANKS, args.seed);
        traced.set_recorder(spans.clone());
        let t = trajectory(&mut traced, rec, |traced| {
            let run_plain = |plain: &mut MultiRankSim| -> Result<f64, String> {
                let t0 = Instant::now();
                step(plain, None)?;
                Ok(t0.elapsed().as_secs_f64() * 1e3)
            };
            let plain_first = tot.steps % 2 == 0;
            let mut untraced = if plain_first {
                run_plain(&mut plain)?
            } else {
                0.0
            };
            let t0 = Instant::now();
            let (stats, ckpt_bytes) = {
                let _s = spans.span(STEP_SPAN);
                step(traced, Some(&spans))?
            };
            let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
            if !plain_first {
                untraced = run_plain(&mut plain)?;
            }
            if plain.state_digest() != traced.state_digest() {
                return Err(format!(
                    "traced and untraced engines diverged at step {}",
                    traced.step_count()
                ));
            }
            let events = spans.events();
            let layers = trace::layer_self_ns(&events, "ranks.engine_ms");
            let covered: u64 = layers.values().sum();
            for (k, v) in layers {
                *tot.self_ns.entry(k).or_default() += v;
            }
            let bench_spans = events
                .iter()
                .filter(|e| {
                    e.kind == hacc_telemetry::EventKind::SpanBegin
                        && (e.name == STEP_SPAN || e.name.starts_with("ckpt."))
                })
                .count() as u64;
            tot.program_events += events.len() as u64 - 2 * bench_spans;
            tot.coverage.push(covered as f64 / 1e6 / untraced);
            tot.traced_ms.push(traced_ms);
            tot.untraced_ms.push(untraced);
            tot.migrated += stats.migrated;
            let mean_step = stats.per_rank.iter().map(|r| r.step_seconds).sum::<f64>()
                / stats.per_rank.len() as f64;
            let wait: f64 = stats.per_rank.iter().map(|r| r.wait_seconds).sum();
            tot.wait_share += wait / (stats.per_rank.len() as f64 * stats.node_seconds);
            tot.imbalance += stats.node_seconds / mean_step;
            tot.overlap += stats.overlap_fraction;
            if ckpt_bytes > 0 {
                tot.ckpt_bytes += ckpt_bytes;
                tot.ckpts += 1;
            }
            if tot.steps < TRACE_FILE_STEPS {
                trace_events.extend(events);
            }
            spans.clear();
            tot.steps += 1;
            clock.record(untraced);
            Ok(stats)
        });
        // Each engine's transport starts from zero.
        let s = traced.comm_stats();
        comm.messages += s.messages;
        comm.bytes += s.bytes;
        comm.exchanges += s.exchanges;
        comm.retries += s.retries;
        comm.seconds += s.seconds;
        trajectories.push(t);
    }
    clock.flush();
    let steps = tot.steps.max(1) as f64;
    let scale = GAUGE_REF_MS / median(&clock.gauge_ms);
    for (&layer, &ns) in &tot.self_ns {
        rec.set(layer, scale * ns as f64 / steps / 1e6);
    }
    rec.set("ranks.migrated", tot.migrated as f64 / steps);
    rec.set("ranks.wait_share", tot.wait_share / steps);
    rec.set("ranks.overlap_fraction", tot.overlap / steps);
    rec.set("ranks.imbalance", tot.imbalance / steps);
    rec.set("comm.messages", comm.messages as f64 / steps);
    rec.set("comm.bytes", comm.bytes as f64 / steps);
    rec.set("comm.exchanges", comm.exchanges as f64 / steps);
    rec.set("comm.retries", comm.retries as f64 / steps);
    rec.set("comm.modeled_s", comm.seconds / steps);
    rec.set(
        "ckpt.bytes",
        tot.ckpt_bytes as f64 / tot.ckpts.max(1) as f64,
    );
    rec.set(
        "telemetry.events_per_step",
        tot.program_events as f64 / steps,
    );
    rec.set("layer_coverage", median(&tot.coverage));
    rec.set(
        "trace_overhead_ratio",
        median(&tot.traced_ms) / median(&tot.untraced_ms),
    );
    rec.samples = vec![
        ("steps_traced", tot.steps),
        ("checkpoints", tot.ckpts),
        ("trajectories", trajectories.len() as u64),
    ];
    rec.detail
        .push(("raw_traced_step_ms", timing_detail(&tot.traced_ms)));
    rec.detail
        .push(("raw_untraced_step_ms", timing_detail(&tot.untraced_ms)));
    rec.detail
        .push(("gauge_ms", timing_detail(&clock.gauge_ms)));
    crate::write_trace(args, &trace::host_chrome_trace(&trace_events), rec);
}
