//! Host time on a shared machine, rescaled to a nominal host speed.
//!
//! The reference host is a 2-vCPU virtual machine whose co-tenants
//! change how fast it runs: a fixed native loop swings by 2× within a
//! minute. A raw wall-clock figure then says more about the neighbours
//! than about the program. So every timed sample is followed, within
//! about 100 ms, by a *gauge*: one sweep of the `haccmk` force loop
//! over a fixed particle set, in short fork-join dispatches across the
//! same number of threads as the workload. Each sample is rescaled by
//! `GAUGE_REF_MS / gauge`: the time the same work would take on a host
//! whose gauge sweep takes [`GAUGE_REF_MS`]. The raw samples and the
//! gauge readings stay in the record's detail output.

use crate::calib::{interact, GravityProbe};
use crate::report::{median, timing_detail, Json, Record};
use std::hint::black_box;
use std::time::Instant;

/// The gauge sweep's wall time on the nominal host, in ms: a round
/// number of the order of the reference host's readings (9–19 ms).
pub const GAUGE_REF_MS: f64 = 10.0;

/// Fork-join dispatches per gauge sweep. The workloads fork and join
/// their threads every few milliseconds (each kernel launch, each
/// data-parallel host loop), and on a time-sliced host a join waits for
/// the slower vCPU; a gauge cut into equally short dispatches slows
/// down the way they do. On the reference host this halved the
/// run-to-run spread of gauge-rescaled step times against a single
/// long dispatch.
const GAUGE_DISPATCHES: usize = 32;

/// Timed work between two gauge readings.
const GAUGE_EVERY_MS: f64 = 100.0;

/// Particles in the gauge's fixed set.
const GAUGE_PARTICLES: usize = 1024;

/// The fixed native workload: [`GAUGE_PARTICLES`] particles scattered by
/// a fixed hash over an 8-cell box, all in one leaf, so one sweep is
/// 1024² pairs.
pub struct HostGauge {
    probe: GravityProbe,
    threads: usize,
}

impl HostGauge {
    pub fn new(threads: usize) -> Self {
        let n = GAUGE_PARTICLES;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 40) as f32 / (1u64 << 24) as f32
        };
        let pos = (0..n)
            .map(|_| [8.0 * next(), 8.0 * next(), 8.0 * next()])
            .collect();
        Self {
            probe: GravityProbe {
                pos,
                mass: vec![1.0 / n as f32; n],
                leaves: vec![(0, n)],
                pairs: vec![(0, 0)],
                poly: [0.27, -0.075, 0.011, -0.0011, 6e-5, -1.5e-6],
                r_cut2: 25.0,
                soft2: 1e-4,
                box_size: 8.0,
                kernel_acc: Vec::new(),
            },
            threads,
        }
    }

    /// Wall time of one sweep, in ms. The sweep runs as
    /// [`GAUGE_DISPATCHES`] fork-join dispatches, each splitting its rows
    /// across the threads.
    pub fn sample_ms(&self) -> f64 {
        let n = GAUGE_PARTICLES;
        let rows = n / GAUGE_DISPATCHES;
        let chunk = rows.div_ceil(self.threads);
        let p = &self.probe;
        let t0 = Instant::now();
        for d in 0..GAUGE_DISPATCHES {
            let (first, end) = (d * rows, (d + 1) * rows);
            std::thread::scope(|s| {
                for lo in (first..end).step_by(chunk) {
                    s.spawn(move || {
                        // On the stack: a heap buffer would give each
                        // gauge thread a malloc arena and inflate the
                        // program's peak RSS.
                        let mut acc = [[0.0f32; 3]; GAUGE_PARTICLES];
                        interact(black_box(p), (lo, (lo + chunk).min(end)), (0, n), &mut acc);
                        black_box(&acc);
                    });
                }
            });
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Timed samples with their gauge-rescaled values.
pub struct HostClock {
    gauge: HostGauge,
    pending: Vec<f64>,
    pending_ms: f64,
    /// Samples as measured, ms.
    pub raw_ms: Vec<f64>,
    /// Samples rescaled to the nominal host, ms.
    pub scaled_ms: Vec<f64>,
    /// Gauge readings, ms.
    pub gauge_ms: Vec<f64>,
}

impl HostClock {
    pub fn new(threads: usize) -> Self {
        Self {
            gauge: HostGauge::new(threads),
            pending: Vec::new(),
            pending_ms: 0.0,
            raw_ms: Vec::new(),
            scaled_ms: Vec::new(),
            gauge_ms: Vec::new(),
        }
    }

    /// Adds a sample; reads the gauge once enough work has accumulated.
    pub fn record(&mut self, ms: f64) {
        self.pending.push(ms);
        self.pending_ms += ms;
        if self.pending_ms >= GAUGE_EVERY_MS {
            self.flush();
        }
    }

    /// Reads the gauge now and rescales every pending sample by it.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let g = self.gauge.sample_ms();
        self.gauge_ms.push(g);
        for ms in self.pending.drain(..) {
            self.raw_ms.push(ms);
            self.scaled_ms.push(ms * GAUGE_REF_MS / g);
        }
        self.pending_ms = 0.0;
    }

    /// Gauge-rescaled time of everything recorded, ms. Call after
    /// [`Self::flush`].
    pub fn scaled_total_ms(&self) -> f64 {
        self.scaled_ms.iter().sum()
    }
}

/// Sets the end-to-end host-time metrics from a run's step and set-up
/// clocks (flushed), keeping the raw figures in the detail output.
pub fn report_end_to_end(
    rec: &mut Record,
    particles: usize,
    steps: &HostClock,
    setups: &HostClock,
) {
    let n = steps.scaled_ms.len();
    let throughput = |total_ms: f64| (particles * n) as f64 / (total_ms / 1e3);
    rec.set("particle_steps_per_s", throughput(steps.scaled_total_ms()));
    rec.set("step_ms_p50", median(&steps.scaled_ms));
    rec.set("setup_s", median(&setups.scaled_ms) / 1e3);
    rec.samples.push(("steps_timed", n as u64));
    rec.samples.push(("setups", setups.scaled_ms.len() as u64));
    rec.samples
        .push(("gauge_readings", steps.gauge_ms.len() as u64));
    rec.detail.push(("particles", Json::U64(particles as u64)));
    rec.detail
        .push(("step_ms", timing_detail(&steps.scaled_ms)));
    rec.detail
        .push(("setup_ms", timing_detail(&setups.scaled_ms)));
    rec.detail
        .push(("gauge_ms", timing_detail(&steps.gauge_ms)));
    rec.detail.push((
        "raw_particle_steps_per_s",
        Json::F64(throughput(steps.raw_ms.iter().sum())),
    ));
    rec.detail
        .push(("raw_step_ms", timing_detail(&steps.raw_ms)));
    rec.detail
        .push(("raw_setup_ms", timing_detail(&setups.raw_ms)));
}
