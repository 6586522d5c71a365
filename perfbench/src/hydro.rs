//! The `hydro-fast` and `hydro-metered` workloads: `Simulation` on the
//! paper's test problem at 2×8³ particles, Frontier, the `Select`
//! variant, two scheduler threads, stepping back to back.
//!
//! A trajectory is one freshly built simulation run through all of its
//! long steps; a run repeats trajectories until its measuring time is
//! up, so every run has several set-up samples and every timed step
//! belongs to a trajectory whose final digest is checked. The reference
//! digest comes from the same seed under the other meter policy — the
//! program's fast ≡ metered contract.
//!
//! The traced run cannot open spans inside `Simulation::step`, so for
//! each step it first replays the step's layer calls itself, on a copy
//! of the simulation's public state and in `try_step`'s order, inside
//! benchmark spans; then it advances the real simulation with
//! `Simulation::try_step`. The replay must land on the real step's
//! state bit for bit, which checks that it made the same calls.

use crate::calib::{self, GravityProbe};
use crate::clock::{report_end_to_end, HostClock, GAUGE_REF_MS};
use crate::report::{median, peak_rss_mib, timing_detail, Json, Record};
use crate::trace::{self, STEP_SPAN};
use crate::{Args, POOL_THREADS};
use hacc_core::{DeviceConfig, SimConfig, Simulation, Species};
use hacc_cosmo::{z_to_a, Friedmann};
use hacc_kernels::{
    run_gravity_with_policy, run_hydro_step_with_policy, DeviceParticles, GravityParams,
    HostParticles, Variant, WorkLists,
};
use hacc_mesh::{cic, ForceSplit, PoissonConfig, PoissonSolver, PolyShortRange};
use hacc_telemetry::{Recorder, Span};
use hacc_tree::{InteractionList, RcbTree};
use std::time::Instant;
use sycl_sim::{ExecutionPolicy, GpuArch, GrfMode, Lang, LaunchError, MeterPolicy};

/// Long steps per trajectory (the paper's problem takes five; more
/// steps amortise set-up over more timed work).
pub const STEPS: usize = 8;

/// Hydro pair kernels per sub-cycle (the seven CRK brackets); gravity
/// adds one more.
const HYDRO_PAIR_KERNELS: u64 = 7;

/// Sampled steps whose spans go into the Chrome trace file.
const TRACE_FILE_STEPS: usize = 2;

fn config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_test_problem(64);
    c.n_steps = STEPS;
    c.seed = seed;
    c
}

/// The quickstart's Frontier build: SYCL, `Select`, sub-group 64.
fn device_config() -> DeviceConfig {
    DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(64),
        grf: GrfMode::Default,
    }
}

fn build(seed: u64, meter: MeterPolicy) -> Simulation {
    let mut sim = Simulation::new(config(seed), device_config(), GpuArch::frontier());
    sim.set_execution_policy(ExecutionPolicy::with_threads(POOL_THREADS));
    sim.set_meter_policy(meter);
    sim.set_async(false);
    sim
}

/// Runs the seed's reference trajectory under `meter`; returns its final
/// digest and modeled device seconds per step.
fn reference(seed: u64, meter: MeterPolicy) -> Result<(u64, f64), LaunchError> {
    let mut sim = build(seed, meter);
    for _ in 0..STEPS {
        sim.try_step()?;
    }
    Ok((sim.state_digest(), sim.summary().gpu_seconds / STEPS as f64))
}

/// One finished (or aborted) trajectory of the measured window.
struct Trajectory {
    steps_ok: usize,
    digest: u64,
    modeled_per_step: f64,
}

pub fn run(args: &Args, meter: MeterPolicy) -> Record {
    let mut rec = Record::default();
    let other = match meter {
        MeterPolicy::Off => MeterPolicy::Full,
        _ => MeterPolicy::Off,
    };
    // Warm-up: one untimed step fills allocator and pool caches.
    build(args.seed, meter).step();

    let mut trajectories = Vec::new();
    let window = Instant::now();
    if args.trace {
        traced_window(args, meter, &mut rec, &mut trajectories, window);
    } else {
        timed_window(args, meter, &mut rec, &mut trajectories, window);
    }
    rec.set("peak_rss_mib", peak_rss_mib());

    // The reference runs after the window so its memory and time stay
    // out of every metric.
    match reference(args.seed, other) {
        Ok((digest, modeled)) => {
            rec.digest = format!("{digest:016x}");
            judge(&mut rec, &trajectories, digest, meter, other);
            // Under `MeterPolicy::Off` the program charges only transfer
            // time; the modeled seconds of the seed's trajectory are
            // those of the metered run, so the fast workload reports its
            // metered reference and keeps the fast path's own figure in
            // the detail output.
            let metered = match meter {
                MeterPolicy::Off => modeled,
                _ => trajectories.first().map_or(0.0, |t| t.modeled_per_step),
            };
            rec.modeled_ref_s = metered;
            rec.set("modeled_device_s", metered);
            let own = trajectories.first().map_or(0.0, |t| t.modeled_per_step);
            rec.detail
                .push(("modeled_device_s_own_path", Json::F64(own)));
        }
        Err(e) => {
            rec.check(
                "reference_runs",
                false,
                format!("reference trajectory failed: {e}"),
            );
            rec.failed = rec.attempted;
        }
    }
    rec
}

/// Compares every trajectory against the reference digest and the
/// modeled seconds between trajectories; a mismatching trajectory
/// fails all its steps.
fn judge(
    rec: &mut Record,
    trajectories: &[Trajectory],
    reference: u64,
    meter: MeterPolicy,
    other: MeterPolicy,
) {
    let mut mismatched = 0;
    for t in trajectories {
        // An aborted trajectory cannot reach the reference state; its
        // failing step is already counted.
        if t.steps_ok < STEPS || t.digest != reference {
            mismatched += 1;
            rec.failed += t.steps_ok as u64;
        }
    }
    rec.check(
        "digest_matches_reference",
        mismatched == 0,
        format!(
            "{} of {} trajectories end on the {}-path digest {reference:016x}",
            trajectories.len() - mismatched,
            trajectories.len(),
            other.label()
        ),
    );
    let modeled_equal = trajectories
        .windows(2)
        .all(|w| w[0].modeled_per_step.to_bits() == w[1].modeled_per_step.to_bits());
    rec.check(
        "modeled_seconds_repeat",
        modeled_equal,
        format!(
            "modeled device seconds per step identical across {} {}-path trajectories",
            trajectories.len(),
            meter.label()
        ),
    );
}

/// Steps one trajectory through `per_step`, stopping at the first
/// error; returns the trajectory with the number of steps that
/// succeeded.
fn step_trajectory(
    sim: &mut Simulation,
    rec: &mut Record,
    mut per_step: impl FnMut(&mut Simulation) -> Result<(), String>,
) -> Trajectory {
    let mut steps_ok = 0;
    for _ in 0..STEPS {
        rec.attempted += 1;
        match per_step(sim) {
            Ok(()) => steps_ok += 1,
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
        modeled_per_step: sim.summary().gpu_seconds / STEPS as f64,
    }
}

/// The untraced window: end-to-end metrics only.
fn timed_window(
    args: &Args,
    meter: MeterPolicy,
    rec: &mut Record,
    trajectories: &mut Vec<Trajectory>,
    window: Instant,
) {
    let mut setups = HostClock::new(1);
    for _ in 0..crate::SETUP_SAMPLES {
        let t0 = Instant::now();
        drop(std::hint::black_box(build(args.seed, meter)));
        setups.record(t0.elapsed().as_secs_f64() * 1e3);
    }
    setups.flush();
    let mut steps = HostClock::new(POOL_THREADS);
    let mut n_particles = 0;
    let mut events = 0usize;
    while trajectories.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let mut sim = build(args.seed, meter);
        setups.record(t0.elapsed().as_secs_f64() * 1e3);
        setups.flush();
        n_particles = sim.n_particles();
        let t = step_trajectory(&mut sim, rec, |sim| {
            let t0 = Instant::now();
            sim.try_step().map_err(|e| e.to_string())?;
            steps.record(t0.elapsed().as_secs_f64() * 1e3);
            Ok(())
        });
        events += sim.telemetry.len();
        trajectories.push(t);
    }
    steps.flush();
    report_end_to_end(rec, n_particles, &steps, &setups);
    rec.samples
        .push(("trajectories", trajectories.len() as u64));
    rec.detail.push((
        "program_events_per_step",
        Json::F64(events as f64 / steps.raw_ms.len().max(1) as f64),
    ));
}

/// The traced window: per step, replay the step's layer calls twice
/// (inside benchmark spans, and without them) and then take the real
/// step; per-layer metrics come from the spanned replay.
fn traced_window(
    args: &Args,
    meter: MeterPolicy,
    rec: &mut Record,
    trajectories: &mut Vec<Trajectory>,
    window: Instant,
) {
    let spans = Recorder::new();
    let quiet = Recorder::new();
    let mut acc = LayerAccumulator::default();
    let mut trace_events = Vec::new();
    let mut probe: Option<GravityProbe> = None;
    let mut step_index = 0usize;
    let mut clock = HostClock::new(POOL_THREADS);
    while trajectories.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let mut sim = build(args.seed, meter);
        let ctx = ReplayCtx::new(&sim);
        let t = step_trajectory(&mut sim, rec, |sim| {
            let before = State::of(sim);
            let mut counts = Counts::default();
            let want_probe = probe.is_none();
            // Alternate which replay goes first so neither always runs
            // on warmer caches.
            let mut replays = [(true, 0.0, None), (false, 0.0, None)];
            if step_index % 2 == 1 {
                replays.swap(0, 1);
            }
            for (spanned, ms, out) in replays.iter_mut() {
                let (recorder, c) = if *spanned {
                    (&spans, Some(&mut counts))
                } else {
                    (&quiet, None)
                };
                let mut probe_slot = None;
                let t0 = Instant::now();
                let state = ctx
                    .replay_step(
                        sim,
                        before.clone(),
                        spanned.then_some(recorder),
                        recorder,
                        c,
                        (*spanned && want_probe).then_some(&mut probe_slot),
                    )
                    .map_err(|e| e.to_string())?;
                *ms = t0.elapsed().as_secs_f64() * 1e3;
                *out = Some(state);
                if probe_slot.is_some() {
                    probe = probe_slot;
                }
            }
            quiet.clear();
            let events_before = sim.telemetry.len();
            let t0 = Instant::now();
            sim.try_step().map_err(|e| e.to_string())?;
            let real = t0.elapsed().as_secs_f64() * 1e3;
            let after = State::of(sim);
            for (spanned, _, out) in &replays {
                if out.as_ref() != Some(&after) {
                    return Err(format!(
                        "the {} replay of step {} diverged from Simulation::try_step",
                        if *spanned { "spanned" } else { "unspanned" },
                        sim.step_count
                    ));
                }
            }
            // One native sweep over the captured gravity launch, right
            // after the step, so the interpretation factor compares
            // figures measured seconds apart.
            let native_ns_per_pair = probe.as_ref().map(calib::sweep_ns_per_pair);
            let events = spans.events();
            let (traced_ms, untraced_ms) = if replays[0].0 {
                (replays[0].1, replays[1].1)
            } else {
                (replays[1].1, replays[0].1)
            };
            let times = StepTimes {
                real_ms: real,
                traced_ms,
                untraced_ms,
                program_events: (sim.telemetry.len() - events_before) as f64,
                native_ns_per_pair,
            };
            acc.add_step(&events, &counts, times);
            if step_index < TRACE_FILE_STEPS {
                trace_events.extend(events);
            }
            spans.clear();
            step_index += 1;
            clock.record(real);
            Ok(())
        });
        trajectories.push(t);
    }
    clock.flush();
    rec.samples = vec![
        ("steps_traced", acc.steps as u64),
        ("trajectories", trajectories.len() as u64),
    ];
    rec.detail
        .push(("raw_real_step_ms", timing_detail(&clock.raw_ms)));
    rec.detail
        .push(("gauge_ms", timing_detail(&clock.gauge_ms)));
    let scale = GAUGE_REF_MS / median(&clock.gauge_ms);
    acc.finish(rec, scale);
    if let Some(p) = probe {
        check_calibration(rec, &p);
    }
    crate::write_trace(args, &trace::host_chrome_trace(&trace_events), rec);
}

/// Checks the native loop's accelerations against the kernel's.
fn check_calibration(rec: &mut Record, p: &GravityProbe) {
    let native = calib::haccmk_forces(p);
    let err = calib::max_relative_error(p, &native);
    // f32 sums over a few hundred neighbours in a different order, and
    // rsqrt against 1/(s·√s): agreement to 1e-4 of the largest
    // acceleration is what single precision allows here.
    rec.check(
        "haccmk_matches_upGrav",
        err <= 1e-4,
        format!("max |a_native − a_kernel| / max |a_kernel| = {err:.3e} (limit 1e-4)"),
    );
    rec.detail.push(("calib_max_rel_err", Json::F64(err)));
    rec.detail
        .push(("calib_ordered_pairs", Json::U64(p.ordered_pairs())));
}

/// Work counts the spanned replay records for one step.
#[derive(Default)]
struct Counts {
    leaf_pairs: u64,
    grav_pairs: u64,
    hydro_pairs: u64,
}

/// Timings of one traced step, in raw host ms.
struct StepTimes {
    /// The real `Simulation::try_step`.
    real_ms: f64,
    /// The replay inside benchmark spans.
    traced_ms: f64,
    /// The replay without them.
    untraced_ms: f64,
    /// Events the program recorded during the real step.
    program_events: f64,
    /// One native `haccmk` sweep, once the gravity launch is captured.
    native_ns_per_pair: Option<f64>,
}

/// Per-layer totals over the traced steps.
#[derive(Default)]
struct LayerAccumulator {
    steps: usize,
    self_ns: std::collections::BTreeMap<&'static str, u64>,
    leaf_pairs: u64,
    grav_pairs: u64,
    hydro_pairs: u64,
    steals: f64,
    barrier_wait_ns: f64,
    instructions: u64,
    program_events: f64,
    coverage: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    native_ns_per_pair: Vec<f64>,
    /// Per step: `upGrav` ns per pair ÷ native ns per pair.
    interp_factor: Vec<f64>,
}

impl LayerAccumulator {
    fn add_step(&mut self, events: &[hacc_telemetry::Event], counts: &Counts, t: StepTimes) {
        let layers = trace::layer_self_ns(events, "core.host_phases_ms");
        if let Some(native) = t.native_ns_per_pair {
            let upgrav = layers.get("kernels.upGrav_ms").copied().unwrap_or(0) as f64
                / counts.grav_pairs.max(1) as f64;
            self.native_ns_per_pair.push(native);
            self.interp_factor.push(upgrav / native);
        }
        let covered: u64 = layers.values().sum();
        for (k, v) in layers {
            *self.self_ns.entry(k).or_default() += v;
        }
        self.coverage.push(covered as f64 / 1e6 / t.real_ms);
        self.traced_ms.push(t.traced_ms);
        self.untraced_ms.push(t.untraced_ms);
        self.leaf_pairs += counts.leaf_pairs;
        self.grav_pairs += counts.grav_pairs;
        self.hydro_pairs += counts.hydro_pairs;
        self.steals += trace::counter_sum(events, "sched.steals");
        self.barrier_wait_ns += trace::counter_sum(events, "sched.barrier_wait_ns");
        self.instructions += trace::metered_instructions(events);
        self.program_events += t.program_events;
        self.steps += 1;
    }

    fn per_step(&self, total: f64) -> f64 {
        total / self.steps.max(1) as f64
    }

    /// Sets the per-layer metrics; `scale` rescales host time to the
    /// nominal host (see `clock`).
    fn finish(&self, rec: &mut Record, scale: f64) {
        let mut kernel_ns = 0u64;
        for (&layer, &ns) in &self.self_ns {
            rec.set(layer, scale * self.per_step(ns as f64) / 1e6);
            if layer.starts_with("kernels.up") {
                kernel_ns += ns;
            }
        }
        let pairs = self.grav_pairs + HYDRO_PAIR_KERNELS * self.hydro_pairs;
        rec.set("kernels.pairs", self.per_step(pairs as f64));
        rec.set(
            "kernels.ns_per_pair",
            scale * kernel_ns as f64 / pairs.max(1) as f64,
        );
        rec.set("tree.leaf_pairs", self.per_step(self.leaf_pairs as f64));
        rec.set("sycl.sched.steals", self.per_step(self.steals));
        rec.set(
            "sycl.sched.barrier_wait_ms",
            scale * self.per_step(self.barrier_wait_ns) / 1e6,
        );
        rec.set(
            "sycl.metered_instructions",
            self.per_step(self.instructions as f64),
        );
        rec.set(
            "telemetry.events_per_step",
            self.per_step(self.program_events),
        );
        rec.set("layer_coverage", median(&self.coverage));
        // Both sides of the factor are raw host time; the calibration is
        // the host's own native speed, so it is reported raw too.
        rec.set("calib.haccmk_ns_per_pair", median(&self.native_ns_per_pair));
        rec.set("kernels.upGrav.interp_factor", median(&self.interp_factor));
        rec.set(
            "trace_overhead_ratio",
            median(&self.traced_ms) / median(&self.untraced_ms),
        );
        rec.detail
            .push(("traced_replay_ms", timing_detail(&self.traced_ms)));
        rec.detail
            .push(("untraced_replay_ms", timing_detail(&self.untraced_ms)));
    }
}

/// The mutable particle state a step advances.
#[derive(Clone, PartialEq)]
struct State {
    pos: Vec<[f64; 3]>,
    mom: Vec<[f64; 3]>,
    u_int: Vec<f64>,
    h: Vec<f64>,
    star_mass: Vec<f64>,
    a: u64,
}

impl State {
    fn of(sim: &Simulation) -> Self {
        Self {
            pos: sim.pos.clone(),
            mom: sim.mom.clone(),
            u_int: sim.u_int.clone(),
            h: sim.h.clone(),
            star_mass: sim.star_mass.clone(),
            a: sim.a.to_bits(),
        }
    }
}

/// Opens a span when tracing is on.
fn span(rec: Option<&Recorder>, name: &str) -> Option<Span> {
    rec.map(|r| r.span(name))
}

/// The host-side solvers the replay needs. `Simulation` keeps its own
/// private; these are built from the same configuration, so they compute
/// the same values.
struct ReplayCtx {
    poisson: PoissonSolver,
    dims: hacc_fft::Dims,
    poly: PolyShortRange,
    friedmann: Friedmann,
}

impl ReplayCtx {
    fn new(sim: &Simulation) -> Self {
        assert!(
            !sim.tuning_enabled() && !sim.is_async() && sim.subgrid.is_none() && sim.enable_hydro,
            "the replay covers the plain hydro step only"
        );
        let c = &sim.config;
        let split = ForceSplit::new(c.r_split_cells, c.r_cut_cells);
        let dims = hacc_fft::Dims::cube(c.box_spec.ng);
        Self {
            poisson: PoissonSolver::new(
                dims,
                PoissonConfig {
                    deconvolve_cic: true,
                    split: Some(split),
                },
            ),
            dims,
            poly: PolyShortRange::fit(split, 5),
            friedmann: Friedmann::new(c.cosmo),
        }
    }

    /// The PM long-range accelerations, split into deposit, Poisson
    /// solve and interpolation (`PmSolver::accelerations`).
    fn pm_forces(&self, st: &State, mass: &[f64], rec: Option<&Recorder>) -> Vec<[f64; 3]> {
        let mut density = vec![0.0; self.dims.len()];
        {
            let _s = span(rec, "mesh.cic");
            cic::deposit(self.dims, &st.pos, mass, &mut density);
            let mean = mass.iter().sum::<f64>() / self.dims.len() as f64;
            for v in &mut density {
                *v = *v / mean - 1.0;
            }
        }
        let force = {
            let _s = span(rec, "mesh.poisson");
            self.poisson.force(&density)
        };
        let _s = span(rec, "mesh.interp");
        let mut out = vec![[0.0; 3]; st.pos.len()];
        cic::interpolate_vec3(
            self.dims,
            [&force[0], &force[1], &force[2]],
            &st.pos,
            &mut out,
        );
        out
    }

    /// Tree and interaction list for a particle subset.
    fn lists(
        &self,
        sim: &Simulation,
        pos: &[[f64; 3]],
        rec: Option<&Recorder>,
    ) -> (RcbTree, InteractionList) {
        let max_leaf = sim
            .config
            .max_leaf
            .unwrap_or(sim.variant.preferred_leaf_capacity(sim.launch.sg_size));
        let tree = {
            let _s = span(rec, "tree.rcb");
            RcbTree::build(pos, max_leaf)
        };
        let list = {
            let _s = span(rec, "tree.list");
            InteractionList::build(&tree, sim.config.box_spec.ng as f64, sim.config.r_cut_cells)
        };
        (tree, list)
    }

    fn work_lists(
        sim: &Simulation,
        tree: &RcbTree,
        list: &InteractionList,
        rec: Option<&Recorder>,
    ) -> WorkLists {
        let _s = span(rec, "kernels.worklist");
        WorkLists::build(tree, list, sim.launch.sg_size)
    }

    /// Short-range gravity on every particle (`device_gravity`).
    fn gravity(
        &self,
        sim: &Simulation,
        st: &State,
        rec: Option<&Recorder>,
        krec: &Recorder,
        counts: Option<&mut Counts>,
        probe: Option<&mut Option<GravityProbe>>,
    ) -> Result<Vec<[f64; 3]>, LaunchError> {
        let n = st.pos.len();
        let pos = st.pos.clone();
        let (tree, list) = self.lists(sim, &pos, rec);
        let work = Self::work_lists(sim, &tree, &list, rec);
        let grav_prefactor = 1.0 / (4.0 * std::f64::consts::PI);
        let hp = HostParticles {
            pos,
            vel: vec![[0.0; 3]; n],
            mass: sim.mass.iter().map(|m| m * grav_prefactor).collect(),
            h: vec![1.0; n],
            u: vec![0.0; n],
        }
        .permuted(&tree.order);
        let data = {
            let _s = span(rec, "kernels.xfer");
            DeviceParticles::upload(&hp)
        };
        let box_size = sim.config.box_spec.ng as f32;
        let params = GravityParams {
            poly: std::array::from_fn(|i| self.poly.coeffs[i] as f32),
            r_cut2: (sim.config.r_cut_cells * sim.config.r_cut_cells) as f32,
            soft2: 1e-4,
        };
        {
            let _s = span(rec, "kernels.launch");
            run_gravity_with_policy(
                &sim.device,
                &data,
                &work,
                sim.variant,
                box_size,
                params,
                sim.launch,
                krec,
                &sim.launch_policy,
            )?;
        }
        let acc = {
            let _s = span(rec, "kernels.xfer");
            data.download_vec3(&data.acc_grav)
        };
        if let Some(c) = counts {
            let leaves = leaf_ranges(&tree);
            c.leaf_pairs += list.len() as u64;
            c.grav_pairs += calib::ordered_pairs(&leaves, &leaf_pairs(&list));
            if let Some(slot) = probe {
                *slot = Some(GravityProbe {
                    pos: hp
                        .pos
                        .iter()
                        .map(|p| [p[0] as f32, p[1] as f32, p[2] as f32])
                        .collect(),
                    mass: hp.mass.iter().map(|&m| m as f32).collect(),
                    leaves,
                    pairs: leaf_pairs(&list),
                    poly: params.poly,
                    r_cut2: params.r_cut2,
                    soft2: params.soft2,
                    box_size,
                    kernel_acc: acc.clone(),
                });
            }
        }
        let mut out = vec![[0.0f64; 3]; n];
        for (slot, &pi) in tree.order.iter().enumerate() {
            out[pi as usize] = [
                acc[slot][0] as f64,
                acc[slot][1] as f64,
                acc[slot][2] as f64,
            ];
        }
        Ok(out)
    }

    /// CRK hydro on the baryons (`device_hydro` without sub-grid
    /// physics): acceleration, du/dt and new smoothing lengths.
    #[allow(clippy::type_complexity)]
    fn hydro(
        &self,
        sim: &Simulation,
        st: &State,
        idx: &[usize],
        rec: Option<&Recorder>,
        krec: &Recorder,
        counts: Option<&mut Counts>,
    ) -> Result<(Vec<[f64; 3]>, Vec<f64>, Vec<f64>), LaunchError> {
        let pos: Vec<[f64; 3]> = idx.iter().map(|&i| st.pos[i]).collect();
        let (tree, list) = self.lists(sim, &pos, rec);
        let a2 = f64::from_bits(st.a) * f64::from_bits(st.a);
        let hp = HostParticles {
            pos,
            vel: idx
                .iter()
                .map(|&i| [st.mom[i][0] / a2, st.mom[i][1] / a2, st.mom[i][2] / a2])
                .collect(),
            mass: idx.iter().map(|&i| sim.mass[i]).collect(),
            h: idx.iter().map(|&i| st.h[i]).collect(),
            u: idx.iter().map(|&i| st.u_int[i].max(1e-12)).collect(),
        }
        .permuted(&tree.order);
        let data = {
            let _s = span(rec, "kernels.xfer");
            DeviceParticles::upload(&hp)
        };
        let work = Self::work_lists(sim, &tree, &list, rec);
        {
            let _s = span(rec, "kernels.launch");
            run_hydro_step_with_policy(
                &sim.device,
                &data,
                &work,
                sim.variant,
                sim.config.box_spec.ng as f32,
                sim.launch,
                krec,
                &sim.launch_policy,
            )?;
        }
        let (acc, vol, du) = {
            let _s = span(rec, "kernels.xfer");
            (
                data.download_vec3(&data.acc),
                data.volume.to_f32_vec(),
                data.du_dt.to_f32_vec(),
            )
        };
        if let Some(c) = counts {
            c.leaf_pairs += list.len() as u64;
            c.hydro_pairs += calib::ordered_pairs(&leaf_ranges(&tree), &leaf_pairs(&list));
        }
        let n = idx.len();
        let cool = 0.0f32;
        let mut acc_out = vec![[0.0f64; 3]; n];
        let mut du_out = vec![0.0f64; n];
        let mut h_out = vec![0.0f64; n];
        let cfg = &sim.config;
        let h0 = cfg.eta_smoothing * cfg.box_spec.ng as f64 / cfg.box_spec.np as f64;
        for (slot, &pi) in tree.order.iter().enumerate() {
            let pi = pi as usize;
            acc_out[pi] = [
                acc[slot][0] as f64,
                acc[slot][1] as f64,
                acc[slot][2] as f64,
            ];
            du_out[pi] = du[slot] as f64 + cool as f64;
            let v = (vol[slot] as f64).max(1e-30);
            h_out[pi] = (cfg.eta_smoothing * v.cbrt()).clamp(0.5 * h0, cfg.r_cut_cells / 2.0);
        }
        Ok((acc_out, du_out, h_out))
    }

    /// One long step in `Simulation::try_step`'s order, on a copy of the
    /// state. `rec` receives the benchmark's spans (none when `None`);
    /// `krec` receives the program's own kernel spans and counters.
    fn replay_step(
        &self,
        sim: &Simulation,
        mut st: State,
        rec: Option<&Recorder>,
        krec: &Recorder,
        mut counts: Option<&mut Counts>,
        mut probe: Option<&mut Option<GravityProbe>>,
    ) -> Result<State, LaunchError> {
        let _step = span(rec, STEP_SPAN);
        let c = &sim.config;
        let f = &self.friedmann;
        let schedule = f.step_schedule(z_to_a(c.z_init), z_to_a(c.z_final), c.n_steps);
        let (a0, a1) = (schedule[sim.step_count], schedule[sim.step_count + 1]);
        let coupling = 1.5 * c.cosmo.omega_m;
        let kick_long = f.kick_factor(a0, a1);
        let pm_force = self.pm_forces(&st, &sim.mass, rec);
        for (m, f) in st.mom.iter_mut().zip(&pm_force) {
            for k in 0..3 {
                m[k] += 0.5 * coupling * f[k] * kick_long;
            }
        }
        let nc = sim.adaptive_sub_cycles.max(c.sub_cycles);
        let baryons: Vec<usize> = (0..st.pos.len())
            .filter(|&i| sim.species[i] == Species::Baryon)
            .collect();
        for s in 0..nc {
            let as0 = a0 + (a1 - a0) * s as f64 / nc as f64;
            let as1 = a0 + (a1 - a0) * (s + 1) as f64 / nc as f64;
            st.a = as0.to_bits();
            let kick = f.kick_factor(as0, as1);
            let drift = f.drift_factor(as0, as1);
            let dt_proper = f.time_between(as0, as1);
            let g = self.gravity(sim, &st, rec, krec, counts.as_deref_mut(), probe.take())?;
            for (i, g) in g.iter().enumerate() {
                for k in 0..3 {
                    st.mom[i][k] += coupling * g[k] * kick;
                }
            }
            if !baryons.is_empty() {
                let (acc, du, h_new) =
                    self.hydro(sim, &st, &baryons, rec, krec, counts.as_deref_mut())?;
                let a2 = as0 * as0;
                for (k, &i) in baryons.iter().enumerate() {
                    for d in 0..3 {
                        st.mom[i][d] += a2 * acc[k][d] * dt_proper;
                    }
                    st.u_int[i] = (st.u_int[i] + du[k] * dt_proper).max(0.0);
                    st.h[i] = h_new[k];
                }
            }
            let ng = c.box_spec.ng as f64;
            for (p, m) in st.pos.iter_mut().zip(&st.mom) {
                for k in 0..3 {
                    p[k] = (p[k] + m[k] * drift).rem_euclid(ng);
                }
            }
            st.a = as1.to_bits();
        }
        let pm_force = self.pm_forces(&st, &sim.mass, rec);
        for (m, f) in st.mom.iter_mut().zip(&pm_force) {
            for k in 0..3 {
                m[k] += 0.5 * coupling * f[k] * kick_long;
            }
        }
        st.a = a1.to_bits();
        Ok(st)
    }
}

/// Slot range of every tree leaf, in leaf order.
fn leaf_ranges(tree: &RcbTree) -> Vec<(usize, usize)> {
    tree.leaves
        .iter()
        .map(|&ni| (tree.nodes[ni].start, tree.nodes[ni].end))
        .collect()
}

fn leaf_pairs(list: &InteractionList) -> Vec<(usize, usize)> {
    list.pairs
        .iter()
        .map(|p| (p.a as usize, p.b as usize))
        .collect()
}
