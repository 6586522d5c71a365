//! The distributed multi-rank execution engine.
//!
//! CRK-HACC's node-level structure — 8 ranks per node, each owning a
//! rectangular subdomain plus an *overload* (ghost) zone one kernel
//! support radius deep — reproduced over the in-process transport.
//! Every step runs the production communication schedule:
//!
//! 1. **migrate** — particles that drifted across a domain face are
//!    shipped to their new owner;
//! 2. **post** — each rank posts halo copies of its boundary particles
//!    to every neighbor whose expanded domain reaches them;
//! 3. **compute interior** — particles at least `r_cut` from every
//!    face need no ghosts, so their forces run while the halo
//!    exchange is in flight (this is the comm/compute overlap the
//!    sweep measures);
//! 4. **wait + compute boundary** — once its neighbors' halos are
//!    delivered, each rank finishes the remaining particles against
//!    the ghosts;
//! 5. **kick/drift + allreduce** — local update, then a deterministic
//!    global reduction for diagnostics.
//!
//! The phases are per-rank tasks of one task graph
//! ([`MultiRankSim::step`]). The barriered and async schedules differ
//! only in the phase-barrier edges and in the modeled timeline they
//! report.
//!
//! Determinism is bit-exact by construction at *any* rank count and
//! any thread count: rank state is kept sorted by global particle id,
//! ghost inboxes are delivered `(src, seq)`-sorted and re-sorted by
//! id, and every force accumulates in `f64` over neighbors in
//! ascending-id order. A particle's neighbor set within `r_cut` is
//! identical whether its neighbors are owned or ghosts, so the
//! 8-rank run reproduces the single-rank bits exactly — the
//! distributed analogue of the PR 3 parallel-commit replay rule.
//!
//! Wall-clock per rank comes from a mechanistic cost model (pair count
//! × per-pair cost at the architecture's de-rated fp32 peak, plus the
//! interconnect's α–β message costs), so scaling sweeps are both
//! reproducible and architecture-differentiated.

use crate::checkpoint::CheckpointError;
use crate::distckpt::{MultiRankCheckpoint, RankSnapshot};
use crate::rank::{NodeMapping, RankLayout};
use hacc_comm::{
    CommError, ExchangeReport, Interconnect, ParticleBatch, Tag, Transport, TransportStats,
};
use hacc_telemetry::Recorder;
use hacc_tree::min_image;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use sycl_sim::{FaultConfig, GpuArch, ResourceId, RunError, TaskGraph};

/// Modeled flops per neighbor-pair interaction (distance, softened
/// inverse-cube, accumulate).
const PAIR_FLOPS: f64 = 38.0;
/// Modeled flops per particle per step outside the pair loop (kick,
/// drift, wrap).
const PARTICLE_FLOPS: f64 = 24.0;
/// Fraction of fp32 peak a memory-bound short-range kernel sustains.
const PAIR_EFFICIENCY: f64 = 0.12;

/// Problem definition for the multi-rank engine.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MultiRankProblem {
    /// Periodic box side in grid units.
    pub ng: usize,
    /// Total particle count across all ranks.
    pub n_particles: usize,
    /// Seed for the deterministic initial conditions.
    pub seed: u64,
    /// Interaction cutoff = ghost-zone depth, in grid units. Must not
    /// exceed the narrowest rank domain (the 27-neighborhood rule).
    pub r_cut: f64,
    /// Step size in internal time units.
    pub dt: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Cost-model work multiplier: each sweep particle stands in for
    /// this many production particles' worth of pair work. Production
    /// ranks hold millions of particles where compute dominates the
    /// interconnect latency; CI problems hold hundreds, which would be
    /// pure-latency-bound and make every scaling curve degenerate.
    /// Scaling the modeled (not executed) flops restores the paper's
    /// regime without inflating test runtimes. Physics is unaffected.
    pub work_scale: f64,
}

impl MultiRankProblem {
    /// A small pinned problem for tests and the CI sweep.
    pub fn small(n_particles: usize, seed: u64) -> Self {
        Self {
            ng: 16,
            n_particles,
            seed,
            r_cut: 2.0,
            dt: 0.05,
            eps: 0.05,
            work_scale: 16384.0,
        }
    }

    /// Rescales the periodic box (weak-scaling sweeps grow the box
    /// with the rank count to hold density constant).
    pub fn with_ng(mut self, ng: usize) -> Self {
        self.ng = ng;
        self
    }
}

/// Per-rank particle store, always sorted by global id: the same
/// structure of arrays the transport puts on the wire.
type RankState = ParticleBatch;

/// Restores ascending-id order after absorbing immigrants or ghosts.
fn sort_by_id(state: &mut RankState) {
    let mut order: Vec<usize> = (0..state.len()).collect();
    order.sort_by_key(|&k| state.ids[k]);
    let mut sorted = RankState::default();
    for k in order {
        sorted.push_from(state, k);
    }
    *state = sorted;
}

/// One step's accounting for one rank.
#[derive(Clone, Debug, Serialize)]
pub struct RankStepStats {
    /// Rank id.
    pub rank: usize,
    /// Particles owned after migration.
    pub owned: usize,
    /// Ghost particles received this step.
    pub ghosts: usize,
    /// In-cutoff pairs evaluated in the interior (overlappable) phase.
    pub interior_pairs: u64,
    /// In-cutoff pairs evaluated in the boundary phase.
    pub boundary_pairs: u64,
    /// Modeled seconds of interior compute.
    pub interior_seconds: f64,
    /// Modeled seconds of boundary compute.
    pub boundary_seconds: f64,
    /// Modeled seconds of halo communication incident on this rank.
    pub halo_seconds: f64,
    /// Modeled seconds of migration communication incident on this rank.
    pub migrate_seconds: f64,
    /// Wire bytes this rank sent (halo + migration).
    pub bytes_sent: u64,
    /// Halo seconds hidden behind interior compute.
    pub overlap_seconds: f64,
    /// Modeled step wall-clock for this rank:
    /// `migrate + max(halo, interior) + boundary`.
    pub step_seconds: f64,
    /// Idle seconds this rank's processor spends waiting on other
    /// ranks. Under the barriered schedule (the step graph plus its
    /// phase-barrier edges) this is barrier idle — node seconds minus
    /// this rank's step, the time pinned at the global join. Under the
    /// async schedule the graph has no such join (the scheduler feeds
    /// an early-finishing rank its next ready task), so this is the
    /// in-step message stall instead, from per-source readiness: idle
    /// before the migrate absorb plus idle before boundary compute
    /// while neighbors' ghosts are still in flight.
    pub wait_seconds: f64,
}

/// One step's accounting across all ranks.
#[derive(Clone, Debug, Serialize)]
pub struct StepStats {
    /// Step index (1-based, after the step completed).
    pub step: u64,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankStepStats>,
    /// Modeled node step time: the slowest rank.
    pub node_seconds: f64,
    /// Total wire bytes moved this step.
    pub bytes: u64,
    /// Particles that changed owner this step.
    pub migrated: u64,
    /// Fraction of halo seconds hidden behind interior compute,
    /// aggregated over ranks (0 when no halo traffic).
    pub overlap_fraction: f64,
    /// Total kinetic energy after the step (deterministic rank-order
    /// allreduce; diagnostic, not part of the state digest).
    pub kinetic_energy: f64,
}

/// The distributed engine: `ranks` domains advancing concurrently on
/// the rayon pool, communicating through the transport.
pub struct MultiRankSim {
    /// Domain decomposition.
    pub layout: RankLayout,
    /// Architecture whose device and interconnect are modeled.
    pub arch: GpuArch,
    problem: MultiRankProblem,
    transport: Transport,
    recorder: Option<Recorder>,
    /// The injector configuration, kept so a rebuilt transport (shrink
    /// recovery re-sizes the communicator) re-attaches the same faults.
    fault_config: Option<FaultConfig>,
    states: Vec<RankState>,
    step_count: u64,
    /// When true, [`Self::step`] leaves out the phase-barrier edges and
    /// reports the per-source readiness timeline.
    async_step: bool,
    /// Seconds per in-cutoff pair on this architecture.
    pair_seconds: f64,
    /// Seconds per particle per step outside the pair loop.
    particle_seconds: f64,
}

/// splitmix64: the deterministic IC hash.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a hash stream.
fn unit(seed: u64, id: u64, channel: u64) -> f64 {
    (hash64(seed ^ hash64(id ^ hash64(channel))) >> 11) as f64 / (1u64 << 53) as f64
}

impl MultiRankSim {
    /// Builds the engine: deterministic initial conditions (identical
    /// for every rank count), partitioned over a 3D [`RankLayout`],
    /// with the architecture's interconnect behind the transport.
    pub fn new(ranks: usize, arch: GpuArch, problem: MultiRankProblem) -> Self {
        let layout = RankLayout::new(ranks, problem.ng);
        assert!(
            problem.r_cut <= layout.min_domain_width() + 1e-12,
            "r_cut {} exceeds the narrowest rank domain {} — the 27-neighborhood \
             halo cannot serve it",
            problem.r_cut,
            layout.min_domain_width()
        );
        let mapping = NodeMapping::for_arch(&arch).expect("paper architectures all have mappings");
        let peak = arch.fp32_peak_tflops * 1e12 * PAIR_EFFICIENCY
            / (mapping.sharing_penalty() * problem.work_scale.max(1.0));
        let transport = Transport::new(ranks, Interconnect::for_arch(&arch));

        let mut states: Vec<RankState> = vec![RankState::default(); ranks];
        let ng = problem.ng as f64;
        for id in 0..problem.n_particles as u64 {
            let pos = [
                unit(problem.seed, id, 0) * ng,
                unit(problem.seed, id, 1) * ng,
                unit(problem.seed, id, 2) * ng,
            ];
            let mom = [
                (unit(problem.seed, id, 3) - 0.5) * 0.2,
                (unit(problem.seed, id, 4) - 0.5) * 0.2,
                (unit(problem.seed, id, 5) - 0.5) * 0.2,
            ];
            let mass = 0.5 + unit(problem.seed, id, 6);
            let h = 0.5 * problem.r_cut;
            let u = unit(problem.seed, id, 7) * 1e-3;
            states[layout.rank_of(&pos)].push(id, pos, mom, mass, h, u);
        }
        // Generation order is id order, so each state is already sorted.

        Self {
            layout,
            arch,
            problem,
            transport,
            recorder: None,
            fault_config: None,
            states,
            step_count: 0,
            async_step: std::env::var("HACC_ASYNC")
                .map(|v| v == "1")
                .unwrap_or(false),
            pair_seconds: PAIR_FLOPS / peak,
            particle_seconds: PARTICLE_FLOPS / peak,
        }
    }

    /// Switches between the barriered and the async schedule (also
    /// selectable at construction with `HACC_ASYNC=1`). Both run the
    /// same step graph; this chooses only whether the phase-barrier
    /// edges are added and which modeled timeline fills
    /// [`RankStepStats`] — the global join or per-source readiness.
    /// Particle state and [`TransportStats`] are bit-identical across
    /// the two.
    pub fn set_async(&mut self, on: bool) {
        self.async_step = on;
    }

    /// True when steps run without the phase-barrier edges.
    pub fn is_async(&self) -> bool {
        self.async_step
    }

    /// Routes link faults through a seeded injector.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.fault_config = Some(config.clone());
        self.transport.enable_fault_injection(config);
    }

    /// The injector configuration, if fault injection is enabled.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault_config.as_ref()
    }

    /// The problem definition the engine was built with.
    pub fn problem(&self) -> &MultiRankProblem {
        &self.problem
    }

    /// Emits telemetry into the recorder: per-message comm charges from
    /// the transport, plus one `step` span per step holding a `rank.{r}`
    /// span per rank with the four modeled `phase.*` timers the
    /// analysis plane's critical-path pass consumes.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder.clone());
        self.transport.set_recorder(recorder);
    }

    /// The underlying transport (stats, injector log).
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// The attached recorder, if any.
    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Cumulative transport statistics.
    pub fn comm_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Total particles across ranks.
    pub fn n_particles(&self) -> usize {
        self.states.iter().map(RankState::len).sum()
    }

    /// Steps completed.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Particles owned by each rank.
    pub fn rank_populations(&self) -> Vec<usize> {
        self.states.iter().map(RankState::len).collect()
    }

    /// FNV-1a digest over the full particle state in ascending-id
    /// order — decomposition-invariant, so any rank count must produce
    /// the same value after the same number of steps.
    pub fn state_digest(&self) -> u64 {
        let mut refs: Vec<(&RankState, usize)> = Vec::new();
        for s in &self.states {
            for k in 0..s.len() {
                refs.push((s, k));
            }
        }
        refs.sort_by_key(|(s, k)| s.ids[*k]);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (s, k) in refs {
            eat(s.ids[k]);
            for c in 0..3 {
                eat(s.pos[k][c].to_bits());
                eat(s.mom[k][c].to_bits());
            }
            eat(s.mass[k].to_bits());
            eat(s.u[k].to_bits());
        }
        hash
    }

    /// Advances one step. The step is one task graph with five task
    /// kinds per rank: `mig.r` splits off emigrants and flushes them,
    /// `abs.r` absorbs immigrants, `post.r` flushes halo ghosts, `int.r`
    /// computes interior forces while the halos are on the wire, and
    /// `bnd.r` computes boundary forces against the ghosts, then kicks
    /// and drifts.
    ///
    /// Both schedules ([`Self::set_async`]) run this one graph. The
    /// barriered schedule adds phase-barrier edges: every `post.r` runs
    /// after every `abs.*`, and every `bnd.r` after every `post.*`. The
    /// async schedule leaves them out, so a rank whose 27-neighborhood
    /// has flushed starts its boundary compute while other ranks are
    /// still exchanging. The schedule also picks the modeled timeline
    /// that fills [`RankStepStats`].
    ///
    /// Particle bits and [`TransportStats`] are the same in both
    /// schedules and at any thread count. Each source's flush assigns
    /// the same `(src, seq)` stream whatever runs beside it, inbox
    /// takes sort canonically, every force accumulates in ascending-id
    /// order, and each phase's flush reports are committed to the
    /// transport ledger in ascending source order after the graph ran.
    pub fn step(&mut self) -> Result<StepStats, CommError> {
        let ranks = self.layout.ranks;
        let r_cut = self.problem.r_cut;
        let ng = self.problem.ng as f64;
        let dt = self.problem.dt;
        let eps = self.problem.eps;
        // Opened before the graph runs so every span its tasks emit
        // nests under it; closed when the method returns.
        let recorder = self.recorder.clone();
        let _step_span = recorder.as_ref().map(|r| r.span("step"));

        let layout = self.layout.clone();
        let transport = &self.transport;
        let states: Vec<Mutex<RankState>> = std::mem::take(&mut self.states)
            .into_iter()
            .map(Mutex::new)
            .collect();
        // Per-rank task outputs; each slot is written by exactly one
        // task, the locks never contend.
        let mig_out: Vec<Mutex<Option<(ExchangeReport, u64)>>> =
            (0..ranks).map(|_| Mutex::new(None)).collect();
        let halo_out: Vec<Mutex<Option<ExchangeReport>>> =
            (0..ranks).map(|_| Mutex::new(None)).collect();
        let int_out: Vec<Mutex<Option<(Vec<[f64; 3]>, Vec<bool>, u64)>>> =
            (0..ranks).map(|_| Mutex::new(None)).collect();
        let bnd_out: Vec<Mutex<Option<(u64, u64, usize)>>> =
            (0..ranks).map(|_| Mutex::new(None)).collect();

        let mut graph: TaskGraph<'_, CommError> = TaskGraph::new();
        let state_res: Vec<ResourceId> = (0..ranks)
            .map(|r| ResourceId::indexed("rank.state", r))
            .collect();
        let acc_res: Vec<ResourceId> = (0..ranks)
            .map(|r| ResourceId::indexed("rank.acc", r))
            .collect();

        // mig.r — split off particles whose drifted position now falls
        // in another domain, post them ascending-destination, flush
        // this source's wire. Writes state.r.
        let mut mig_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (states, mig_out, layout) = (&states, &mig_out, &layout);
            mig_ids.push(graph.add_task(
                format!("mig.{rank}"),
                &[],
                &[state_res[rank]],
                move || {
                    let mut state = states[rank].lock().unwrap();
                    let mut keep = RankState::default();
                    let mut outgoing: BTreeMap<usize, ParticleBatch> = BTreeMap::new();
                    let mut moved = 0u64;
                    for k in 0..state.len() {
                        let owner = layout.rank_of(&state.pos[k]);
                        if owner == rank {
                            keep.push_from(&state, k);
                        } else {
                            moved += 1;
                            outgoing.entry(owner).or_default().push_from(&state, k);
                        }
                    }
                    *state = keep;
                    drop(state);
                    for (dst, batch) in outgoing {
                        transport.send(rank, dst, Tag::Migrate, batch);
                    }
                    let report = transport.flush_source(rank)?;
                    *mig_out[rank].lock().unwrap() = Some((report, moved));
                    Ok(())
                },
            ));
        }

        // abs.r — absorb immigrants once every source has flushed.
        // Message arrival is a hazard the resource sets cannot see, so
        // the edges are explicit (migration may cross any face, so any
        // source is a potential sender). Writes state.r.
        let mut abs_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let states = &states;
            let id = graph.add_task(format!("abs.{rank}"), &[], &[state_res[rank]], move || {
                let msgs = transport.take_inbox_tagged(rank, Tag::Migrate);
                if !msgs.is_empty() {
                    let mut state = states[rank].lock().unwrap();
                    for msg in &msgs {
                        state.extend_from(&msg.batch);
                    }
                    sort_by_id(&mut state);
                }
                Ok(())
            });
            for &m in &mig_ids {
                graph
                    .add_dep(id, m)
                    .expect("migrate flushes precede absorbs in canonical order");
            }
            abs_ids.push(id);
        }

        // post.r — post halo copies of boundary particles to every
        // neighbor whose expanded domain reaches them, ascending
        // destination, and flush this source's wire. Reads state.r.
        let mut post_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (states, halo_out, layout) = (&states, &halo_out, &layout);
            post_ids.push(graph.add_task(
                format!("post.{rank}"),
                &[state_res[rank]],
                &[],
                move || {
                    let state = states[rank].lock().unwrap();
                    let mut outgoing: BTreeMap<usize, ParticleBatch> = BTreeMap::new();
                    for k in 0..state.len() {
                        for dst in layout.ghost_targets(&state.pos[k], r_cut) {
                            outgoing.entry(dst).or_default().push_from(&state, k);
                        }
                    }
                    drop(state);
                    for (dst, batch) in outgoing {
                        transport.send(rank, dst, Tag::Halo, batch);
                    }
                    let report = transport.flush_source(rank)?;
                    *halo_out[rank].lock().unwrap() = Some(report);
                    Ok(())
                },
            ));
        }

        // int.r — interior forces. A particle is interior when every
        // split dimension keeps it ≥ r_cut from both domain faces; its
        // whole interaction ball is then owned, so it needs no ghosts
        // and overlaps the halo wire. Reads state.r, writes acc.r.
        for rank in 0..ranks {
            let (states, int_out, layout) = (&states, &int_out, &layout);
            graph.add_task(
                format!("int.{rank}"),
                &[state_res[rank]],
                &[acc_res[rank]],
                move || {
                    let state = states[rank].lock().unwrap();
                    let (lo, hi) = layout.domain(rank);
                    let interior: Vec<bool> = (0..state.len())
                        .map(|k| {
                            (0..3).all(|d| {
                                layout.dims[d] == 1
                                    || (state.pos[k][d] - lo[d] >= r_cut
                                        && hi[d] - state.pos[k][d] >= r_cut)
                            })
                        })
                        .collect();
                    let mut acc = vec![[0.0f64; 3]; state.len()];
                    let mut pairs = 0u64;
                    for k in 0..state.len() {
                        if interior[k] {
                            pairs += accumulate(
                                &mut acc[k],
                                state.ids[k],
                                &state.pos[k],
                                state.ids.iter().copied(),
                                &state.pos,
                                &state.mass,
                                ng,
                                r_cut,
                                eps,
                            );
                        }
                    }
                    *int_out[rank].lock().unwrap() = Some((acc, interior, pairs));
                    Ok(())
                },
            );
        }

        // bnd.r — once the 27-neighborhood has flushed its halos, take
        // the ghosts, finish boundary forces against the merged
        // ascending-id candidate list, then kick and drift. Reads
        // acc.r, writes state.r and acc.r (the WAR edges on post.r and
        // int.r come from the state.r read set).
        let mut bnd_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (states, int_out, bnd_out) = (&states, &int_out, &bnd_out);
            let id = graph.add_task(
                format!("bnd.{rank}"),
                &[acc_res[rank]],
                &[state_res[rank], acc_res[rank]],
                move || {
                    let mut ghosts = RankState::default();
                    for msg in transport.take_inbox_tagged(rank, Tag::Halo) {
                        ghosts.extend_from(&msg.batch);
                    }
                    sort_by_id(&mut ghosts);

                    let mut state = states[rank].lock().unwrap();
                    let (mut acc, interior, interior_pairs) = int_out[rank]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("int.r precedes bnd.r");
                    // Merged candidate list: ids and positions of owned
                    // + ghost neighbors, ascending id (owned and ghost
                    // sets are disjoint by construction).
                    let n_own = state.len();
                    let mut cand_ids: Vec<u64> = Vec::with_capacity(n_own + ghosts.len());
                    let mut cand_pos: Vec<[f64; 3]> = Vec::with_capacity(n_own + ghosts.len());
                    let mut cand_mass: Vec<f64> = Vec::with_capacity(n_own + ghosts.len());
                    let mut i = 0;
                    let mut j = 0;
                    while i < n_own || j < ghosts.len() {
                        let take_own =
                            j >= ghosts.len() || (i < n_own && state.ids[i] < ghosts.ids[j]);
                        if take_own {
                            cand_ids.push(state.ids[i]);
                            cand_pos.push(state.pos[i]);
                            cand_mass.push(state.mass[i]);
                            i += 1;
                        } else {
                            cand_ids.push(ghosts.ids[j]);
                            cand_pos.push(ghosts.pos[j]);
                            cand_mass.push(ghosts.mass[j]);
                            j += 1;
                        }
                    }

                    let mut boundary_pairs = 0u64;
                    for k in 0..state.len() {
                        if !interior[k] {
                            boundary_pairs += accumulate(
                                &mut acc[k],
                                state.ids[k],
                                &state.pos[k],
                                cand_ids.iter().copied(),
                                &cand_pos,
                                &cand_mass,
                                ng,
                                r_cut,
                                eps,
                            );
                        }
                    }
                    for k in 0..state.len() {
                        for c in 0..3 {
                            state.mom[k][c] += state.mass[k] * acc[k][c] * dt;
                            let mut x = state.pos[k][c] + state.mom[k][c] / state.mass[k] * dt;
                            x = x.rem_euclid(ng);
                            if x >= ng {
                                x = 0.0;
                            }
                            state.pos[k][c] = x;
                        }
                    }
                    *bnd_out[rank].lock().unwrap() =
                        Some((interior_pairs, boundary_pairs, ghosts.len()));
                    Ok(())
                },
            );
            for &s in &layout.neighbors(rank) {
                graph
                    .add_dep(id, post_ids[s])
                    .expect("halo posts precede boundary compute in canonical order");
            }
            bnd_ids.push(id);
        }

        if !self.async_step {
            // The phase barriers: no halo is posted before every rank
            // has absorbed its migrants, and no boundary compute starts
            // before every rank has flushed its halos.
            for (later, earlier) in [(&post_ids, &abs_ids), (&bnd_ids, &post_ids)] {
                for &task in later {
                    for &dep in earlier {
                        graph
                            .add_dep(task, dep)
                            .expect("phase barriers point backward in canonical order");
                    }
                }
            }
        }

        if let Err(e) = graph.run(0, None, recorder.as_ref()) {
            return Err(match e {
                RunError::Task { error, .. } => error,
                RunError::Watchdog { .. } => unreachable!("step graph runs without a watchdog"),
            });
        }

        self.states = states
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        let mut mig_rep = Vec::with_capacity(ranks);
        let mut migrated = 0u64;
        for slot in mig_out {
            let (rep, moved) = slot.into_inner().unwrap().expect("mig.r ran");
            migrated += moved;
            mig_rep.push(rep);
        }
        let halo_rep: Vec<ExchangeReport> = halo_out
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("post.r ran"))
            .collect();
        let migrate_report = self.transport.commit(&mig_rep);
        let halo_report = self.transport.commit(&halo_rep);

        let work: Vec<(u64, u64, usize)> = bnd_out
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("bnd.r ran"))
            .collect();
        let interior_seconds: Vec<f64> = work
            .iter()
            .zip(&self.states)
            .map(|(&(pairs, _, _), state)| {
                pairs as f64 * self.pair_seconds + state.len() as f64 * self.particle_seconds
            })
            .collect();
        let timeline = if self.async_step {
            readiness_timeline(&mig_rep, &halo_rep, &interior_seconds)
        } else {
            // Every phase drains at a global join, so a rank is busy
            // for every link incident on it; its wait is the idle time
            // at the step join, filled in by `emit_step_stats`.
            (0..ranks)
                .map(|r| CommTimeline {
                    migrate_seconds: migrate_report.rank_seconds(r),
                    halo_seconds: halo_report.rank_seconds(r),
                    wait_seconds: 0.0,
                })
                .collect()
        };

        let mut per_rank = Vec::with_capacity(ranks);
        let mut ke_parts = Vec::with_capacity(ranks);
        for (rank, &(interior_pairs, boundary_pairs, n_ghosts)) in work.iter().enumerate() {
            let state = &self.states[rank];
            let mut ke = 0.0f64;
            for k in 0..state.len() {
                let m = state.mass[k];
                let p2: f64 = state.mom[k].iter().map(|p| p * p).sum();
                ke += 0.5 * p2 / m;
            }
            ke_parts.push(ke);

            let interior_seconds = interior_seconds[rank];
            let boundary_seconds = boundary_pairs as f64 * self.pair_seconds;
            let CommTimeline {
                migrate_seconds,
                halo_seconds,
                wait_seconds,
            } = timeline[rank];
            per_rank.push(RankStepStats {
                rank,
                owned: state.len(),
                ghosts: n_ghosts,
                interior_pairs,
                boundary_pairs,
                interior_seconds,
                boundary_seconds,
                halo_seconds,
                migrate_seconds,
                bytes_sent: mig_rep[rank].bytes + halo_rep[rank].bytes,
                overlap_seconds: halo_seconds.min(interior_seconds),
                step_seconds: migrate_seconds
                    + halo_seconds.max(interior_seconds)
                    + boundary_seconds,
                wait_seconds,
            });
        }
        Ok(self.emit_step_stats(
            recorder.as_ref(),
            per_rank,
            migrated,
            migrate_report.bytes + halo_report.bytes,
            ke_parts,
            !self.async_step,
        ))
    }

    /// Shared step epilogue: deterministic diagnostics allreduce,
    /// node-time and wait attribution, and the per-rank telemetry
    /// spans the analysis plane's critical-path pass consumes.
    fn emit_step_stats(
        &mut self,
        recorder: Option<&Recorder>,
        mut per_rank: Vec<RankStepStats>,
        migrated: u64,
        bytes: u64,
        ke_parts: Vec<f64>,
        barrier_wait: bool,
    ) -> StepStats {
        let kinetic_energy = self.transport.allreduce_sum(&ke_parts);
        self.step_count += 1;
        let node_seconds = per_rank.iter().map(|r| r.step_seconds).fold(0.0, f64::max);
        if barrier_wait {
            // The barriered schedule pins every rank at the global
            // join; the async schedule passes its in-step stalls instead.
            for r in &mut per_rank {
                r.wait_seconds = (node_seconds - r.step_seconds).max(0.0);
            }
        }
        let halo_total: f64 = per_rank.iter().map(|r| r.halo_seconds).sum();
        let overlap_total: f64 = per_rank.iter().map(|r| r.overlap_seconds).sum();
        let overlap_fraction = if halo_total > 0.0 {
            overlap_total / halo_total
        } else {
            0.0
        };
        if let Some(rec) = recorder {
            // One span per rank under the step span, carrying the four
            // modeled phase timers. Values are pure cost-model output,
            // so the timer stream stays bit-reproducible across runs.
            for r in &per_rank {
                let _rank_span = rec.span(&format!("rank.{}", r.rank));
                rec.timer("phase.migrate", r.migrate_seconds);
                rec.timer("phase.interior", r.interior_seconds);
                rec.timer("phase.halo", r.halo_seconds);
                rec.timer("phase.boundary", r.boundary_seconds);
            }
            rec.counter("multirank.overlap_fraction", overlap_fraction);
            rec.counter("multirank.migrated", migrated as f64);
        }
        StepStats {
            step: self.step_count,
            node_seconds,
            bytes,
            migrated,
            overlap_fraction,
            kinetic_energy,
            per_rank,
        }
    }

    /// Advances `steps` steps, returning each step's accounting.
    pub fn run(&mut self, steps: u64) -> Result<Vec<StepStats>, CommError> {
        (0..steps).map(|_| self.step()).collect()
    }

    /// Captures a coordinated [`MultiRankCheckpoint`] of every rank at
    /// the current step boundary. Legal only between steps, when no
    /// message is in flight — which is the only time the caller can
    /// hold `&self`.
    pub fn checkpoint(&self) -> MultiRankCheckpoint {
        MultiRankCheckpoint {
            step: self.step_count,
            ng: self.problem.ng,
            dims: self.layout.dims,
            per_rank: self
                .states
                .iter()
                .map(|s| RankSnapshot {
                    ids: s.ids.clone(),
                    pos: s.pos.clone(),
                    mom: s.mom.clone(),
                    mass: s.mass.clone(),
                    h: s.h.clone(),
                    u: s.u.clone(),
                })
                .collect(),
        }
    }

    /// Restores every rank from a checkpoint taken under the *same*
    /// decomposition (respawn recovery: the communicator keeps its
    /// size). Queued messages from the abandoned timeline are purged.
    pub fn restore(&mut self, ckpt: &MultiRankCheckpoint) -> Result<(), CheckpointError> {
        if ckpt.ranks() != self.layout.ranks || ckpt.dims != self.layout.dims {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: ckpt.ranks(),
                simulation: self.layout.ranks,
            });
        }
        if ckpt.ng != self.problem.ng {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "checkpoint box ng={} does not match the engine's ng={}",
                    ckpt.ng, self.problem.ng
                ),
            });
        }
        self.states = ckpt.per_rank.iter().map(rank_state_from).collect();
        self.step_count = ckpt.step;
        self.transport.purge();
        Ok(())
    }

    /// Rebuilds the engine with `ranks` ranks and restores the particle
    /// state from a checkpoint taken under *any* decomposition of the
    /// same box, re-partitioning every particle by position (shrink
    /// recovery: survivors absorb a lost rank's domain). The transport
    /// is rebuilt for the new communicator size with the same
    /// interconnect, fault configuration, and recorder.
    pub fn restore_resized(
        &mut self,
        ranks: usize,
        ckpt: &MultiRankCheckpoint,
    ) -> Result<(), CheckpointError> {
        if ckpt.ng != self.problem.ng {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "checkpoint box ng={} does not match the engine's ng={}",
                    ckpt.ng, self.problem.ng
                ),
            });
        }
        let layout = RankLayout::new(ranks, self.problem.ng);
        if self.problem.r_cut > layout.min_domain_width() + 1e-12 {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "r_cut {} exceeds the narrowest domain {} of a {ranks}-rank layout",
                    self.problem.r_cut,
                    layout.min_domain_width()
                ),
            });
        }
        let mut transport = Transport::new(ranks, self.transport.fabric().clone());
        if let Some(config) = self.fault_config.clone() {
            transport.enable_fault_injection(config);
        }
        if let Some(recorder) = self.recorder.clone() {
            transport.set_recorder(recorder);
        }
        let mut states: Vec<RankState> = vec![RankState::default(); ranks];
        for snap in &ckpt.per_rank {
            for k in 0..snap.len() {
                states[layout.rank_of(&snap.pos[k])].push(
                    snap.ids[k],
                    snap.pos[k],
                    snap.mom[k],
                    snap.mass[k],
                    snap.h[k],
                    snap.u[k],
                );
            }
        }
        for state in &mut states {
            sort_by_id(state);
        }
        self.layout = layout;
        self.transport = transport;
        self.states = states;
        self.step_count = ckpt.step;
        Ok(())
    }
}

/// Rebuilds the engine's internal store from a public snapshot.
fn rank_state_from(snap: &RankSnapshot) -> RankState {
    RankState {
        ids: snap.ids.clone(),
        pos: snap.pos.clone(),
        mom: snap.mom.clone(),
        mass: snap.mass.clone(),
        h: snap.h.clone(),
        u: snap.u.clone(),
    }
}

/// One rank's modeled communication timeline within a step.
#[derive(Clone, Copy, Debug)]
struct CommTimeline {
    /// Seconds before the rank can compute on its post-migration state.
    migrate_seconds: f64,
    /// The halo window that interior compute may hide.
    halo_seconds: f64,
    /// In-step idle seconds attributable to other ranks.
    wait_seconds: f64,
}

/// The async schedule's modeled timeline, from per-source readiness.
///
/// Each source's flush costs its own wire seconds, and a message is
/// available once its sender's flush completes. So a rank may absorb at
///   absorb_start_r = max(own flush, slowest migrate sender),
/// its halo flush completes at absorb_start_r + halo flush, and its
/// ghosts are ready once every halo sender's flush is done. These are
/// maxes over the neighborhood instead of the barriered model's sums
/// over every incident link, which is exactly the wait the missing
/// barriers remove from the critical path.
fn readiness_timeline(
    mig_rep: &[ExchangeReport],
    halo_rep: &[ExchangeReport],
    interior_seconds: &[f64],
) -> Vec<CommTimeline> {
    let ranks = mig_rep.len();
    let sends_to = |rep: &ExchangeReport, r: usize| rep.links.iter().any(|l| l.dst == r);
    let mig_done: Vec<f64> = mig_rep.iter().map(|r| r.seconds).collect();
    let absorb_start: Vec<f64> = (0..ranks)
        .map(|r| {
            let mut t = mig_done[r];
            for (s, rep) in mig_rep.iter().enumerate() {
                if s != r && sends_to(rep, r) {
                    t = t.max(mig_done[s]);
                }
            }
            t
        })
        .collect();
    let post_done: Vec<f64> = (0..ranks)
        .map(|r| absorb_start[r] + halo_rep[r].seconds)
        .collect();
    (0..ranks)
        .map(|r| {
            let ghosts_from_others = halo_rep
                .iter()
                .enumerate()
                .filter(|(s, rep)| *s != r && sends_to(rep, r))
                .map(|(s, _)| post_done[s])
                .fold(0.0, f64::max);
            // Own post gates the boundary write too (the WAR edge).
            let ghost_ready = post_done[r].max(ghosts_from_others);
            // In-step stalls attributable to *other* ranks: idle
            // waiting on slower migrate senders, plus idle before
            // boundary compute while neighbors' ghosts are still in
            // flight beyond this rank's own busy timeline (own wire
            // exposure is exchange, not wait — matching the barriered
            // attribution). The end-of-step tail is not wait here: the
            // scheduler feeds the rank its next ready task.
            let own_busy_until = (absorb_start[r] + interior_seconds[r]).max(post_done[r]);
            CommTimeline {
                migrate_seconds: absorb_start[r],
                // The ghost-wait window after absorb; the part interior
                // compute does not cover is the exposed exchange.
                halo_seconds: (ghost_ready - absorb_start[r]).max(0.0),
                wait_seconds: (absorb_start[r] - mig_done[r])
                    + (ghosts_from_others - own_busy_until).max(0.0),
            }
        })
        .collect()
}

/// Accumulates softened-gravity acceleration on one particle over a
/// candidate list in its given (ascending-id) order; returns the
/// number of in-cutoff pairs. `f64` throughout — the order and width
/// are the determinism contract.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    acc: &mut [f64; 3],
    own_id: u64,
    own_pos: &[f64; 3],
    ids: impl Iterator<Item = u64>,
    pos: &[[f64; 3]],
    mass: &[f64],
    ng: f64,
    r_cut: f64,
    eps: f64,
) -> u64 {
    let r_cut2 = r_cut * r_cut;
    let mut pairs = 0;
    for (j, id) in ids.enumerate() {
        if id == own_id {
            continue;
        }
        let d = min_image(own_pos, &pos[j], ng);
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 < r_cut2 {
            pairs += 1;
            let w = mass[j] / (r2 + eps * eps).powf(1.5);
            for c in 0..3 {
                acc[c] += w * d[c];
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> MultiRankProblem {
        MultiRankProblem::small(256, 42)
    }

    #[test]
    fn particles_conserved_across_migration() {
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        assert_eq!(sim.n_particles(), 256);
        let stats = sim.run(4).unwrap();
        assert_eq!(sim.n_particles(), 256);
        // With a 0.05 dt something should eventually cross a face.
        let moved: u64 = stats.iter().map(|s| s.migrated).sum();
        assert!(moved > 0, "no particle ever migrated in 4 steps");
    }

    #[test]
    fn any_rank_count_reproduces_single_rank_bits() {
        let digest_of = |ranks: usize| {
            let mut sim = MultiRankSim::new(ranks, GpuArch::aurora(), problem());
            sim.run(3).unwrap();
            sim.state_digest()
        };
        let single = digest_of(1);
        for ranks in [2, 4, 8] {
            assert_eq!(
                digest_of(ranks),
                single,
                "{ranks}-rank run diverged from the single-rank bits"
            );
        }
    }

    #[test]
    fn overlap_and_traffic_are_reported() {
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        let stats = sim.step().unwrap();
        assert_eq!(stats.per_rank.len(), 8);
        assert!(stats.bytes > 0, "8 ranks must exchange halos");
        assert!(stats.node_seconds > 0.0);
        assert!((0.0..=1.0).contains(&stats.overlap_fraction));
        let ghosts: usize = stats.per_rank.iter().map(|r| r.ghosts).sum();
        assert!(ghosts > 0, "ghost zones must populate");
        assert_eq!(sim.comm_stats().exchanges, 2, "migrate + halo phases");
    }

    #[test]
    fn single_rank_has_no_traffic() {
        let mut sim = MultiRankSim::new(1, GpuArch::polaris(), problem());
        let stats = sim.step().unwrap();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.overlap_fraction, 0.0);
        assert_eq!(stats.per_rank[0].ghosts, 0);
        assert!(stats.per_rank[0].step_seconds > 0.0);
    }

    #[test]
    fn phase_telemetry_feeds_the_critical_path_pass() {
        let mut sim = MultiRankSim::new(4, GpuArch::aurora(), problem());
        let rec = Recorder::new();
        sim.set_recorder(rec.clone());
        let stats = sim.run(2).unwrap();

        let paths = hacc_telemetry::analysis::critical_paths(&rec.events());
        assert_eq!(paths.len(), 2, "one critical path per step");
        for (path, step) in paths.iter().zip(&stats) {
            assert_eq!(path.per_rank.len(), 4);
            assert!(
                (path.node_seconds - step.node_seconds).abs() < 1e-12,
                "span-tree node time must match the engine's accounting"
            );
            for r in &path.per_rank {
                let total = r.frac_compute_interior
                    + r.frac_compute_boundary
                    + r.frac_exchange
                    + r.frac_wait;
                assert!((total - 1.0).abs() < 1e-9, "fractions partition node time");
            }
            assert_eq!(path.critical_rank, {
                let mut best = 0;
                for r in &step.per_rank {
                    if r.step_seconds > step.per_rank[best].step_seconds {
                        best = r.rank;
                    }
                }
                best
            });
        }
    }

    #[test]
    fn phase_timer_stream_is_bit_reproducible() {
        let run = || {
            let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
            let rec = Recorder::new();
            sim.set_recorder(rec.clone());
            sim.run(2).unwrap();
            let mut timers: Vec<(String, u64)> = rec
                .events()
                .iter()
                .filter(|e| e.name.starts_with("phase."))
                .map(|e| (e.name.clone(), e.value.to_bits()))
                .collect();
            timers.sort();
            timers
        };
        assert_eq!(run(), run(), "modeled phase timers must not wobble");
    }

    #[test]
    fn async_schedule_matches_barriered_bits() {
        for ranks in [1, 2, 8] {
            let mut reference = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
            reference.run(3).unwrap();
            let mut tasked = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
            tasked.set_async(true);
            assert!(tasked.is_async());
            tasked.run(3).unwrap();
            assert_eq!(
                tasked.state_digest(),
                reference.state_digest(),
                "{ranks}-rank async run diverged from the barriered bits"
            );
            assert_eq!(tasked.comm_stats(), reference.comm_stats());
            assert_eq!(tasked.step_count(), 3);
        }
    }

    #[test]
    fn both_schedules_run_the_same_step_graph() {
        use hacc_telemetry::{counter_total, EventKind};
        let run = |async_on: bool| {
            let mut sim = MultiRankSim::new(4, GpuArch::aurora(), problem());
            sim.set_async(async_on);
            let rec = Recorder::new();
            sim.set_recorder(rec.clone());
            let stats = sim.step().unwrap();
            let events = rec.events();
            // 5 task kinds × 4 ranks, one graph per step.
            assert_eq!(
                counter_total(&events, "task.nodes"),
                20.0,
                "mig/abs/post/int/bnd per rank"
            );
            assert_eq!(counter_total(&events, "task.executed"), 20.0);
            // The critical-path pass still reproduces the engine's
            // modeled node time from the emitted phase timers.
            let paths = hacc_telemetry::analysis::critical_paths(&events);
            assert_eq!(paths.len(), 1);
            assert!((paths[0].node_seconds - stats.node_seconds).abs() < 1e-12);
            // One flush per rank per phase, nested under the step span
            // although it ran on a graph worker.
            let begins = |name: &str| -> Vec<u64> {
                events
                    .iter()
                    .filter(|e| e.kind == EventKind::SpanBegin && e.name == name)
                    .map(|e| e.parent)
                    .collect()
            };
            let step = events
                .iter()
                .find(|e| e.kind == EventKind::SpanBegin && e.name == "step")
                .unwrap();
            assert_eq!(begins("comm.exchange"), vec![step.id; 8]);
            // The flushes commit once per phase.
            assert_eq!(sim.comm_stats().exchanges, 2, "one commit per phase");
            counter_total(&events, "task.edges")
        };
        let (barriered, tasked) = (run(false), run(true));
        assert!(
            barriered > tasked,
            "phase barriers add edges: {barriered} vs {tasked}"
        );
    }

    #[test]
    fn async_wait_share_is_below_the_barriered_share() {
        let run = |async_on: bool| {
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.set_async(async_on);
            let stats = sim.run(3).unwrap();
            let wait: f64 = stats
                .iter()
                .flat_map(|s| s.per_rank.iter().map(|r| r.wait_seconds))
                .sum();
            let node: f64 = stats.iter().map(|s| s.node_seconds * 8.0).sum();
            wait / node
        };
        let (barriered, tasked) = (run(false), run(true));
        assert!(
            tasked < barriered,
            "async wait share {tasked} must undercut barriered {barriered}"
        );
    }

    #[test]
    fn link_faults_retry_and_still_match_bits() {
        let clean = {
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.run(2).unwrap();
            sim.state_digest()
        };
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            seed: 5,
            transient_rate: 0.02,
            ..FaultConfig::default()
        });
        sim.run(2).unwrap();
        assert!(
            sim.transport().injector().unwrap().injected() > 0,
            "2% over hundreds of messages must inject"
        );
        assert_eq!(sim.state_digest(), clean, "retries must not change physics");
    }
}
