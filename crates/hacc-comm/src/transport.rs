//! Typed point-to-point transport with deterministic delivery.
//!
//! The in-process stand-in for MPI: ranks running concurrently on the
//! rayon pool post [`ParticleBatch`] messages into per-source outboxes
//! (each rank writes only its own, so posting is contention-free and
//! each source's message order is its own sequential program order).
//! [`Transport::flush_source`] is the one delivery path: it costs one
//! source's messages on the [`Interconnect`], passes them through the
//! fault injector on that source's own channels, and delivers them to
//! the destination inboxes. Distinct sources may flush concurrently;
//! consumers always drain inboxes sorted by `(source, sequence)`.
//! [`Transport::commit`] then folds one phase's per-source reports
//! into the cumulative [`TransportStats`] in ascending `(src, dst)`
//! link order, and [`Transport::exchange`] is "flush every source in
//! ascending order, then commit". That is the message-ordering
//! determinism rule: *rank code may post and flush concurrently, but
//! ordinals are claimed per source in program order, deliveries are
//! consumed in `(src, seq)` order, and the ledger is folded in
//! canonical link order* — so fault schedules, deliveries and stats
//! are identical at any thread count and in any flush order.

use crate::fabric::Interconnect;
use hacc_telemetry::{EventKind, FaultInfo, Recorder};
use parking_lot::Mutex;
use std::fmt;
use sycl_sim::{FaultConfig, FaultInjector, LaunchError};

/// What a message carries, selecting its fault-injection channel and
/// telemetry labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Ghost-zone refresh: copies of boundary particles.
    Halo,
    /// Ownership transfer: particles that drifted across a domain face.
    Migrate,
}

impl Tag {
    /// Stable label, used as the injector kernel name and in telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Tag::Halo => "comm.halo",
            Tag::Migrate => "comm.migrate",
        }
    }
}

/// A structure-of-arrays batch of particles on the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParticleBatch {
    /// Global particle ids.
    pub ids: Vec<u64>,
    /// Positions in grid units.
    pub pos: Vec<[f64; 3]>,
    /// Momenta (comoving).
    pub mom: Vec<[f64; 3]>,
    /// Masses.
    pub mass: Vec<f64>,
    /// SPH smoothing lengths.
    pub h: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
}

/// Wire size of one particle: id + pos + mom + mass + h + u.
pub const PARTICLE_WIRE_BYTES: u64 = 8 + 24 + 24 + 8 + 8 + 8;

/// Fixed per-message envelope (src, dst, tag, seq, count).
pub const MESSAGE_HEADER_BYTES: u64 = 32;

impl ParticleBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of particles in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the batch carries no particles.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one particle.
    pub fn push(&mut self, id: u64, pos: [f64; 3], mom: [f64; 3], mass: f64, h: f64, u: f64) {
        self.ids.push(id);
        self.pos.push(pos);
        self.mom.push(mom);
        self.mass.push(mass);
        self.h.push(h);
        self.u.push(u);
    }

    /// Appends particle `k` of another batch.
    pub fn push_from(&mut self, other: &ParticleBatch, k: usize) {
        self.push(
            other.ids[k],
            other.pos[k],
            other.mom[k],
            other.mass[k],
            other.h[k],
            other.u[k],
        );
    }

    /// Appends every particle of another batch, in order.
    pub fn extend_from(&mut self, other: &ParticleBatch) {
        self.ids.extend_from_slice(&other.ids);
        self.pos.extend_from_slice(&other.pos);
        self.mom.extend_from_slice(&other.mom);
        self.mass.extend_from_slice(&other.mass);
        self.h.extend_from_slice(&other.h);
        self.u.extend_from_slice(&other.u);
    }

    /// Serialized size on the wire, header included.
    pub fn wire_bytes(&self) -> u64 {
        MESSAGE_HEADER_BYTES + self.len() as u64 * PARTICLE_WIRE_BYTES
    }
}

/// One delivered message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message class.
    pub tag: Tag,
    /// Per-source sequence number (program order at the sender).
    pub seq: u64,
    /// Payload.
    pub batch: ParticleBatch,
}

/// Typed failure of an exchange barrier.
#[derive(Clone, Debug)]
pub enum CommError {
    /// A link failure that survived the retry budget: the injector
    /// returned a non-retryable verdict, or the retries ran out before
    /// the deadline did.
    LinkFailed {
        /// Sending rank of the failed message.
        src: usize,
        /// Receiving rank of the failed message.
        dst: usize,
        /// Message class that failed.
        tag: Tag,
        /// Attempts made (1 initial + retries).
        attempts: u32,
        /// The final injector verdict.
        last: LaunchError,
    },
    /// The retry backoff on one link exhausted the exchange deadline
    /// before the message cleared — the distributed stand-in for a
    /// barrier that would otherwise block forever.
    Timeout {
        /// Sending rank of the stuck message.
        src: usize,
        /// Receiving rank of the stuck message.
        dst: usize,
        /// Message class that was stuck.
        tag: Tag,
        /// The deadline that expired, in modeled seconds.
        deadline_s: f64,
        /// Modeled seconds of backoff accumulated when it expired.
        waited_s: f64,
    },
    /// A peer rank is dead: a message addressed to it can never be
    /// delivered, no matter the retry budget. Carries the step at which
    /// the rank was marked dead so recovery knows how far to roll back.
    RankDead {
        /// The dead rank.
        rank: usize,
        /// Step boundary at which it died.
        step: u64,
    },
}

impl CommError {
    /// The `(src, dst)` pair of a link-scoped error, when one exists.
    pub fn link(&self) -> Option<(usize, usize)> {
        match self {
            CommError::LinkFailed { src, dst, .. } | CommError::Timeout { src, dst, .. } => {
                Some((*src, *dst))
            }
            CommError::RankDead { .. } => None,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::LinkFailed {
                src,
                dst,
                tag,
                attempts,
                last,
            } => write!(
                f,
                "link {src}->{dst} failed after {attempts} attempts ({}): {last}",
                tag.label()
            ),
            CommError::Timeout {
                src,
                dst,
                tag,
                deadline_s,
                waited_s,
            } => write!(
                f,
                "link {src}->{dst} ({}) timed out: waited {waited_s:.3e}s of the \
                 {deadline_s:.3e}s exchange deadline",
                tag.label()
            ),
            CommError::RankDead { rank, step } => {
                write!(f, "rank {rank} is dead (lost at step {step})")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Bounded-retry policy for transient link faults, mirroring the launch
/// layer's `LaunchPolicy`, plus the exchange deadline that converts a
/// would-be-infinite barrier wait into a typed timeout.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt.
    pub max_retries: u32,
    /// Exponential backoff base in seconds (charged to `comm.retry`).
    pub backoff_base_s: f64,
    /// Modeled seconds of accumulated backoff on one message before the
    /// exchange gives up with [`CommError::Timeout`]. The default is
    /// generous relative to the µs-scale backoff base, so fault-free
    /// and lightly-faulted runs never see it — it exists to bound the
    /// barrier, not to race healthy retries.
    pub deadline_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_s: 1e-6,
            deadline_s: 1.0,
        }
    }
}

/// Traffic over one directed link during an exchange.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkTraffic {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Messages delivered.
    pub messages: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Modeled seconds on the link.
    pub seconds: f64,
    /// Transient retries absorbed.
    pub retries: u64,
}

/// Summary of one source flush or one committed exchange phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeReport {
    /// Per-directed-link traffic, ascending `(src, dst)`.
    pub links: Vec<LinkTraffic>,
    /// Total messages delivered.
    pub messages: u64,
    /// Total wire bytes.
    pub bytes: u64,
    /// Link seconds, summed over `links` in order.
    pub seconds: f64,
    /// Total transient retries.
    pub retries: u64,
}

impl ExchangeReport {
    /// Sorts links by `(src, dst)`, merges repeats of one link, and
    /// folds the totals in that canonical order.
    fn from_links(mut links: Vec<LinkTraffic>) -> Self {
        links.sort_by_key(|l| (l.src, l.dst));
        links.dedup_by(|later, kept| {
            let same = (later.src, later.dst) == (kept.src, kept.dst);
            if same {
                kept.messages += later.messages;
                kept.bytes += later.bytes;
                kept.seconds += later.seconds;
                kept.retries += later.retries;
            }
            same
        });
        let mut report = Self::default();
        for l in &links {
            report.messages += l.messages;
            report.bytes += l.bytes;
            report.seconds += l.seconds;
            report.retries += l.retries;
        }
        report.links = links;
        report
    }

    /// Modeled comm seconds incident on one rank (messages it sent or
    /// received — both ends are busy for the transfer).
    pub fn rank_seconds(&self, rank: usize) -> f64 {
        self.links
            .iter()
            .filter(|l| l.src == rank || l.dst == rank)
            .map(|l| l.seconds)
            .sum()
    }

    /// Wire bytes sent by one rank.
    pub fn rank_bytes_sent(&self, rank: usize) -> u64 {
        self.links
            .iter()
            .filter(|l| l.src == rank)
            .map(|l| l.bytes)
            .sum()
    }
}

/// Cumulative transport statistics since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransportStats {
    /// Messages delivered.
    pub messages: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Modeled link seconds.
    pub seconds: f64,
    /// Transient retries absorbed.
    pub retries: u64,
    /// Exchange phases committed: one per [`Transport::commit`] (so one
    /// per [`Transport::exchange`]), however many sources flushed in it.
    pub exchanges: u64,
}

/// The in-process point-to-point transport for one set of ranks.
pub struct Transport {
    ranks: usize,
    fabric: Interconnect,
    outboxes: Vec<Mutex<Vec<(usize, Tag, ParticleBatch)>>>,
    inboxes: Vec<Mutex<Vec<Message>>>,
    seqs: Vec<Mutex<u64>>,
    injector: Option<FaultInjector>,
    recorder: Option<Recorder>,
    retry: RetryPolicy,
    stats: Mutex<TransportStats>,
    /// Per-rank death step: `Some(step)` once a rank has been lost.
    dead: Mutex<Vec<Option<u64>>>,
    /// Adversarial delivery-order injection (test surface): when set,
    /// each delivery lands at a seed-derived position in its inbox
    /// instead of at the tail, modeling messages arriving in
    /// non-`(src, seq)` order. Consumers must still observe canonical
    /// order — [`Transport::take_inbox`] re-sorts — so physics must be
    /// invariant to this knob.
    reorder_seed: Mutex<Option<u64>>,
}

/// splitmix64, for the reorder-injection placement hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl fmt::Debug for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transport")
            .field("ranks", &self.ranks)
            .field("fabric", &self.fabric.arch)
            .field("stats", &*self.stats.lock())
            .finish()
    }
}

impl Transport {
    /// Creates a transport for `ranks` ranks over the given interconnect.
    pub fn new(ranks: usize, fabric: Interconnect) -> Self {
        assert!(ranks >= 1, "a communicator needs at least one rank");
        Self {
            ranks,
            fabric,
            outboxes: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            inboxes: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            seqs: (0..ranks).map(|_| Mutex::new(0)).collect(),
            injector: None,
            recorder: None,
            retry: RetryPolicy::default(),
            stats: Mutex::new(TransportStats::default()),
            dead: Mutex::new(vec![None; ranks]),
            reorder_seed: Mutex::new(None),
        }
    }

    /// Enables (or disables, with `None`) adversarial delivery-order
    /// injection: subsequent deliveries land at seed-derived inbox
    /// positions instead of the tail, so consumers see arrivals in
    /// non-`(src, seq)` order. [`Transport::take_inbox`] still hands
    /// rank code the canonical order — this knob exists to prove that.
    pub fn set_reorder_injection(&mut self, seed: Option<u64>) {
        *self.reorder_seed.lock() = seed;
    }

    /// Number of ranks in the communicator.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The interconnect cost model in use.
    pub fn fabric(&self) -> &Interconnect {
        &self.fabric
    }

    /// Routes link faults through a seeded injector (`comm.halo` /
    /// `comm.migrate` channels).
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.injector = Some(FaultInjector::new(config));
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Emits comm telemetry (bytes counters, per-link spans, retry
    /// events) into the given recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Overrides the transient-fault retry budget.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> TransportStats {
        *self.stats.lock()
    }

    /// Marks a rank dead as of the given step. Its pending and future
    /// messages are dropped, and any message addressed *to* it makes
    /// the sender's next [`Transport::flush_source`] fail with
    /// [`CommError::RankDead`] — that failure is the detection event
    /// recovery reacts to.
    pub fn mark_dead(&self, rank: usize, step: u64) {
        assert!(rank < self.ranks, "rank out of range");
        self.dead.lock()[rank] = Some(step);
    }

    /// Brings a dead rank back (respawn recovery: a replacement process
    /// rejoins the communicator on the same slot).
    pub fn revive(&self, rank: usize) {
        assert!(rank < self.ranks, "rank out of range");
        self.dead.lock()[rank] = None;
    }

    /// Ranks currently marked dead, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| d.map(|_| r))
            .collect()
    }

    /// The step at which `rank` died, if it is dead.
    pub fn death_step(&self, rank: usize) -> Option<u64> {
        assert!(rank < self.ranks, "rank out of range");
        self.dead.lock()[rank]
    }

    /// Discards every queued message — outboxes and undelivered
    /// inboxes. Recovery calls this before replaying from a checkpoint
    /// so no message from the abandoned timeline leaks into the rerun.
    pub fn purge(&self) {
        for outbox in &self.outboxes {
            outbox.lock().clear();
        }
        for inbox in &self.inboxes {
            inbox.lock().clear();
        }
    }

    /// Posts a message. Safe to call concurrently from distinct source
    /// ranks; each source's messages keep its program order. Delivery
    /// happens at the source's next [`Transport::flush_source`].
    pub fn send(&self, src: usize, dst: usize, tag: Tag, batch: ParticleBatch) {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        assert_ne!(src, dst, "self-sends are a decomposition bug");
        self.outboxes[src].lock().push((dst, tag, batch));
    }

    /// Drives every posted message to its inbox: the step barrier.
    ///
    /// Flushes every source in ascending rank order with
    /// [`Self::flush_source`], then [`Self::commit`]s the phase. Must be
    /// called with no concurrent [`Self::send`]s in flight. Stops at the
    /// first failing source, which leaves the ledger uncommitted and
    /// the later sources' posts queued.
    pub fn exchange(&self) -> Result<ExchangeReport, CommError> {
        let reports = (0..self.ranks)
            .map(|src| self.flush_source(src))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.commit(&reports))
    }

    /// Folds one phase's per-source flush reports into the cumulative
    /// [`TransportStats`] and returns the merged report.
    ///
    /// Links are merged in ascending `(src, dst)` order and the totals
    /// are folded in that order, so the ledger is the same whatever
    /// order the flushes ran or finished in. Each commit counts as one
    /// exchange.
    pub fn commit(&self, reports: &[ExchangeReport]) -> ExchangeReport {
        let merged =
            ExchangeReport::from_links(reports.iter().flat_map(|r| r.links.clone()).collect());
        let mut stats = self.stats.lock();
        stats.messages += merged.messages;
        stats.bytes += merged.bytes;
        stats.seconds += merged.seconds;
        stats.retries += merged.retries;
        stats.exchanges += 1;
        merged
    }

    /// Places one message into its destination inbox — at the tail, or
    /// at a seed-derived position when reorder injection is on.
    fn deliver(&self, msg: Message) {
        let reorder = *self.reorder_seed.lock();
        let mut inbox = self.inboxes[msg.dst].lock();
        let at = match reorder {
            Some(seed) => {
                let key =
                    mix64(seed ^ mix64((msg.dst as u64) << 32 ^ (msg.src as u64) << 16 ^ msg.seq));
                (key as usize) % (inbox.len() + 1)
            }
            None => inbox.len(),
        };
        inbox.insert(at, msg);
    }

    /// Drains *one* source rank's outbox to the destination inboxes:
    /// the transport's only delivery path.
    ///
    /// Messages are costed on the [`Interconnect`], passed through the
    /// fault injector, and delivered in the source's post order. Safe
    /// to call concurrently for **distinct** sources: each source owns
    /// its outbox, its sequence counter, and (when faults are on) its
    /// own injector channels (`comm.halo.s<src>` etc.), so the fault
    /// schedule is the same at any thread count and in any flush
    /// order. The shared [`TransportStats`] are not touched here; pass
    /// the phase's reports to [`Self::commit`].
    ///
    /// A dead source's posts are dropped without costing the fabric. A
    /// message to a dead peer fails with [`CommError::RankDead`] naming
    /// that peer. Timeouts and link failures name the stalled
    /// `(src, dst)` link.
    pub fn flush_source(&self, src: usize) -> Result<ExchangeReport, CommError> {
        assert!(src < self.ranks, "rank out of range");
        let _span = self.recorder.as_ref().map(|r| r.span("comm.exchange"));
        let dead: Vec<Option<u64>> = self.dead.lock().clone();
        let posted = std::mem::take(&mut *self.outboxes[src].lock());
        let mut links: Vec<LinkTraffic> = Vec::new();
        if dead[src].is_none() {
            let mut seq = self.seqs[src].lock();
            for (dst, tag, batch) in posted {
                if let Some(step) = dead[dst] {
                    // A message to a dead peer is how survivors detect
                    // the loss: the matching receive never completes.
                    if let Some(rec) = self.recorder.as_ref() {
                        rec.fault(
                            "fault.rank_dead",
                            FaultInfo {
                                kind: "rank-dead".to_string(),
                                kernel: tag.label().to_string(),
                                variant: String::new(),
                                detail: format!(
                                    "link {src}->{dst}: peer {dst} dead since step {step}"
                                ),
                            },
                            1.0,
                        );
                    }
                    return Err(CommError::RankDead { rank: dst, step });
                }
                let retries = self.clear_link(src, dst, tag)?;
                let bytes = batch.wire_bytes();
                let seconds = self.fabric.cost(src, dst, bytes);
                self.charge(src, dst, bytes, seconds);
                match links.iter_mut().find(|l| l.dst == dst) {
                    Some(l) => {
                        l.messages += 1;
                        l.bytes += bytes;
                        l.seconds += seconds;
                        l.retries += retries;
                    }
                    None => links.push(LinkTraffic {
                        src,
                        dst,
                        messages: 1,
                        bytes,
                        seconds,
                        retries,
                    }),
                }
                self.deliver(Message {
                    src,
                    dst,
                    tag,
                    seq: *seq,
                    batch,
                });
                *seq += 1;
            }
        }
        Ok(ExchangeReport::from_links(links))
    }

    /// Runs one message through the fault injector with bounded retry
    /// under the exchange deadline; returns the number of transient
    /// retries absorbed. Each source claims ordinals on its own
    /// channel, so concurrent flushes of distinct sources never share
    /// an ordinal stream.
    fn clear_link(&self, src: usize, dst: usize, tag: Tag) -> Result<u64, CommError> {
        let Some(injector) = self.injector.as_ref() else {
            return Ok(0);
        };
        let channel = format!("{}.s{src}", tag.label());
        let kernel = channel.as_str();
        let mut attempts = 0u32;
        let mut waited_s = 0.0f64;
        loop {
            let ordinal = injector.next_ordinal(kernel);
            attempts += 1;
            match injector.launch_fault(kernel, ordinal) {
                None => return Ok(u64::from(attempts - 1)),
                Some(err) if err.is_retryable() && attempts <= self.retry.max_retries => {
                    let backoff =
                        self.retry.backoff_base_s * f64::from(1u32 << (attempts - 1).min(16));
                    if waited_s + backoff > self.retry.deadline_s {
                        // The next backoff would sleep past the
                        // deadline: a real barrier would still be
                        // blocked, so surface it as a timeout instead
                        // of waiting forever.
                        if let Some(rec) = self.recorder.as_ref() {
                            rec.fault(
                                "fault.timeout",
                                FaultInfo {
                                    kind: "timeout".to_string(),
                                    kernel: kernel.to_string(),
                                    variant: String::new(),
                                    detail: format!(
                                        "link {src}->{dst} ({kernel}) exceeded the \
                                         {:.3e}s exchange deadline after {attempts} attempts",
                                        self.retry.deadline_s
                                    ),
                                },
                                1.0,
                            );
                        }
                        return Err(CommError::Timeout {
                            src,
                            dst,
                            tag,
                            deadline_s: self.retry.deadline_s,
                            waited_s: waited_s + backoff,
                        });
                    }
                    waited_s += backoff;
                    if let Some(rec) = self.recorder.as_ref() {
                        rec.timer("comm.retry", backoff);
                        rec.counter("comm.retries", 1.0);
                        rec.fault(
                            "fault.retry",
                            FaultInfo {
                                kind: "retry".to_string(),
                                kernel: kernel.to_string(),
                                variant: String::new(),
                                detail: format!("link {src}->{dst} attempt {attempts}"),
                            },
                            1.0,
                        );
                    }
                }
                Some(err) => {
                    return Err(CommError::LinkFailed {
                        src,
                        dst,
                        tag,
                        attempts,
                        last: err,
                    })
                }
            }
        }
    }

    /// Charges one delivered message to telemetry, decomposed against
    /// the α–β model: the latency and serialization terms separately,
    /// plus the bandwidth-utilization fraction `n·β / (α + n·β)` so the
    /// analysis plane can tell latency-bound links from saturated ones.
    fn charge(&self, src: usize, dst: usize, bytes: u64, seconds: f64) {
        if let Some(rec) = self.recorder.as_ref() {
            let link = self.fabric.link(src, dst);
            // One batched span per message: the transport is the
            // highest-frequency emitter in the plane, and the batch
            // path keeps its cost to one lock per delivery.
            rec.span_batch(
                &format!("link.{src}->{dst}"),
                &[
                    (EventKind::Counter, "comm.bytes_sent", bytes as f64),
                    (EventKind::Counter, "comm.bytes_recv", bytes as f64),
                    (
                        EventKind::Counter,
                        "comm.link.alpha_s",
                        link.alpha_seconds(),
                    ),
                    (
                        EventKind::Counter,
                        "comm.link.beta_s",
                        link.beta_seconds(bytes),
                    ),
                    (
                        EventKind::Counter,
                        "comm.link.utilization",
                        link.utilization(bytes),
                    ),
                    (EventKind::Timer, "comm.link", seconds),
                ],
            );
        }
    }

    /// Drains a rank's inbox, sorted by `(src, seq)` — the only order
    /// rank code is allowed to observe.
    pub fn take_inbox(&self, rank: usize) -> Vec<Message> {
        let mut msgs = std::mem::take(&mut *self.inboxes[rank].lock());
        msgs.sort_by_key(|m| (m.src, m.seq));
        msgs
    }

    /// Drains only the messages of one tag from a rank's inbox, sorted
    /// by `(src, seq)`; other tags stay queued. Without phase barriers
    /// a fast neighbor's halos may arrive while this rank is still
    /// absorbing migrants, and must not be consumed as migrants.
    pub fn take_inbox_tagged(&self, rank: usize, tag: Tag) -> Vec<Message> {
        let mut inbox = self.inboxes[rank].lock();
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(inbox.len());
        for msg in inbox.drain(..) {
            if msg.tag == tag {
                taken.push(msg);
            } else {
                kept.push(msg);
            }
        }
        *inbox = kept;
        drop(inbox);
        taken.sort_by_key(|m| (m.src, m.seq));
        taken
    }

    /// The raw arrival order of a rank's queued inbox — `(src, seq)`
    /// per message, *without* the canonical sort. Test surface for the
    /// reorder-injection knob: asserts deliveries really did arrive
    /// out of order before `take_inbox` restored canonical order.
    pub fn arrival_order(&self, rank: usize) -> Vec<(usize, u64)> {
        self.inboxes[rank]
            .lock()
            .iter()
            .map(|m| (m.src, m.seq))
            .collect()
    }

    /// Global reduction: sums one contribution per rank in ascending
    /// rank order (the deterministic reduction order every backend must
    /// reproduce) and charges the tree-allreduce cost.
    pub fn allreduce_sum(&self, per_rank: &[f64]) -> f64 {
        assert_eq!(per_rank.len(), self.ranks, "one contribution per rank");
        let seconds = self.fabric.allreduce_cost(self.ranks, 8);
        if let Some(rec) = self.recorder.as_ref() {
            rec.timer("comm.allreduce", seconds);
        }
        let mut stats = self.stats.lock();
        stats.seconds += seconds;
        drop(stats);
        per_rank.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::GpuArch;

    fn transport(ranks: usize) -> Transport {
        Transport::new(ranks, Interconnect::for_arch(&GpuArch::frontier()))
    }

    fn batch(n: usize) -> ParticleBatch {
        let mut b = ParticleBatch::new();
        for i in 0..n {
            b.push(i as u64, [0.0; 3], [0.0; 3], 1.0, 0.1, 0.0);
        }
        b
    }

    #[test]
    fn delivery_is_src_seq_sorted() {
        let t = transport(4);
        t.send(2, 0, Tag::Halo, batch(1));
        t.send(1, 0, Tag::Halo, batch(2));
        t.send(1, 0, Tag::Migrate, batch(3));
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 3);
        let inbox = t.take_inbox(0);
        let order: Vec<(usize, u64, usize)> = inbox
            .iter()
            .map(|m| (m.src, m.seq, m.batch.len()))
            .collect();
        assert_eq!(order, vec![(1, 0, 2), (1, 1, 3), (2, 0, 1)]);
        assert!(t.take_inbox(0).is_empty(), "inbox drained");
    }

    #[test]
    fn wire_bytes_and_costs_accumulate() {
        let t = transport(2);
        t.send(0, 1, Tag::Halo, batch(10));
        let report = t.exchange().unwrap();
        assert_eq!(
            report.bytes,
            MESSAGE_HEADER_BYTES + 10 * PARTICLE_WIRE_BYTES
        );
        assert!(report.seconds > 0.0);
        assert_eq!(report.rank_bytes_sent(0), report.bytes);
        assert_eq!(report.rank_bytes_sent(1), 0);
        assert!(report.rank_seconds(0) > 0.0);
        assert_eq!(t.stats().exchanges, 1);
    }

    #[test]
    fn transient_link_faults_retry_to_success() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 11,
            transient_rate: 0.4,
            ..FaultConfig::default()
        });
        // At a 40% rate the default 3-retry budget would plausibly
        // exhaust within 50 sends; a deeper budget makes exhaustion
        // astronomically unlikely so every exchange must succeed.
        t.set_retry_policy(RetryPolicy {
            max_retries: 12,
            ..RetryPolicy::default()
        });
        let mut retries = 0;
        for _ in 0..50 {
            t.send(0, 1, Tag::Halo, batch(1));
            let report = t.exchange().unwrap();
            retries += report.retries;
            assert_eq!(t.take_inbox(1).len(), 1);
        }
        assert!(
            retries > 0,
            "a 40% rate over 50 sends must trip at least once"
        );
        assert_eq!(t.stats().retries, retries);
    }

    #[test]
    fn device_loss_surfaces_as_comm_error() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 3,
            device_loss_rate: 1.0,
            ..FaultConfig::default()
        });
        t.send(0, 1, Tag::Migrate, batch(1));
        let err = t.exchange().unwrap_err();
        assert_eq!(err.link(), Some((0, 1)));
        assert!(
            matches!(err, CommError::LinkFailed { attempts: 1, .. }),
            "device loss is not retryable: {err:?}"
        );
        assert!(err.to_string().contains("comm.migrate"));
    }

    #[test]
    fn exhausted_deadline_surfaces_as_timeout() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 7,
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        // Every attempt faults transiently; with a deadline shorter
        // than the first backoff the link must time out rather than
        // burn the whole retry budget.
        t.set_retry_policy(RetryPolicy {
            max_retries: 1000,
            backoff_base_s: 1e-6,
            deadline_s: 5e-7,
        });
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.exchange().unwrap_err();
        match err {
            CommError::Timeout {
                src,
                dst,
                tag,
                deadline_s,
                waited_s,
            } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(tag, Tag::Halo);
                assert!(waited_s > deadline_s);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn messages_to_a_dead_rank_fail_with_rank_dead() {
        let t = transport(3);
        t.mark_dead(1, 4);
        assert_eq!(t.dead_ranks(), vec![1]);
        assert_eq!(t.death_step(1), Some(4));
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.exchange().unwrap_err();
        assert!(
            matches!(err, CommError::RankDead { rank: 1, step: 4 }),
            "got {err:?}"
        );
        assert_eq!(err.link(), None);
        // Recovery revives the slot; traffic flows again.
        t.purge();
        t.revive(1);
        assert!(t.dead_ranks().is_empty());
        t.send(0, 1, Tag::Halo, batch(1));
        t.exchange().unwrap();
        assert_eq!(t.take_inbox(1).len(), 1);
    }

    #[test]
    fn messages_from_a_dead_rank_are_dropped() {
        let t = transport(3);
        // Rank 1 posted before dying: its messages vanish with it.
        t.send(1, 0, Tag::Halo, batch(2));
        t.mark_dead(1, 0);
        t.send(2, 0, Tag::Halo, batch(3));
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 1, "only the live sender delivers");
        let inbox = t.take_inbox(0);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].src, 2);
    }

    #[test]
    fn purge_discards_queued_messages() {
        let t = transport(2);
        t.send(0, 1, Tag::Halo, batch(1));
        t.exchange().unwrap();
        t.send(0, 1, Tag::Migrate, batch(2));
        t.purge();
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 0, "outboxes were purged");
        assert!(t.take_inbox(1).is_empty(), "inboxes were purged");
    }

    #[test]
    fn allreduce_sums_in_rank_order() {
        let t = transport(4);
        assert_eq!(t.allreduce_sum(&[1.0, 2.0, 3.0, 4.0]), 10.0);
    }

    #[test]
    fn flush_source_delivers_only_that_source() {
        let t = transport(4);
        t.send(1, 0, Tag::Halo, batch(2));
        t.send(2, 0, Tag::Halo, batch(3));
        let report = t.flush_source(1).unwrap();
        assert_eq!(report.messages, 1);
        assert_eq!(report.rank_bytes_sent(1), report.bytes);
        let inbox = t.take_inbox(0);
        assert_eq!(inbox.len(), 1, "rank 2's post is still queued");
        assert_eq!(inbox[0].src, 1);
        // The remaining source flushes independently.
        t.flush_source(2).unwrap();
        assert_eq!(t.take_inbox(0).len(), 1);
        assert_eq!(t.flush_source(3).unwrap().messages, 0, "empty flush");
        // Flushes leave the ledger alone until the phase is committed.
        assert_eq!(t.stats(), TransportStats::default());
    }

    /// One phase of posts over five ranks: three destinations per
    /// source plus a second message on one link.
    fn post_phase(t: &Transport, phase: usize) {
        let tag = if phase == 0 { Tag::Migrate } else { Tag::Halo };
        for src in 0..5 {
            for k in 1..=3 {
                t.send(src, (src + k) % 5, tag, batch(src * 7 + k + phase));
            }
            t.send(src, (src + 1) % 5, tag, batch(src + 1));
        }
    }

    /// How a phase's sources are flushed before its commit.
    #[derive(Clone, Copy, Debug)]
    enum FlushOrder {
        Exchange,
        Ascending,
        Descending,
        Threads,
    }

    #[test]
    fn the_ledger_is_independent_of_flush_order_and_threads() {
        let run = |order: FlushOrder, faults: bool| {
            let mut t = transport(5);
            if faults {
                t.enable_fault_injection(FaultConfig {
                    seed: 33,
                    transient_rate: 0.3,
                    ..FaultConfig::default()
                });
                t.set_retry_policy(RetryPolicy {
                    max_retries: 16,
                    ..RetryPolicy::default()
                });
            }
            let flush_all = |sources: &mut dyn Iterator<Item = usize>| {
                let reports: Vec<ExchangeReport> =
                    sources.map(|src| t.flush_source(src).unwrap()).collect();
                t.commit(&reports)
            };
            let mut merged = Vec::new();
            let mut consumed = Vec::new();
            for phase in 0..2 {
                post_phase(&t, phase);
                merged.push(match order {
                    FlushOrder::Exchange => t.exchange().unwrap(),
                    FlushOrder::Ascending => flush_all(&mut (0..5)),
                    FlushOrder::Descending => flush_all(&mut (0..5).rev()),
                    FlushOrder::Threads => {
                        // Reports reach the commit in completion order.
                        let done = Mutex::new(Vec::new());
                        std::thread::scope(|scope| {
                            for src in 0..5 {
                                let (t, done) = (&t, &done);
                                scope.spawn(move || {
                                    let report = t.flush_source(src).unwrap();
                                    done.lock().push(report);
                                });
                            }
                        });
                        t.commit(&done.into_inner())
                    }
                });
                for rank in 0..5 {
                    consumed.extend(
                        t.take_inbox(rank)
                            .iter()
                            .map(|m| (m.src, m.dst, m.seq, m.tag, m.batch.len())),
                    );
                }
            }
            (t.stats(), merged, consumed)
        };
        for faults in [false, true] {
            let (stats, merged, consumed) = run(FlushOrder::Exchange, faults);
            assert_eq!(stats.exchanges, 2, "one tick per committed phase");
            assert_eq!(stats.messages, 40);
            assert_eq!(faults, stats.retries > 0, "faults={faults}");
            let orders = [
                FlushOrder::Ascending,
                FlushOrder::Descending,
                FlushOrder::Threads,
                FlushOrder::Threads,
                FlushOrder::Threads,
            ];
            for order in orders {
                let got = run(order, faults);
                assert_eq!(got.0, stats, "{order:?} ledger (faults={faults})");
                assert_eq!(got.0.seconds.to_bits(), stats.seconds.to_bits());
                assert_eq!(got.1, merged, "{order:?} merged reports");
                assert_eq!(got.2, consumed, "{order:?} deliveries");
            }
        }
    }

    #[test]
    fn reordered_arrivals_are_consumed_in_canonical_order() {
        let mut t = transport(4);
        t.set_reorder_injection(Some(0xD15C0));
        for k in 1..4 {
            t.send(k, 0, Tag::Halo, batch(k));
            t.send(k, 0, Tag::Halo, batch(k + 3));
        }
        t.exchange().unwrap();
        let arrival = t.arrival_order(0);
        let mut canonical = arrival.clone();
        canonical.sort();
        assert_ne!(
            arrival, canonical,
            "the reorder knob must actually scramble arrival order"
        );
        let consumed: Vec<(usize, u64, usize)> = t
            .take_inbox(0)
            .iter()
            .map(|m| (m.src, m.seq, m.batch.len()))
            .collect();
        assert_eq!(
            consumed,
            vec![
                (1, 0, 1),
                (1, 1, 4),
                (2, 0, 2),
                (2, 1, 5),
                (3, 0, 3),
                (3, 1, 6)
            ],
            "consumption must be canonical regardless of arrival order"
        );
    }

    #[test]
    fn tagged_take_leaves_other_traffic_queued() {
        let t = transport(3);
        t.send(1, 0, Tag::Migrate, batch(1));
        t.flush_source(1).unwrap();
        // A fast neighbor's halo lands before rank 0 absorbed migrants.
        t.send(2, 0, Tag::Halo, batch(2));
        t.flush_source(2).unwrap();
        let migrants = t.take_inbox_tagged(0, Tag::Migrate);
        assert_eq!(migrants.len(), 1);
        assert_eq!(migrants[0].tag, Tag::Migrate);
        let halos = t.take_inbox_tagged(0, Tag::Halo);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].src, 2);
        assert!(t.take_inbox(0).is_empty());
    }

    #[test]
    fn flush_timeout_names_the_stalled_link() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 7,
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        t.set_retry_policy(RetryPolicy {
            max_retries: 1000,
            backoff_base_s: 1e-6,
            deadline_s: 5e-7,
        });
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.flush_source(0).unwrap_err();
        match err {
            CommError::Timeout { src, dst, tag, .. } => {
                assert_eq!((src, dst), (0, 1), "the error must name the link");
                assert_eq!(tag, Tag::Halo);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("0->1"));
    }

    #[test]
    fn flush_to_a_dead_rank_names_the_dead_rank() {
        let t = transport(3);
        t.mark_dead(2, 6);
        t.send(0, 2, Tag::Migrate, batch(1));
        let err = t.flush_source(0).unwrap_err();
        assert!(
            matches!(err, CommError::RankDead { rank: 2, step: 6 }),
            "got {err:?}"
        );
        // A dead source's posts are dropped silently, as at the barrier.
        t.send(2, 0, Tag::Halo, batch(1));
        let report = t.flush_source(2).unwrap();
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn per_source_fault_channels_are_schedule_independent() {
        // Two sources flush in both orders; with per-source injector
        // channels each source's retry count must not depend on the
        // other's flush position.
        let run = |first: usize, second: usize| {
            let mut t = transport(3);
            t.enable_fault_injection(FaultConfig {
                seed: 21,
                transient_rate: 0.4,
                ..FaultConfig::default()
            });
            t.set_retry_policy(RetryPolicy {
                max_retries: 12,
                ..RetryPolicy::default()
            });
            for _ in 0..10 {
                t.send(0, 2, Tag::Halo, batch(1));
                t.send(1, 2, Tag::Halo, batch(1));
                let a = t.flush_source(first).unwrap();
                let b = t.flush_source(second).unwrap();
                t.take_inbox(2);
                assert_eq!(a.messages + b.messages, 2);
                t.commit(&[a, b]);
            }
            t.stats().retries
        };
        let retries = run(0, 1);
        assert!(retries > 0, "a 40% rate over 20 sends must trip");
        assert_eq!(retries, run(1, 0));
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let mut t = transport(2);
            t.enable_fault_injection(FaultConfig {
                seed: 99,
                transient_rate: 0.3,
                ..FaultConfig::default()
            });
            let mut retries = Vec::new();
            for _ in 0..20 {
                t.send(0, 1, Tag::Halo, batch(2));
                retries.push(t.exchange().unwrap().retries);
            }
            retries
        };
        assert_eq!(run(), run());
    }
}
