//! The result record one workload run prints: metrics by name with
//! their units, sample counts, correctness checks and free-form detail,
//! serialised as one JSON object.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("particle_steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("modeled_device_s", "modeled_s"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Every
/// workload prints every name; a layer the workload never calls reads 0.
/// `_ms` values are self time per step; counts are per step.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.upGeo_ms", "ms"),
    ("kernels.upCor_ms", "ms"),
    ("kernels.upBarEx_ms", "ms"),
    ("kernels.upBarAc_ms", "ms"),
    ("kernels.upBarAcF_ms", "ms"),
    ("kernels.upBarDu_ms", "ms"),
    ("kernels.upBarDuF_ms", "ms"),
    ("kernels.upGrav_ms", "ms"),
    ("kernels.pairs", "count"),
    ("kernels.ns_per_pair", "ns"),
    ("kernels.upGrav.interp_factor", "ratio"),
    ("calib.haccmk_ns_per_pair", "ns"),
    ("sycl.sched.barrier_wait_ms", "ms"),
    ("sycl.sched.steals", "count"),
    ("sycl.metered_instructions", "count"),
    ("kernels.worklist_ms", "ms"),
    ("kernels.xfer_ms", "ms"),
    ("kernels.launch_ms", "ms"),
    ("tree.rcb_ms", "ms"),
    ("tree.list_ms", "ms"),
    ("tree.leaf_pairs", "count"),
    ("mesh.cic_ms", "ms"),
    ("mesh.poisson_ms", "ms"),
    ("mesh.interp_ms", "ms"),
    ("core.host_phases_ms", "ms"),
    ("ranks.engine_ms", "ms"),
    ("ranks.migrated", "count"),
    ("ranks.wait_share", "ratio"),
    ("ranks.overlap_fraction", "ratio"),
    ("ranks.imbalance", "ratio"),
    ("comm.exchange_ms", "ms"),
    ("comm.messages", "count"),
    ("comm.bytes", "bytes"),
    ("comm.exchanges", "count"),
    ("comm.retries", "count"),
    ("comm.modeled_s", "modeled_s"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("telemetry.events_per_step", "count"),
    ("trace_overhead_ratio", "ratio"),
    ("layer_coverage", "ratio"),
];

/// Record values are the vendored `serde_json` value tree, whose
/// objects keep insertion order.
pub use serde_json::Value as Json;

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One named correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Record {
    /// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the metrics (steps timed, set-ups, …).
    pub samples: Vec<(&'static str, u64)>,
    /// Extra measurements kept out of the gated metric set.
    pub detail: Vec<(&'static str, Json)>,
    pub checks: Vec<Check>,
    /// Steps attempted in the measured window.
    pub attempted: u64,
    /// Steps that returned an error or belong to a trajectory whose
    /// final state digest mismatched the reference.
    pub failed: u64,
    /// Final state digest of the reference trajectory (hex) and the
    /// reference's modeled seconds per step, for the cross-run ledger.
    pub digest: String,
    pub modeled_ref_s: f64,
}

impl Record {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Renders the record; `traced` selects which metric table it carries.
    pub fn to_json(&self, head: Vec<(&'static str, Json)>, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics = table.iter().map(|&(name, unit)| {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            (
                name,
                obj([
                    ("value", Json::F64(value)),
                    ("unit", Json::String(unit.into())),
                ]),
            )
        });
        let mut fields = head;
        fields.push(("metrics", obj(metrics)));
        fields.push((
            "samples",
            obj(self.samples.iter().map(|&(k, v)| (k, Json::U64(v)))),
        ));
        fields.push(("attempted", Json::U64(self.attempted)));
        fields.push(("failed", Json::U64(self.failed)));
        fields.push((
            "checks",
            Json::Array(
                self.checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", Json::String(c.name.into())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::String(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push(("digest", Json::String(self.digest.clone())));
        fields.push(("modeled_ref_s", Json::F64(self.modeled_ref_s)));
        fields.push(("detail", obj(self.detail.clone())));
        obj(fields).to_string()
    }
}

/// Median of a sample (nearest rank, so the value is always one that was
/// measured).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample; 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Summary statistics of a timing sample, for the detail output.
pub fn timing_detail(values_ms: &[f64]) -> Json {
    obj([
        ("n", Json::U64(values_ms.len() as u64)),
        ("p25", Json::F64(quantile(values_ms, 0.25))),
        ("p50", Json::F64(median(values_ms))),
        ("p75", Json::F64(quantile(values_ms, 0.75))),
        ("p90", Json::F64(quantile(values_ms, 0.9))),
        (
            "max",
            Json::F64(values_ms.iter().copied().fold(0.0, f64::max)),
        ),
    ])
}
