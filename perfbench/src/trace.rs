//! Layer self times from the traced run's span stream.
//!
//! Spans come from two sources: the benchmark's own spans around each
//! call into a layer, and the spans the program already opens (the
//! `up*` kernel brackets, `comm.exchange`, the multi-rank `step`). A
//! span's self time is its duration minus the part of it that its
//! direct child spans cover; a span whose name is not a layer bills its
//! self time to the nearest ancestor that is one.

use hacc_telemetry::{Event, EventKind};
use std::collections::{BTreeMap, HashMap};

/// The root span the benchmark opens around one step.
pub const STEP_SPAN: &str = "bench.step";

/// Span names that are layers in their own right, and the metric each
/// one's self time feeds.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("mesh.cic", "mesh.cic_ms"),
    ("mesh.poisson", "mesh.poisson_ms"),
    ("mesh.interp", "mesh.interp_ms"),
    ("tree.rcb", "tree.rcb_ms"),
    ("tree.list", "tree.list_ms"),
    ("kernels.worklist", "kernels.worklist_ms"),
    ("kernels.xfer", "kernels.xfer_ms"),
    ("kernels.launch", "kernels.launch_ms"),
    ("upGeo", "kernels.upGeo_ms"),
    ("upCor", "kernels.upCor_ms"),
    ("upBarEx", "kernels.upBarEx_ms"),
    ("upBarAc", "kernels.upBarAc_ms"),
    ("upBarAcF", "kernels.upBarAcF_ms"),
    ("upBarDu", "kernels.upBarDu_ms"),
    ("upBarDuF", "kernels.upBarDuF_ms"),
    ("upGrav", "kernels.upGrav_ms"),
    ("comm.exchange", "comm.exchange_ms"),
    ("ckpt.encode", "ckpt.encode_ms"),
    ("ckpt.decode", "ckpt.decode_ms"),
];

struct SpanRec<'a> {
    name: &'a str,
    parent: u64,
    begin: u64,
    end: u64,
}

/// Self time (ns) per layer metric over every complete span tree rooted
/// at [`STEP_SPAN`] in `events`. `root_layer` names the metric the step
/// span's own self time feeds (the host phases of the step).
pub fn layer_self_ns(events: &[Event], root_layer: &'static str) -> BTreeMap<&'static str, u64> {
    let mut spans: HashMap<u64, SpanRec<'_>> = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::SpanBegin => {
                spans.insert(
                    ev.id,
                    SpanRec {
                        name: &ev.name,
                        parent: ev.parent,
                        begin: ev.t_ns,
                        end: u64::MAX,
                    },
                );
            }
            EventKind::SpanEnd => {
                if let Some(s) = spans.get_mut(&ev.parent) {
                    s.end = ev.t_ns;
                }
            }
            _ => {}
        }
    }
    spans.retain(|_, s| s.end != u64::MAX);

    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.values() {
        children.entry(s.parent).or_default().push((s.begin, s.end));
    }

    // Layer of a span: its own name if it is a layer, else its
    // ancestor's; `None` for spans outside any step tree.
    let mut memo: HashMap<u64, Option<&'static str>> = HashMap::new();
    fn layer_of(
        id: u64,
        spans: &HashMap<u64, SpanRec<'_>>,
        root_layer: &'static str,
        memo: &mut HashMap<u64, Option<&'static str>>,
    ) -> Option<&'static str> {
        if let Some(&l) = memo.get(&id) {
            return l;
        }
        let l = match spans.get(&id) {
            None => None,
            Some(s) if s.name == STEP_SPAN => Some(root_layer),
            Some(s) => match LAYER_SPANS.iter().find(|(n, _)| *n == s.name) {
                Some(&(_, metric)) => Some(metric),
                None => layer_of(s.parent, spans, root_layer, memo),
            },
        };
        memo.insert(id, l);
        l
    }

    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (&id, s) in &spans {
        let Some(layer) = layer_of(id, &spans, root_layer, &mut memo) else {
            continue;
        };
        let mut covered: Vec<(u64, u64)> = children
            .get(&id)
            .map(|c| {
                c.iter()
                    .map(|&(b, e)| (b.max(s.begin), e.min(s.end)))
                    .filter(|(b, e)| e > b)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut cursor = s.begin;
        for (b, e) in covered {
            let b = b.max(cursor);
            if e > b {
                union += e - b;
                cursor = e;
            }
        }
        *out.entry(layer).or_default() += (s.end - s.begin).saturating_sub(union);
    }
    out
}

/// Sum of a counter's increments.
pub fn counter_sum(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == name)
        .map(|e| e.value)
        .sum()
}

/// Total metered instructions over every kernel launch in `events`.
pub fn metered_instructions(events: &[Event]) -> u64 {
    hacc_telemetry::kernel_instr_totals(events).iter().sum()
}

/// The host-clock part of a span stream, as a Chrome trace: spans and
/// counters only. Kernel and timer events carry modeled seconds, which
/// must not share a time axis with host wall-clock.
pub fn host_chrome_trace(events: &[Event]) -> String {
    let host: Vec<Event> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SpanBegin | EventKind::SpanEnd | EventKind::Counter
            )
        })
        .cloned()
        .collect();
    hacc_telemetry::chrome::chrome_trace(&host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telemetry::Recorder;

    #[test]
    fn self_times_partition_the_step() {
        let rec = Recorder::new();
        {
            let _step = rec.span(STEP_SPAN);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _t = rec.span("tree.rcb");
                std::thread::sleep(std::time::Duration::from_millis(3));
                // Not a layer: bills to tree.rcb.
                let _x = rec.span("gravity");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _k = rec.span("upGrav");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = rec.events();
        let layers = layer_self_ns(&events, "core.host_phases_ms");
        let total: u64 = layers.values().sum();
        let (b, e) = (events.first().unwrap().t_ns, events.last().unwrap().t_ns);
        assert_eq!(total, e - b, "self times sum to the root span");
        assert!(layers["tree.rcb_ms"] >= 4_000_000);
        assert!(layers["kernels.upGrav_ms"] >= 2_000_000);
        assert!(layers["core.host_phases_ms"] >= 2_000_000);
    }
}
