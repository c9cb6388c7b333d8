//! A bounded, never-blocking ring of recent request traces.
//!
//! Sampled (and slow) serve requests leave behind a [`TraceRecord`]:
//! the request's phase spans, its distance-cost delta, and — when the
//! request was head-sampled — the full per-descent
//! [`QueryProfile`] pruning breakdown. The
//! [`TraceRing`] retains the last N of them for the `SLOW` / `TRACE`
//! protocol commands and the Chrome trace-event exporter.
//!
//! **Writers never block the request path.** A push claims a slot with a
//! single `fetch_add` and then *tries* to lock it; if a reader holds the
//! slot at that instant the record is counted as dropped instead of
//! waiting. Readers lock one slot at a time, briefly, and clone the
//! `Arc` out — a record is published as a single pointer swap, so a
//! reader sees either the whole record or nothing (no torn traces).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vantage_core::span::{SpanRecord, TraceId};
use vantage_core::trace::{DistanceRole, PruneReason, QueryProfile};

use crate::json::Json;

/// One request's retained trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request's deterministic trace identifier.
    pub id: TraceId,
    /// Protocol verb (`"KNN"`, `"RANGE"`, …).
    pub verb: String,
    /// Telemetry operation name (an [`OpKind`](crate::OpKind) name),
    /// empty when the verb maps to none.
    pub op: String,
    /// Index generation that answered the request.
    pub generation: u64,
    /// End-to-end request latency in nanoseconds.
    pub total_ns: u64,
    /// Result rows returned.
    pub results: u64,
    /// Whether the request was head-sampled (vs retained only because
    /// it was slow).
    pub sampled: bool,
    /// Whether the request exceeded the slow-query threshold.
    pub slow: bool,
    /// Phase spans on the request timeline.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped past the recorder cap.
    pub dropped_spans: u64,
    /// Full pruning breakdown, present for head-sampled static-index
    /// requests (slow-only captures carry spans but no descent profile).
    pub profile: Option<QueryProfile>,
}

impl TraceRecord {
    /// Sum of the per-span distance computations.
    pub fn total_distances(&self) -> u64 {
        self.spans.iter().map(|s| s.distances).sum()
    }

    /// Sum of the per-span abandoned evaluations.
    pub fn total_abandoned(&self) -> u64 {
        self.spans.iter().map(|s| s.abandoned).sum()
    }

    /// Renders the record as a JSON object — the `TRACE` reply body and
    /// the slow-log line format.
    pub fn to_json(&self) -> Json {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("id".into(), Json::Str(self.id.to_string()));
        obj.insert("verb".into(), Json::Str(self.verb.clone()));
        if !self.op.is_empty() {
            obj.insert("op".into(), Json::Str(self.op.clone()));
        }
        obj.insert("generation".into(), Json::Num(self.generation as f64));
        obj.insert("total_ns".into(), Json::Num(self.total_ns as f64));
        obj.insert("results".into(), Json::Num(self.results as f64));
        obj.insert("sampled".into(), Json::Bool(self.sampled));
        obj.insert("slow".into(), Json::Bool(self.slow));
        obj.insert("distances".into(), Json::Num(self.total_distances() as f64));
        obj.insert("abandoned".into(), Json::Num(self.total_abandoned() as f64));
        if self.dropped_spans > 0 {
            obj.insert("dropped_spans".into(), Json::Num(self.dropped_spans as f64));
        }
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut span = std::collections::BTreeMap::new();
                span.insert("name".into(), Json::Str(s.name.into()));
                span.insert("start_ns".into(), Json::Num(s.start_ns as f64));
                span.insert("duration_ns".into(), Json::Num(s.duration_ns as f64));
                span.insert("distances".into(), Json::Num(s.distances as f64));
                span.insert("abandoned".into(), Json::Num(s.abandoned as f64));
                if s.abandoned_work > 0.0 {
                    span.insert("abandoned_work".into(), Json::Num(s.abandoned_work));
                }
                Json::Obj(span)
            })
            .collect();
        obj.insert("spans".into(), Json::Arr(spans));
        if let Some(profile) = &self.profile {
            obj.insert("profile".into(), profile_to_json(profile));
        }
        Json::Obj(obj)
    }
}

/// Serializes a [`QueryProfile`]'s pruning breakdown: traversal counts,
/// per-role distances, and per-stage prune/reject bound summaries
/// (stages with zero events are omitted).
pub fn profile_to_json(profile: &QueryProfile) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert(
        "nodes_visited".into(),
        Json::Num(profile.nodes_visited() as f64),
    );
    obj.insert(
        "leaves_visited".into(),
        Json::Num(profile.leaves_visited() as f64),
    );
    let mut distances = std::collections::BTreeMap::new();
    let mut abandoned = std::collections::BTreeMap::new();
    for role in DistanceRole::ALL {
        distances.insert(
            role.label().into(),
            Json::Num(profile.distances(role) as f64),
        );
        if profile.abandoned(role) > 0 {
            abandoned.insert(
                role.label().into(),
                Json::Num(profile.abandoned(role) as f64),
            );
        }
    }
    obj.insert("distances".into(), Json::Obj(distances));
    if !abandoned.is_empty() {
        obj.insert("abandoned".into(), Json::Obj(abandoned));
    }
    obj.insert(
        "subtrees_pruned".into(),
        Json::Num(profile.subtrees_pruned() as f64),
    );
    obj.insert(
        "candidates_rejected".into(),
        Json::Num(profile.candidates_rejected() as f64),
    );
    let mut prunes = std::collections::BTreeMap::new();
    let mut rejects = std::collections::BTreeMap::new();
    for reason in PruneReason::ALL {
        let p = profile.prune_stats(reason);
        if p.count() > 0 {
            prunes.insert(
                reason.label().into(),
                bound_stats_json(p.count(), p.min(), p.max(), p.mean()),
            );
        }
        let r = profile.reject_stats(reason);
        if r.count() > 0 {
            rejects.insert(
                reason.label().into(),
                bound_stats_json(r.count(), r.min(), r.max(), r.mean()),
            );
        }
    }
    if !prunes.is_empty() {
        obj.insert("prunes".into(), Json::Obj(prunes));
    }
    if !rejects.is_empty() {
        obj.insert("rejects".into(), Json::Obj(rejects));
    }
    let levels: Vec<Json> = profile
        .levels()
        .iter()
        .map(|l| {
            let mut level = std::collections::BTreeMap::new();
            level.insert("visited".into(), Json::Num(l.visited as f64));
            level.insert("pruned".into(), Json::Num(l.pruned as f64));
            Json::Obj(level)
        })
        .collect();
    if !levels.is_empty() {
        obj.insert("levels".into(), Json::Arr(levels));
    }
    Json::Obj(obj)
}

fn bound_stats_json(count: u64, min: f64, max: f64, mean: f64) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("count".into(), Json::Num(count as f64));
    obj.insert("min".into(), Json::Num(min));
    obj.insert("max".into(), Json::Num(max));
    obj.insert("mean".into(), Json::Num(mean));
    Json::Obj(obj)
}

/// Converts a trace JSON object (as produced by
/// [`TraceRecord::to_json`]) into Chrome trace-event format, loadable in
/// `chrome://tracing` / Perfetto. Each span becomes a complete (`"X"`)
/// event on the request's one `tid` row.
pub fn chrome_from_trace_json(trace: &Json) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let id = trace.get("id").and_then(Json::as_str).unwrap_or("unknown");
    if let Some(spans) = trace.get("spans").and_then(Json::as_array) {
        for span in spans {
            let mut ev = std::collections::BTreeMap::new();
            let name = span.get("name").and_then(Json::as_str).unwrap_or("span");
            ev.insert("name".into(), Json::Str(name.into()));
            ev.insert("cat".into(), Json::Str("vantage".into()));
            ev.insert("ph".into(), Json::Str("X".into()));
            let start_ns = span.get("start_ns").and_then(Json::as_f64).unwrap_or(0.0);
            let dur_ns = span
                .get("duration_ns")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            ev.insert("ts".into(), Json::Num(start_ns / 1000.0));
            ev.insert("dur".into(), Json::Num(dur_ns / 1000.0));
            ev.insert("pid".into(), Json::Num(1.0));
            ev.insert("tid".into(), Json::Num(0.0));
            let mut args = std::collections::BTreeMap::new();
            for key in ["distances", "abandoned", "abandoned_work"] {
                if let Some(v) = span.get(key) {
                    args.insert(key.into(), v.clone());
                }
            }
            args.insert("trace_id".into(), Json::Str(id.into()));
            ev.insert("args".into(), Json::Obj(args));
            events.push(Json::Obj(ev));
        }
    }
    let mut out = std::collections::BTreeMap::new();
    out.insert("traceEvents".into(), Json::Arr(events));
    out.insert("displayTimeUnit".into(), Json::Str("ns".into()));
    let mut other = std::collections::BTreeMap::new();
    other.insert("trace_id".into(), Json::Str(id.into()));
    if let Some(verb) = trace.get("verb") {
        other.insert("verb".into(), verb.clone());
    }
    if let Some(total) = trace.get("total_ns") {
        other.insert("total_ns".into(), total.clone());
    }
    out.insert("otherData".into(), Json::Obj(other));
    Json::Obj(out)
}

/// A fixed-capacity ring of the most recent [`TraceRecord`]s.
///
/// Slot claiming is a single relaxed `fetch_add`; the slot itself is a
/// mutex over an `Arc` pointer, held only long enough to swap the
/// pointer. Writers use `try_lock` so a scraping reader can never stall
/// the request path — a collision drops the new record and bumps
/// [`dropped`](TraceRing::dropped) instead.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<Slot>>>,
    head: AtomicU64,
    dropped: AtomicU64,
}

/// A retained record plus the push sequence number that placed it.
type Slot = (u64, Arc<TraceRecord>);

impl TraceRing {
    /// Creates a ring holding up to `capacity` records (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publishes a record, overwriting the oldest slot. Never blocks: if
    /// a reader holds the claimed slot the record is dropped and
    /// counted.
    pub fn push(&self, record: TraceRecord) {
        let record = Arc::new(record);
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some((seq, record)),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records lost to slot contention (a reader held the claimed slot)
    /// — never to be confused with ordinary ring overwrites.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total records ever pushed (including dropped ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn collect(&self) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let guard = slot.lock().expect("trace ring slot poisoned");
            if let Some((seq, record)) = guard.as_ref() {
                out.push((*seq, Arc::clone(record)));
            }
        }
        out
    }

    /// Looks up a trace by ID; when the same ID was recorded more than
    /// once, the most recent occurrence wins.
    pub fn find(&self, id: TraceId) -> Option<Arc<TraceRecord>> {
        self.collect()
            .into_iter()
            .filter(|(_, r)| r.id == id)
            .max_by_key(|(seq, _)| *seq)
            .map(|(_, r)| r)
    }

    /// The `n` slowest retained traces, by descending latency (ties
    /// broken toward the more recent record).
    pub fn slowest(&self, n: usize) -> Vec<Arc<TraceRecord>> {
        let mut all = self.collect();
        all.sort_unstable_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| b.0.cmp(&a.0)));
        all.truncate(n);
        all.into_iter().map(|(_, r)| r).collect()
    }

    /// The `n` most recently recorded traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<TraceRecord>> {
        let mut all = self.collect();
        all.sort_unstable_by_key(|slot| std::cmp::Reverse(slot.0));
        all.truncate(n);
        all.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::span::SpanRecord;

    fn record(id: u64, total_ns: u64) -> TraceRecord {
        TraceRecord {
            id: TraceId::from_bits(id),
            verb: "KNN".into(),
            op: "knn".into(),
            generation: 1,
            total_ns,
            results: 5,
            sampled: true,
            slow: false,
            spans: vec![SpanRecord {
                name: "search",
                start_ns: 100,
                duration_ns: total_ns.saturating_sub(200),
                distances: 42,
                abandoned: 3,
                abandoned_work: 0.5,
            }],
            dropped_spans: 0,
            profile: None,
        }
    }

    #[test]
    fn push_find_and_overwrite() {
        let ring = TraceRing::new(2);
        ring.push(record(1, 100));
        ring.push(record(2, 200));
        assert!(ring.find(TraceId::from_bits(1)).is_some());
        // Capacity 2: the third push evicts the first.
        ring.push(record(3, 300));
        assert!(ring.find(TraceId::from_bits(1)).is_none());
        assert!(ring.find(TraceId::from_bits(3)).is_some());
        assert_eq!(ring.pushed(), 3);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn duplicate_ids_resolve_to_latest() {
        let ring = TraceRing::new(4);
        ring.push(record(7, 100));
        ring.push(record(7, 900));
        let found = ring.find(TraceId::from_bits(7)).unwrap();
        assert_eq!(found.total_ns, 900);
    }

    #[test]
    fn slowest_orders_by_latency() {
        let ring = TraceRing::new(8);
        for (id, ns) in [(1, 300), (2, 100), (3, 500), (4, 200)] {
            ring.push(record(id, ns));
        }
        let slow: Vec<u64> = ring.slowest(2).iter().map(|r| r.total_ns).collect();
        assert_eq!(slow, vec![500, 300]);
        let recent: Vec<u64> = ring.recent(2).iter().map(|r| r.id.bits()).collect();
        assert_eq!(recent, vec![4, 3]);
    }

    #[test]
    fn trace_json_round_trips_and_exports() {
        let rec = record(0xabcd, 1_000_000);
        let json = rec.to_json();
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            reparsed.get("id").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(reparsed.get("distances").and_then(Json::as_u64), Some(42));
        let chrome = chrome_from_trace_json(&reparsed);
        let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("search"));
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        // 100ns start → 0.1µs timestamp.
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(events[0].get("tid").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn profile_json_contains_pruning_breakdown() {
        use vantage_core::trace::{DistanceRole, PruneReason, TraceSink};
        let mut p = QueryProfile::new();
        p.enter_node(0, false);
        p.distance(DistanceRole::Vantage);
        p.prune(1, PruneReason::FirstShell, 2.5);
        p.reject(PruneReason::PathFilter, 0.5);
        let json = profile_to_json(&p);
        assert_eq!(json.get("subtrees_pruned").and_then(Json::as_u64), Some(1));
        let prunes = json.get("prunes").unwrap();
        assert_eq!(
            prunes
                .get("vp1-shell")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert!(json.get("rejects").unwrap().get("path-filter").is_some());
        // Zero-count stages are omitted entirely.
        assert!(prunes.get("vp2-shell").is_none());
    }
}
