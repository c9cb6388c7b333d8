//! Request-scoped tracing primitives for the serve path: trace IDs,
//! deterministic sampling, and per-phase span recording.
//!
//! The paper's cost model makes *distance computations* the unit of
//! work; a production server additionally needs to know **where inside
//! one request** those computations (and the wall-clock) went. This
//! module supplies the request-side vocabulary:
//!
//! * [`TraceId`] — a 64-bit identifier derived *purely* from the request
//!   line and a seed, so the same request stream always yields the same
//!   IDs regardless of thread count or arrival order;
//! * [`Sampler`] — the deterministic 1-in-N head-sampling decision
//!   (slow-query tail sampling is layered on top by the caller, which
//!   knows the latency only after the fact);
//! * [`SpanRecord`] / [`SpanRecorder`] — named wall-clock intervals
//!   (parse → lookup → per-shard search → merge → reply) annotated with
//!   the [`DistanceTotals`] delta each interval consumed, bridging the
//!   request timeline to the per-descent
//!   [`TraceSink`](crate::trace::TraceSink) profiles the indexes already
//!   emit.
//!
//! Everything here is allocation-free until a request is actually
//! sampled; the unsampled fast path costs one hash of the request line.

use std::fmt;
use std::time::Instant;

use crate::counting::DistanceTotals;

/// Spans a recorder retains per request; later spans are dropped (and
/// counted) so a pathological request cannot balloon a trace record.
pub const MAX_SPANS: usize = 256;

/// A 64-bit request trace identifier, rendered as 16 lowercase hex
/// digits on the wire (`TRACE <id>`).
///
/// IDs are a pure function of (sampler seed, request line) — see
/// [`Sampler::trace_id`] — so identical request lines share an ID. That
/// is deliberate: it makes sampling reproducible across servers, thread
/// counts and reorderings, at the cost that a repeated request
/// overwrites its earlier trace (the ring keeps the latest occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw 64-bit identifier.
    pub fn from_bits(bits: u64) -> TraceId {
        TraceId(bits)
    }

    /// The raw 64-bit identifier.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Parses the 16-lowercase-hex-digit wire form (case-insensitive).
    pub fn parse_hex(text: &str) -> Option<TraceId> {
        if text.is_empty() || text.len() > 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The 64-bit finalizer from `splitmix64`: a bijective bit mixer, so no
/// two inputs collide and every output bit depends on every input bit —
/// which is what makes `id % every == 0` an unbiased 1-in-N filter.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds one 8-byte word into a hash lane: XOR, an odd multiply (a
/// bijection that spreads low bits upward) and a rotation (which brings
/// the high bits back down for the next word).
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane ^ word)
        .wrapping_mul(0x9fb2_1c65_1e98_df25)
        .rotate_left(29)
}

/// Reads up to eight bytes as a little-endian word, zero-padded.
#[inline]
fn read_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Deterministic head-sampling policy: derive a [`TraceId`] from the
/// request line, sample it iff `id % every == 0`.
///
/// Because the ID depends only on the seed and the bytes of the request
/// line, the *set* of sampled requests for a given request stream is
/// identical on 1 thread or 40, today or in a replay — the property the
/// serve test-suite pins. `every == 0` disables rate sampling entirely
/// (slow-query capture may still retain traces).
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
    every: u64,
}

impl Sampler {
    /// A sampler keeping one request in `every` (0 = none) under `seed`.
    pub fn new(seed: u64, every: u64) -> Sampler {
        Sampler { seed, every }
    }

    /// The sampling rate denominator (0 = rate sampling disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Derives the trace ID for a request line: a word-wise hash of the
    /// line keyed by the seed, finalized through `mix64`. Never zero,
    /// so an ID always has a non-degenerate wire form.
    ///
    /// The line is consumed as little-endian 8-byte words in four
    /// independent lanes (32 bytes per step), so a 15 KB vector line
    /// hashes at memory speed rather than one dependent multiply per
    /// byte. The last partial word is zero-padded and the length folded
    /// in, so lines that differ only in trailing zero bytes still differ.
    pub fn trace_id(&self, request: &str) -> TraceId {
        let bytes = request.as_bytes();
        let mut lanes = [
            self.seed ^ 0x243f_6a88_85a3_08d3,
            self.seed.rotate_left(16) ^ 0x1319_8a2e_0370_7344,
            self.seed.rotate_left(32) ^ 0xa409_3822_299f_31d0,
            self.seed.rotate_left(48) ^ 0x082e_fa98_ec4e_6c89,
        ];
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *lane = absorb(*lane, word);
            }
        }
        for (i, word) in blocks.remainder().chunks(8).enumerate() {
            lanes[i] = absorb(lanes[i], read_word(word));
        }
        let mut h = (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for lane in lanes {
            h = mix64(h ^ lane);
        }
        TraceId(if h == 0 { 0x9e37_79b9_7f4a_7c15 } else { h })
    }

    /// The head-sampling decision for an already-derived ID.
    // `u64::is_multiple_of` postdates the 1.75 MSRV.
    #[allow(clippy::manual_is_multiple_of)]
    pub fn samples(&self, id: TraceId) -> bool {
        self.every != 0 && id.0 % self.every == 0
    }
}

/// One named wall-clock interval inside a request, annotated with the
/// distance-computation delta it consumed.
///
/// `start_ns` is the offset from the request's origin (first byte
/// parsed), so spans from one trace lay out on a common timeline;
/// `distances`/`abandoned`/`abandoned_work` are the
/// [`Counted`](crate::counting::Counted) deltas bracketed around the
/// interval —
/// summing them across a trace's search spans reproduces the query's
/// probe totals exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase name (`"parse"`, `"lookup"`, `"search"`, `"shard"`,
    /// `"merge"`, `"reply"`).
    pub name: &'static str,
    /// Shard index for per-shard scatter spans, `None` elsewhere.
    pub shard: Option<u32>,
    /// Offset of the span start from the request origin, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub duration_ns: u64,
    /// Distance evaluations performed inside the span.
    pub distances: u64,
    /// Evaluations abandoned early inside the span.
    pub abandoned: u64,
    /// Estimated work of the abandoned evaluations, in full-evaluation
    /// units.
    pub abandoned_work: f64,
}

/// An open span: holds the start instant until [`SpanRecorder::record`]
/// closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

/// Collects the spans of one sampled request on a common timeline.
///
/// Only *sampled* requests ever construct a recorder; the unsampled
/// path carries none and pays nothing. The recorder caps retention at
/// [`MAX_SPANS`] and counts overflow instead of growing unboundedly.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

impl SpanRecorder {
    /// Starts a recorder with its origin at "now".
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_origin(Instant::now())
    }

    /// Starts a recorder whose timeline begins at `origin` (typically
    /// captured before parsing, so the parse span starts near zero).
    pub fn with_origin(origin: Instant) -> SpanRecorder {
        SpanRecorder {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// The request origin the span offsets are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span starting now.
    pub fn begin(&self) -> SpanTimer {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Closes `timer` as a span named `name`, charging it the distance
    /// delta `cost` (pass [`DistanceTotals::default`] for phases that
    /// compute no distances).
    pub fn record(
        &mut self,
        name: &'static str,
        shard: Option<u32>,
        timer: SpanTimer,
        cost: DistanceTotals,
    ) {
        let start_ns = timer
            .start
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let duration_ns = timer.start.elapsed().as_nanos() as u64;
        self.push(SpanRecord {
            name,
            shard,
            start_ns,
            duration_ns,
            distances: cost.computations,
            abandoned: cost.abandoned,
            abandoned_work: cost.abandoned_work,
        });
    }

    /// Appends an externally built span (used to synthesize a search
    /// span for a slow request that was not head-sampled, from the
    /// latency and cost the serve path measured anyway).
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Nanoseconds since the origin.
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans dropped past the [`MAX_SPANS`] cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, yielding its spans.
    pub fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_line_sensitive() {
        let s = Sampler::new(7, 64);
        let a = s.trace_id("KNN 5 0.5,0.5");
        assert_eq!(a, s.trace_id("KNN 5 0.5,0.5"));
        assert_ne!(a, s.trace_id("KNN 5 0.5,0.6"));
        assert_ne!(a, Sampler::new(8, 64).trace_id("KNN 5 0.5,0.5"));
        assert_ne!(a.bits(), 0);
    }

    #[test]
    fn trace_ids_are_pinned() {
        // Trace ids are visible on the wire (`TRACE`, SLO exemplars, the
        // slow log): a change to the hash must show up here. The lines
        // cover an empty line, one shorter than a word, and one that
        // spans whole 32-byte blocks plus a partial word.
        let s = Sampler::new(1, 64);
        let mri: String = (0..64).map(|i| format!("{},", i * 37 % 256)).collect();
        let golden = [
            ("", "4d76ee702e063a91"),
            ("PING", "abfef9d84ca9cd46"),
            (&*format!("RANGE 6712 {mri}"), "2b2a55ae28c4b53b"),
        ];
        for (line, id) in golden {
            assert_eq!(s.trace_id(line).to_string(), id, "{line:?}");
        }
    }

    #[test]
    fn hex_form_round_trips() {
        let id = Sampler::new(0, 1).trace_id("PINGISH");
        let hex = id.to_string();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::parse_hex(&hex), Some(id));
        assert_eq!(TraceId::parse_hex(&hex.to_uppercase()), Some(id));
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::parse_hex("11112222333344445"), None);
    }

    #[test]
    fn sampling_rates_are_sane() {
        let none = Sampler::new(1, 0);
        let all = Sampler::new(1, 1);
        let some = Sampler::new(1, 8);
        let mut kept = 0usize;
        for i in 0..4096 {
            let line = format!("KNN {i} 0.1,0.2");
            let id = some.trace_id(&line);
            assert!(!none.samples(id));
            assert!(all.samples(all.trace_id(&line)));
            if some.samples(id) {
                kept += 1;
            }
        }
        // 1-in-8 over a mixed hash: expect ~512, allow wide slack.
        assert!((256..=768).contains(&kept), "kept {kept} of 4096");
    }

    #[test]
    fn distinct_lines_rarely_collide() {
        use std::collections::HashSet;
        let s = Sampler::new(3, 64);
        let ids: HashSet<u64> = (0..2048)
            .map(|i| s.trace_id(&format!("RANGE 0.{i} 1,2,3")).bits())
            .collect();
        assert_eq!(ids.len(), 2048);
    }

    #[test]
    fn recorder_lays_spans_on_one_timeline() {
        let mut rec = SpanRecorder::new();
        let t = rec.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.record(
            "search",
            Some(1),
            t,
            DistanceTotals {
                computations: 42,
                abandoned: 5,
                abandoned_work: 0.25,
            },
        );
        let t = rec.begin();
        rec.record("merge", None, t, DistanceTotals::default());
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "search");
        assert_eq!(spans[0].shard, Some(1));
        assert_eq!(spans[0].distances, 42);
        assert_eq!(spans[0].abandoned, 5);
        assert!(spans[0].duration_ns >= 1_000_000);
        // The merge span starts after the search span started.
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert_eq!(spans[1].distances, 0);
    }

    #[test]
    fn recorder_caps_span_count() {
        let mut rec = SpanRecorder::new();
        for _ in 0..(MAX_SPANS + 10) {
            let t = rec.begin();
            rec.record("search", None, t, DistanceTotals::default());
        }
        assert_eq!(rec.spans().len(), MAX_SPANS);
        assert_eq!(rec.dropped(), 10);
    }
}
