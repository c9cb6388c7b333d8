//! Concurrency contract of the trace ring: writers never block the
//! request path, and readers only ever observe complete records — no
//! torn traces — under multi-threaded churn.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use vantage_core::span::{SpanRecord, TraceId};
use vantage_telemetry::{TraceRecord, TraceRing};

/// Builds a record whose every field is derived from `seed`, so a reader
/// can verify internal consistency and detect tearing.
fn coherent_record(seed: u64) -> TraceRecord {
    TraceRecord {
        id: TraceId::from_bits(seed),
        verb: format!("VERB{seed}"),
        op: "knn".into(),
        generation: seed,
        total_ns: seed * 1000,
        results: seed,
        sampled: true,
        slow: false,
        spans: (0..seed % 7)
            .map(|i| SpanRecord {
                name: "search",
                start_ns: seed + i,
                duration_ns: seed,
                distances: seed,
                abandoned: 0,
                abandoned_work: 0.0,
            })
            .collect(),
        dropped_spans: 0,
        profile: None,
    }
}

fn assert_coherent(record: &TraceRecord) {
    let seed = record.id.bits();
    assert_eq!(record.verb, format!("VERB{seed}"), "torn verb");
    assert_eq!(record.generation, seed, "torn generation");
    assert_eq!(record.total_ns, seed * 1000, "torn latency");
    assert_eq!(record.results, seed, "torn results");
    assert_eq!(record.spans.len(), (seed % 7) as usize, "torn span vec");
    for (i, span) in record.spans.iter().enumerate() {
        assert_eq!(span.start_ns, seed + i as u64, "torn span order");
        assert_eq!(span.distances, seed, "torn span payload");
    }
}

#[test]
fn concurrent_churn_yields_only_complete_records() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER_WRITER: u64 = 5_000;

    let ring = Arc::new(TraceRing::new(64));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for w in 0..WRITERS as u64 {
        let ring = Arc::clone(&ring);
        handles.push(thread::spawn(move || {
            for i in 0..PER_WRITER {
                // Distinct seeds per writer so every retained record is
                // attributable.
                ring.push(coherent_record(w * PER_WRITER + i + 1));
            }
        }));
    }
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for record in ring.recent(16) {
                    assert_coherent(&record);
                    seen += 1;
                }
                for record in ring.slowest(4) {
                    assert_coherent(&record);
                }
            }
            seen
        }));
    }

    for handle in handles {
        handle.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let mut observed = 0;
    for reader in readers {
        observed += reader.join().expect("reader panicked (torn record?)");
    }
    assert!(observed > 0, "readers never saw a record");

    // Every push either landed or was counted as dropped — none lost
    // silently, and the request path never waited on a reader.
    assert_eq!(ring.pushed(), (WRITERS as u64) * PER_WRITER);
    let retained = ring.recent(usize::MAX).len() as u64;
    assert!(retained <= 64);
    assert!(ring.dropped() <= ring.pushed());
    // After the dust settles everything still retained is coherent and
    // findable by ID.
    for record in ring.recent(usize::MAX) {
        assert_coherent(&record);
        let found = ring.find(record.id).expect("retained record findable");
        assert_eq!(found.id, record.id);
    }
}

#[test]
fn writer_throughput_is_not_gated_by_a_parked_reader() {
    // A reader holding clones of every record must not slow pushes: the
    // ring hands out Arcs, so a slow consumer extends lifetimes, never
    // blocks the writer.
    let ring = Arc::new(TraceRing::new(8));
    for seed in 1..=8 {
        ring.push(coherent_record(seed));
    }
    let parked: Vec<_> = ring.recent(8);
    assert_eq!(parked.len(), 8);
    for seed in 9..=100u64 {
        ring.push(coherent_record(seed));
    }
    // The parked clones still read coherently after full overwrite.
    for record in &parked {
        assert_coherent(record);
    }
    assert_eq!(ring.pushed(), 100);
}
