//! Concurrency stress tests for the RCU-style [`SwapCell`].
//!
//! The serving layer's correctness rests on three properties, each
//! exercised here under real thread interleavings:
//!
//! 1. **atomicity** — a reader never observes a partially swapped value:
//!    every guard dereferences to a value that was published whole;
//! 2. **drain** — a retired generation's value is dropped only after the
//!    last reader's guard is gone, and `wait_drained` really waits;
//! 3. **progress** — swaps complete while readers hammer the cell, and
//!    generation numbers observed by any single reader never decrease.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use vantage_core::swap::SwapCell;

/// A value whose internal consistency betrays torn publication: both
/// fields must always agree, and the checksum must match. A reader that
/// ever saw a half-written swap would trip the assertion.
#[derive(Debug)]
struct Consistent {
    a: u64,
    b: u64,
    checksum: u64,
}

impl Consistent {
    fn new(v: u64) -> Self {
        Consistent {
            a: v,
            b: v.wrapping_mul(31),
            checksum: v ^ v.wrapping_mul(31),
        }
    }

    fn verify(&self) {
        assert_eq!(self.b, self.a.wrapping_mul(31), "torn value observed");
        assert_eq!(self.checksum, self.a ^ self.b, "torn checksum observed");
    }
}

#[test]
fn readers_never_observe_a_partially_swapped_value() {
    let cell = Arc::new(SwapCell::new(Consistent::new(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    // The writer starts swapping only once every reader has completed a
    // read, so reads overlap swaps however the threads are scheduled.
    const READERS: usize = 4;
    let all_reading = Arc::new(Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            let all_reading = Arc::clone(&all_reading);
            std::thread::spawn(move || {
                let mut last_generation = 0;
                let mut first = true;
                while first || !stop.load(Ordering::Acquire) {
                    let guard = cell.read();
                    guard.verify();
                    // A single reader's view of time moves forward only.
                    assert!(
                        guard.generation() >= last_generation,
                        "generation went backwards: {} after {last_generation}",
                        guard.generation()
                    );
                    last_generation = guard.generation();
                    drop(guard);
                    reads.fetch_add(1, Ordering::Relaxed);
                    if first {
                        first = false;
                        all_reading.wait();
                    }
                }
            })
        })
        .collect();

    all_reading.wait();
    for v in 1..=500 {
        let retired = cell.swap(Consistent::new(v));
        // Old generations drain while readers continue on the new one.
        assert!(
            retired.wait_drained(Duration::from_secs(30)),
            "generation {} failed to drain",
            retired.generation()
        );
    }
    stop.store(true, Ordering::Release);
    for handle in readers {
        handle.join().expect("reader panicked");
    }
    assert_eq!(cell.generation(), 500);
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers made no progress"
    );
}

/// Tracks drops of the payload so the test can pin down *when* the old
/// generation was reclaimed relative to its readers exiting.
struct DropFlag {
    dropped: Arc<AtomicBool>,
}

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::Release);
    }
}

#[test]
fn old_generation_is_dropped_only_after_its_last_reader_exits() {
    let dropped = Arc::new(AtomicBool::new(false));
    let cell = Arc::new(SwapCell::new(DropFlag {
        dropped: Arc::clone(&dropped),
    }));

    // Two readers pin generation 0; the swap happens under them.
    let guard_a = cell.read();
    let guard_b = cell.read();
    let retired = cell.swap(DropFlag {
        dropped: Arc::new(AtomicBool::new(false)),
    });
    assert_eq!(retired.readers(), 2);
    assert!(
        !dropped.load(Ordering::Acquire),
        "old value dropped while two readers hold it"
    );

    drop(guard_a);
    assert!(
        !dropped.load(Ordering::Acquire),
        "old value dropped while one reader still holds it"
    );

    // Dropping the Retired handle must not free it either: guard_b lives.
    drop(retired);
    assert!(
        !dropped.load(Ordering::Acquire),
        "old value dropped while the last reader still holds it"
    );

    drop(guard_b);
    assert!(
        dropped.load(Ordering::Acquire),
        "old value not reclaimed after its last reader exited"
    );
}

#[test]
fn drain_completes_exactly_when_concurrent_readers_let_go() {
    let cell = Arc::new(SwapCell::new(0u64));
    // Readers that hold each guard for a measurable moment.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let guard = cell.read();
                    std::thread::sleep(Duration::from_micros(200));
                    drop(guard);
                }
            })
        })
        .collect();

    for v in 1..=50 {
        let retired = cell.swap(v);
        assert!(
            retired.wait_drained(Duration::from_secs(30)),
            "drain timed out with cooperative readers"
        );
        // Once drained, the retired value is exclusively recoverable.
        let value = retired
            .try_into_inner()
            .expect("drained generation still shared");
        assert_eq!(value, v - 1);
    }
    stop.store(true, Ordering::Release);
    for handle in readers {
        handle.join().expect("reader panicked");
    }
}

#[test]
fn concurrent_swappers_serialize_into_distinct_generations() {
    let cell = Arc::new(SwapCell::new(0u64));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let mut retired_generations = Vec::new();
                for i in 0..100 {
                    let retired = cell.swap(w * 1000 + i);
                    retired_generations.push(retired.generation());
                }
                retired_generations
            })
        })
        .collect();

    let mut seen: Vec<u64> = writers
        .into_iter()
        .flat_map(|h| h.join().expect("writer panicked"))
        .collect();
    seen.sort_unstable();
    // 400 swaps displaced exactly the generations 0..400, each once —
    // no generation was ever displaced twice (lost update) or skipped.
    let expected: Vec<u64> = (0..400).collect();
    assert_eq!(seen, expected);
    assert_eq!(cell.generation(), 400);
    assert_eq!(cell.swaps(), 400);
}

#[test]
fn in_flight_gauge_tracks_current_generation_readers() {
    let cell = SwapCell::new(());
    assert_eq!(cell.in_flight(), 0);
    let a = cell.read();
    let b = cell.read();
    assert_eq!(cell.in_flight(), 2);
    let retired = cell.swap(());
    // The pinned readers moved to the retired generation's ledger.
    assert_eq!(cell.in_flight(), 0);
    assert_eq!(retired.readers(), 2);
    let c = cell.read();
    assert_eq!(cell.in_flight(), 1);
    drop((a, b, c));
    assert_eq!(cell.in_flight(), 0);
    assert!(retired.wait_drained(Duration::from_secs(5)));
}
