//! Criterion: the byte paths around a served query and a snapshot.
//!
//! A `mri-l1-range` request is one 4 096-d line of 8-bit pixels (about
//! 15 KB), so the server turns text into `f64`s and hashes the line into
//! a trace id before the search starts; every snapshot save and open
//! checksums each section. This group times those three paths alone:
//! the vector-text parser on one MRI query line (beside the
//! `split`/`trim`/`str::parse` definition it must match bit for bit),
//! the byte parser a byte-row snapshot reads the same line with (beside
//! `parse_vector` + `narrow`, the route it replaces),
//! `Sampler::trace_id` on the whole request line, and `crc32` over a
//! 35 MB buffer (about an MRI snapshot's vector section).

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;

use vantage_cli::vectext::{narrow, parse_bytes, parse_vector};
use vantage_core::Sampler;
use vantage_datasets::{synthetic_mri_images, MriConfig};
use vantage_persist::check::crc32;

/// One `RANGE` request over a 64×64 synthetic MRI image, as vbench's
/// `mri-l1-range` workload sends it; returns (line, vector text).
fn mri_request() -> (String, String) {
    let config = MriConfig {
        subjects: 1,
        images_per_subject: 1,
        total: None,
        width: 64,
        height: 64,
        ..MriConfig::paper(1)
    };
    let image = &synthetic_mri_images(&config).expect("valid config")[0];
    let mut text = String::new();
    for (i, p) in image.pixels().iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        let _ = write!(text, "{}", f64::from(*p));
    }
    (format!("RANGE 6712 {text}"), text)
}

fn wire(c: &mut Criterion) {
    let (line, text) = mri_request();
    let mut group = c.benchmark_group("wire");
    group.sample_size(50);
    group.bench_function("parse_vector/mri_4096d", |b| {
        b.iter(|| black_box(parse_vector(black_box(&text)).expect("parses")))
    });
    group.bench_function("parse_bytes/mri_4096d", |b| {
        b.iter(|| black_box(parse_bytes(black_box(&text)).expect("bytes")))
    });
    group.bench_function("parse_vector+narrow/mri_4096d", |b| {
        b.iter(|| {
            let vector = parse_vector(black_box(&text)).expect("parses");
            black_box(narrow(&vector).expect("bytes"))
        })
    });
    group.bench_function("split_trim_parse/mri_4096d", |b| {
        b.iter(|| {
            black_box(
                black_box(&text)
                    .split(',')
                    .map(|t| t.trim().parse::<f64>())
                    .collect::<Result<Vec<f64>, _>>()
                    .expect("parses"),
            )
        })
    });
    let sampler = Sampler::new(1, 1);
    group.bench_function("trace_id/mri_line", |b| {
        b.iter(|| black_box(sampler.trace_id(black_box(&line))))
    });
    group.finish();

    let buffer: Vec<u8> = (0..35_000_000u32).map(|i| (i ^ (i >> 11)) as u8).collect();
    let mut group = c.benchmark_group("snapshot_checksum");
    group.sample_size(10);
    group.bench_function("crc32/35MB", |b| {
        b.iter(|| black_box(crc32(black_box(&buffer))))
    });
    group.finish();
}

criterion_group!(benches, wire);
criterion_main!(benches);
