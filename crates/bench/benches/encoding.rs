//! Criterion benches: the FVC line encode hot path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fvl_core::{FrequentValueSet, FvcLine};

fn bench_line_encode(c: &mut Criterion) {
    let values = FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap();
    let line: Vec<u32> = (0..8)
        .map(|i| if i % 2 == 0 { 0 } else { 0x1234_0000 + i })
        .collect();
    let mut group = c.benchmark_group("fvc_line");
    group.throughput(Throughput::Elements(8));
    group.bench_function("encode", |b| {
        b.iter(|| FvcLine::encode(0x1000, &line, &values).frequent_count())
    });
    group.finish();
}

criterion_group!(benches, bench_line_encode);
criterion_main!(benches);
