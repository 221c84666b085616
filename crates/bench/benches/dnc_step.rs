//! Criterion benchmarks for the functional DNC model (the Fig. 4
//! substrate): per-step inference cost of DNC and DNC-D at several
//! geometries, plus the approximation variants.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hima::prelude::*;

fn bench_dnc_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnc_step");
    group.sample_size(20);
    for (n, w, r) in [(128usize, 16usize, 2usize), (512, 32, 4)] {
        let params = DncParams::new(n, w, r).with_hidden(64).with_io(16, 16);
        group.bench_with_input(
            BenchmarkId::new("dnc", format!("{n}x{w}")),
            &params,
            |b, &p| {
                let mut dnc = Dnc::new(p, 7);
                let x = vec![0.3f32; 16];
                b.iter(|| dnc.step(black_box(&x)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dncd_nt4", format!("{n}x{w}")),
            &params,
            |b, &p| {
                let mut dncd = EngineBuilder::new(p).sharded(4).seed(7).build();
                let x = vec![0.3f32; 16];
                b.iter(|| dncd.step(black_box(&x)))
            },
        );
    }
    group.finish();
}

fn bench_memory_unit_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_unit_step");
    group.sample_size(20);
    let (n, w, r) = (256usize, 32usize, 2usize);
    let len = w * r + 3 * w + 5 * r + 3;
    let raw: Vec<f32> = (0..len).map(|i| (i as f32 * 0.173).sin()).collect();
    let iv = hima::dnc::interface::InterfaceVector::parse(&raw, w, r);

    let variants: Vec<(&str, MemoryConfig)> = vec![
        ("exact", MemoryConfig::new(n, w, r)),
        ("skim20", MemoryConfig::new(n, w, r).with_skim(SkimRate::new(0.2))),
        ("approx_softmax", MemoryConfig::new(n, w, r).with_approx_softmax(true)),
    ];
    for (name, cfg) in variants {
        group.bench_function(name, |b| {
            let mut mu = MemoryUnit::new(cfg);
            b.iter(|| mu.step(black_box(&iv)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dnc_step, bench_memory_unit_variants);
criterion_main!(benches);
