//! Microbench: the FFT substrate — radix-2 plans and the
//! sliding dot product vs its naive O(nm) form (the DESIGN.md §5 "FFT vs
//! naive first dot-product" ablation; the crossover justifies using the FFT
//! only for the first profile row).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use valmod_data::generators::random_walk;
use valmod_fft::complex::Complex;
use valmod_fft::real::{sliding_dot_product, sliding_dot_product_naive};
use valmod_fft::Radix2Plan;

fn bench_radix2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft/radix2");
    for n in [256usize, 1024, 4096] {
        let plan = Radix2Plan::new(n);
        let input: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64).sin(), (i as f64).cos())).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut buf = input.clone();
                plan.forward(&mut buf);
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

fn bench_sliding_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft/sliding_dot_product");
    let series = random_walk(8192, 7);
    for m in [64usize, 256, 1024] {
        let query = series[100..100 + m].to_vec();
        group.bench_with_input(BenchmarkId::new("fft", m), &m, |b, _| {
            b.iter(|| black_box(sliding_dot_product(&query, &series)))
        });
        group.bench_with_input(BenchmarkId::new("naive", m), &m, |b, _| {
            b.iter(|| black_box(sliding_dot_product_naive(&query, &series)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_radix2, bench_sliding_dot);
criterion_main!(benches);
