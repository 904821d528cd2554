//! Microbench: the Eq. 3 distance kernel, the Eq. 2 lower bound, and the
//! bounded lower-bound heap — the inner loops of `ComputeMatrixProfile`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use valmod_core::lb::{lb_base, lb_key, lb_scale};
use valmod_core::profile::{DpEntry, PartialProfile};
use valmod_data::generators::random_walk;
use valmod_mp::distance::{dist_from_qt, zdist_naive};

fn bench_distance_kernels(c: &mut Criterion) {
    let series = random_walk(4096, 3);
    let l = 256usize;
    let a = &series[0..l];
    let b = &series[2000..2000 + l];
    let stats = |x: &[f64]| {
        let m = x.iter().sum::<f64>() / x.len() as f64;
        let v = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64;
        (m, v.sqrt())
    };
    let (ma, sa) = stats(a);
    let (mb, sb) = stats(b);
    let qt: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();

    let mut group = c.benchmark_group("distance");
    group.bench_function("eq3_from_dot_product", |bch| {
        bch.iter(|| black_box(dist_from_qt(black_box(qt), l, ma, sa, mb, sb)))
    });
    group.bench_function("naive_znorm_euclidean", |bch| {
        bch.iter(|| black_box(zdist_naive(black_box(a), black_box(b))))
    });
    group.finish();
}

fn bench_lower_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound");
    group.bench_function("eq2_key", |b| {
        b.iter(|| black_box(lb_key(black_box(0.73), black_box(256))))
    });
    group.bench_function("eq2_base_plus_scale", |b| {
        b.iter(|| {
            let base = lb_base(black_box(0.73), black_box(256));
            black_box(lb_scale(base, black_box(1.7), black_box(2.3)))
        })
    });
    group.finish();
}

fn bench_profile_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("listdp_heap");
    for p in [5usize, 50, 150] {
        group.bench_with_input(BenchmarkId::new("offer_stream", p), &p, |b, &p| {
            b.iter(|| {
                let mut prof = PartialProfile::new(0, 64, 1.0, p, 2000);
                for i in 0..2000usize {
                    let key = ((i * 2654435761) % 1000) as f64;
                    prof.offer(DpEntry::new(i, 0.0, key));
                }
                black_box(prof.max_lb_key())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distance_kernels, bench_lower_bound, bench_profile_heap);
criterion_main!(benches);
