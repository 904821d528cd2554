//! Microbench: STOMP, STAMP, the harvesting `ComputeMatrixProfile`, and one
//! `ComputeSubMP` step — the building blocks whose ratio explains VALMOD's
//! headline speed-up.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use valmod_core::compute_mp::{compute_matrix_profile, compute_matrix_profile_with};
use valmod_core::sub_mp::{compute_sub_mp, compute_sub_mp_threaded};
use valmod_data::datasets::Dataset;
use valmod_mp::parallel::stomp_parallel;
use valmod_mp::stamp::stamp;
use valmod_mp::stomp::stomp;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};
use valmod_obs::SharedRecorder;

const N: usize = 2_000;
const L: usize = 64;

fn prepared() -> ProfiledSeries {
    ProfiledSeries::new(&Dataset::Ecg.generate(N, 1))
}

fn bench_profiles(c: &mut Criterion) {
    let ps = prepared();
    let mut group = c.benchmark_group("matrix_profile");
    group.sample_size(10);
    group.bench_function("stomp", |b| {
        b.iter(|| black_box(stomp(&ps, L, ExclusionPolicy::HALF).unwrap()))
    });
    group.bench_function("stamp_full", |b| {
        b.iter(|| black_box(stamp(&ps, L, ExclusionPolicy::HALF, usize::MAX, 3).unwrap()))
    });
    for p in [5usize, 50] {
        group.bench_with_input(BenchmarkId::new("compute_mp_with_harvest", p), &p, |b, &p| {
            b.iter(|| black_box(compute_matrix_profile(&ps, L, p, ExclusionPolicy::HALF).unwrap()))
        });
    }
    group.finish();
}

fn bench_sub_mp_step(c: &mut Criterion) {
    let ps = prepared();
    let mut group = c.benchmark_group("sub_mp_step");
    group.sample_size(20);
    for p in [5usize, 50] {
        let state = compute_matrix_profile(&ps, L, p, ExclusionPolicy::HALF).unwrap();
        group.bench_with_input(BenchmarkId::new("one_length", p), &p, |b, _| {
            b.iter_batched(
                || state.partials.clone(),
                |mut partials| {
                    black_box(compute_sub_mp(&ps, &mut partials, L + 1, ExclusionPolicy::HALF))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    for threads in [2usize, 4, 8] {
        let state = compute_matrix_profile(&ps, L, 50, ExclusionPolicy::HALF).unwrap();
        group.bench_with_input(
            BenchmarkId::new("one_length_p50_threads", threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || state.partials.clone(),
                    |mut partials| {
                        black_box(compute_sub_mp_threaded(
                            &ps,
                            &mut partials,
                            L + 1,
                            ExclusionPolicy::HALF,
                            threads,
                        ))
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let ps = prepared();
    let mut group = c.benchmark_group("profile_variants");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("stomp_parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(stomp_parallel(&ps, L, ExclusionPolicy::HALF, threads).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compute_mp_parallel_p50", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        compute_matrix_profile_with(
                            &ps,
                            L,
                            50,
                            ExclusionPolicy::HALF,
                            threads,
                            &SharedRecorder::noop(),
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_profiles, bench_sub_mp_step, bench_parallel);
criterion_main!(benches);
