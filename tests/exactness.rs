//! Cross-crate exactness: VALMOD, STOMP-per-length, QuickMotif, MOEN, and
//! brute force must all report the same motif distance for every length, on
//! every dataset stand-in.

use valmod_baselines::brute::brute_force_motif;
use valmod_baselines::moen::moen;
use valmod_baselines::quick_motif::{quick_motif, QuickMotifConfig};
use valmod_baselines::stomp_range::stomp_range;
use valmod_core::valmod::{Valmod, ValmodConfig};
use valmod_data::datasets::Dataset;
use valmod_mp::{ExclusionPolicy, ProfiledSeries};

const L_MIN: usize = 24;
const L_MAX: usize = 36;
const N: usize = 900;

fn agree(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() < 1e-6, "{what}: {a} vs {b}");
}

#[test]
fn all_five_algorithms_agree_on_every_dataset() {
    for ds in Dataset::ALL {
        let series = ds.generate(N, 99);
        let ps = ProfiledSeries::new(&series);
        let policy = ExclusionPolicy::HALF;

        let valmod_out = Valmod::from_config(ValmodConfig::new(L_MIN, L_MAX).with_p(6))
            .run_on(&ps)
            .expect("valmod runs");
        let stomp_out = stomp_range(&ps, L_MIN, L_MAX, policy, 1).expect("stomp runs");
        let moen_out =
            moen(&ps, L_MIN, L_MAX, policy, std::time::Duration::MAX).expect("moen runs");

        for (k, l) in (L_MIN..=L_MAX).enumerate() {
            let name = format!("{} l={l}", ds.name());
            let v = valmod_out.per_length[k].motif.expect("valmod finds a motif").dist;
            let s = stomp_out[k].expect("stomp finds a motif").dist;
            let m = moen_out.motifs[k].expect("moen finds a motif").dist;
            agree(v, s, &format!("{name} VALMOD vs STOMP"));
            agree(m, s, &format!("{name} MOEN vs STOMP"));
            // QuickMotif and brute force are slower; spot-check ends + middle.
            if l == L_MIN || l == L_MAX || l == (L_MIN + L_MAX) / 2 {
                let q = quick_motif(&ps, l, policy, &QuickMotifConfig::default())
                    .expect("runs")
                    .expect("finds a motif")
                    .dist;
                agree(q, s, &format!("{name} QUICKMOTIF vs STOMP"));
                let b =
                    brute_force_motif(&ps, l, policy).expect("runs").expect("finds a motif").dist;
                agree(b, s, &format!("{name} BRUTE vs STOMP"));
            }
        }
    }
}

#[test]
fn valmp_best_equals_minimum_over_per_length_motifs() {
    for ds in [Dataset::Ecg, Dataset::Gap] {
        let series = ds.generate(N, 7);
        let ps = ProfiledSeries::new(&series);
        let out =
            Valmod::from_config(ValmodConfig::new(L_MIN, L_MAX).with_p(6)).run_on(&ps).unwrap();
        let best_from_lengths = out
            .per_length
            .iter()
            .filter_map(|r| r.motif)
            .map(|m| m.norm_dist())
            .fold(f64::INFINITY, f64::min);
        let best = out.best_motif().unwrap();
        assert!(
            (best.norm_dist() - best_from_lengths).abs() < 1e-9,
            "{}: VALMP best {} vs per-length best {}",
            ds.name(),
            best.norm_dist(),
            best_from_lengths
        );
    }
}

#[test]
fn exclusion_policy_ablation_preserves_exactness() {
    // The ℓ/4 ablation (DESIGN.md §5) must stay exact too.
    let series = Dataset::Ecg.generate(700, 13);
    let ps = ProfiledSeries::new(&series);
    let policy = ExclusionPolicy::QUARTER;
    let out = Valmod::from_config(ValmodConfig::new(24, 30).with_p(5).with_policy(policy))
        .run_on(&ps)
        .unwrap();
    let oracle = stomp_range(&ps, 24, 30, policy, 1).unwrap();
    for (k, r) in out.per_length.iter().enumerate() {
        agree(r.motif.unwrap().dist, oracle[k].unwrap().dist, &format!("quarter-zone l={}", r.l));
    }
}

#[test]
fn larger_p_never_changes_results_only_work() {
    let series = Dataset::Astro.generate(800, 3);
    let ps = ProfiledSeries::new(&series);
    let mut dists: Vec<Vec<f64>> = Vec::new();
    for p in [1usize, 5, 25, 100] {
        let out = Valmod::from_config(ValmodConfig::new(20, 32).with_p(p)).run_on(&ps).unwrap();
        dists.push(out.per_length.iter().map(|r| r.motif.unwrap().dist).collect());
    }
    for w in dists.windows(2) {
        for (a, b) in w[0].iter().zip(&w[1]) {
            agree(*a, *b, "p-sweep");
        }
    }
}

#[test]
fn thread_counts_never_change_results_only_wall_clock() {
    // 877 rows at l_min = 24 (prime ndp): no thread count in the sweep
    // divides it, so every chunking has a short tail chunk. p = 1 keeps the
    // heaps tiny, stressing the non-valid path and last-chance refinement
    // under the threaded first pass.
    let series = Dataset::Emg.generate(N, 7);
    let ps = ProfiledSeries::new(&series);
    for p in [1usize, 6] {
        let base =
            Valmod::from_config(ValmodConfig::new(L_MIN, L_MAX).with_p(p)).run_on(&ps).unwrap();
        for threads in [2usize, 3, 7, 16] {
            let cfg = ValmodConfig::new(L_MIN, L_MAX).with_p(p).with_threads(threads);
            let out = Valmod::from_config(cfg).run_on(&ps).unwrap();
            for (a, b) in base.per_length.iter().zip(&out.per_length) {
                let (x, y) = (a.motif.unwrap(), b.motif.unwrap());
                assert_eq!(
                    (x.a, x.b, x.dist.to_bits()),
                    (y.a, y.b, y.dist.to_bits()),
                    "p={p} threads={threads} l={}",
                    a.l
                );
            }
        }
    }
}
