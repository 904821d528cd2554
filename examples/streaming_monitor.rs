//! Streaming monitoring: maintain a matrix profile *online* as sensor
//! samples arrive (`valmod_mp::extend`: each sample extends the profile in
//! O(n), bit-identical to a cold STOMP in the frame pinned at the seed) and
//! raise an alert the moment a never-before-seen pattern (a discord) shows
//! up — the real-time complement of the batch analyses in the other
//! examples.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use valmod_data::datasets::ecg_like;
use valmod_mp::{extend_profile, stomp_with_tail, ExclusionPolicy, ProfiledSeries};

fn main() {
    let l = 96usize;
    // Historical data: two minutes of clean ECG-like telemetry.
    let history = ecg_like(6_000, 3);
    let seed = ProfiledSeries::new(&history);
    let (mut profile, mut tail) =
        stomp_with_tail(&seed, l, ExclusionPolicy::HALF).expect("seed profile");
    // Every grown view keeps the seed's centring offset, so the samples
    // already profiled never move and each extension only adds new cells.
    let offset = seed.offset();
    let mut samples = history.values().to_vec();

    // Alert threshold: a new window is anomalous when its nearest-neighbour
    // distance is far above what the history considers normal.
    let mut finite: Vec<f64> = profile.mp.iter().copied().filter(|d| d.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let p99 = finite[(finite.len() * 99) / 100];
    let threshold = p99 * 1.25;
    println!(
        "seeded with {} samples; normal NN-distance p99 = {p99:.3}, alert threshold {threshold:.3}\n",
        samples.len()
    );

    // Live feed: more normal beats, then an arrhythmia-like corruption.
    let feed = ecg_like(9_000, 4);
    let mut incoming = feed.values()[6_000..].to_vec();
    for (k, v) in incoming[1_500..1_620].iter_mut().enumerate() {
        *v += 0.4 * (((k * 13) % 29) as f64 - 14.0) / 14.0;
    }

    let mut alerts: Vec<usize> = Vec::new();
    for (step, sample) in incoming.iter().enumerate() {
        samples.push(*sample);
        let grown = ProfiledSeries::with_offset(&samples, offset).expect("finite sample");
        extend_profile(&mut profile, &mut tail, &grown).expect("pinned growth");
        // The newest complete window ends at the appended sample.
        let newest = samples.len() - l;
        let nn_dist = profile.mp[newest];
        if nn_dist.is_finite() && nn_dist > threshold {
            // Suppress repeated alerts for overlapping windows.
            if alerts.last().is_none_or(|&last| newest > last + l / 2) {
                println!(
                    "ALERT at stream position {step:>5} (window offset {newest}): NN distance {nn_dist:.3}"
                );
                alerts.push(newest);
            }
        }
    }
    // The corruption sits at appended positions 1500..1620, i.e. global
    // sample positions 7500..7620 (after the 6 000-sample history).
    let (corrupt_lo, corrupt_hi) = (6_000 + 1_500, 6_000 + 1_620);
    println!(
        "\nprocessed {} live samples, {} alert(s); corruption injected at global positions {corrupt_lo}..{corrupt_hi}",
        incoming.len(),
        alerts.len()
    );
    if alerts.iter().any(|&w| w + l > corrupt_lo && w < corrupt_hi) {
        println!("the injected anomaly was caught online.");
    } else {
        println!("warning: expected an alert inside the corrupted region.");
    }
}
