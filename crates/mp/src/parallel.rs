//! Multi-threaded STOMP.
//!
//! The paper (§2) notes that matrix-profile computation parallelises
//! trivially ("GPUs, cloud computing, and other HPC environments").
//! [`stomp_parallel`] partitions the *diagonals* of the distance matrix into
//! cell-balanced contiguous ranges (see [`crate::diagonal`]), one blocked
//! traversal per range, and merges the per-range profiles with the
//! lexicographic min — which is associative, so the result is bit-identical
//! to the sequential kernel for any thread count. `valmod-core`'s harvest
//! splits its pass the same way.
//!
//! [`map_chunks`] is the one fan-out every chunked kernel shares: the last
//! chunk runs on the calling thread, the others on scoped threads.
//! [`row_chunks`] splits rows for `ComputeSubMP`'s per-row advance.

use valmod_data::error::Result;
use valmod_obs::SharedRecorder;

use crate::context::ProfiledSeries;
use crate::diagonal::PassBaseline;
use crate::exclusion::ExclusionPolicy;
use crate::matrix_profile::MatrixProfile;

/// Resolves a user-facing thread-count knob: `0` means "use all available
/// cores" (falling back to 1 if the count cannot be queried).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Splits `ndp` rows into at most `threads` contiguous `(start, len)`
/// chunks. Every chunk is non-empty and the chunks cover `[0, ndp)` in
/// order; with `ndp` not divisible by the thread count the last chunk is
/// short.
pub fn row_chunks(ndp: usize, threads: usize) -> Vec<(usize, usize)> {
    if ndp == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads).clamp(1, ndp);
    let chunk_len = ndp.div_ceil(threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut start = 0;
    while start < ndp {
        let len = chunk_len.min(ndp - start);
        chunks.push((start, len));
        start += len;
    }
    chunks
}

/// Runs `work` once per chunk and returns the results in chunk order:
/// every chunk but the last on a scoped thread, the last on the calling
/// thread — so a single chunk spawns nothing.
///
/// # Panics
/// If a worker panics.
pub fn map_chunks<C, S, W>(chunks: &[C], work: W) -> Vec<S>
where
    C: Copy + Send,
    S: Send,
    W: Fn(C) -> S + Sync,
{
    let Some((&last, rest)) = chunks.split_last() else { return Vec::new() };
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = rest.iter().map(|&c| scope.spawn(move || work(c))).collect();
        let own = work(last);
        let mut out: Vec<S> =
            handles.into_iter().map(|h| h.join().expect("chunk worker panicked")).collect();
        out.push(own);
        out
    })
}

/// Computes the matrix profile with `threads` workers (0 = all available
/// cores). Bit-identical to [`crate::stomp::stomp`] at every thread count;
/// one thread runs the single traversal on the calling thread.
pub fn stomp_parallel(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<MatrixProfile> {
    stomp_parallel_with(ps, l, policy, threads, &SharedRecorder::noop())
}

/// [`stomp_parallel`] with instrumentation: the whole parallel traversal is
/// timed into `mp.diag.parallel_us` and the pass is counted by
/// [`PassBaseline`]. With a disabled recorder the only cost is one
/// `enabled()` branch per call.
pub fn stomp_parallel_with(
    ps: &ProfiledSeries,
    l: usize,
    policy: ExclusionPolicy,
    threads: usize,
    recorder: &SharedRecorder,
) -> Result<MatrixProfile> {
    let mut ws = crate::workspace::Workspace::new();
    let baseline = PassBaseline::take(&ws);
    let profile = {
        let _span = valmod_obs::span!(recorder, "mp.diag.parallel_us");
        crate::diagonal::stomp_diagonal_parallel_ws(ps, l, policy, threads, &mut ws)?
    };
    baseline.record(recorder, profile.len(), l, policy, &ws);
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stomp::stomp;
    use valmod_data::generators::random_walk;

    fn check(n: usize, l: usize, threads: usize, seed: u64) {
        let ps = ProfiledSeries::from_values(&random_walk(n, seed)).unwrap();
        let seq = stomp(&ps, l, ExclusionPolicy::HALF).unwrap();
        let par = stomp_parallel(&ps, l, ExclusionPolicy::HALF, threads).unwrap();
        assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            assert_eq!(seq.mp[i].to_bits(), par.mp[i].to_bits(), "mp[{i}] at threads={threads}");
            assert_eq!(seq.ip[i], par.ip[i], "ip[{i}] at threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_stomp_various_thread_counts() {
        for threads in [1usize, 2, 3, 7, 16] {
            check(350, 24, threads, 31);
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        check(40, 8, 64, 5);
    }

    #[test]
    fn single_thread_is_the_sequential_algorithm() {
        check(200, 16, 1, 9);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        check(120, 12, 0, 13);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn row_chunks_cover_exactly_once() {
        for (ndp, threads) in [(10, 3), (7, 7), (5, 16), (1, 1), (100, 7), (0, 4)] {
            let chunks = row_chunks(ndp, threads);
            let mut next = 0;
            for &(start, len) in &chunks {
                assert_eq!(start, next);
                assert!(len > 0);
                next += len;
            }
            assert_eq!(next, ndp);
        }
    }

    #[test]
    fn map_chunks_keeps_chunk_order() {
        assert_eq!(map_chunks(&[3usize, 1, 2], |c| c * 10), vec![30, 10, 20]);
        assert_eq!(map_chunks(&[7usize], |c| c + 1), vec![8]);
        assert!(map_chunks(&[] as &[usize], |c| c).is_empty());
    }
}
