//! Deterministic row-partitioned pair emission behind
//! [`Hypergraph::overlap_graph_parallel`](crate::Hypergraph::overlap_graph_parallel).
//!
//! Kept only for that method, which the repository benchmark's replay still
//! calls with one thread; both go once the replay calls
//! [`Hypergraph::overlap_graph`](crate::Hypergraph::overlap_graph).

/// Run `emit` over `0..m` split into `threads` contiguous chunks (`1` = sequential,
/// `0` = one worker per available core) and concatenate the outputs in chunk order.
/// The partition and merge order are fixed, so the result is independent of the
/// thread count — the same determinism contract as the mining engine's level
/// parallelism.
pub fn emit_pairs_parallel(
    m: usize,
    threads: usize,
    emit: impl Fn(std::ops::Range<usize>, &mut Vec<(usize, usize)>) + Sync,
) -> Vec<(usize, usize)> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    let workers = threads.min(m.max(1));
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if workers <= 1 {
        emit(0..m, &mut pairs);
        return pairs;
    }
    let chunk = m.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rows = (w * chunk)..((w + 1) * chunk).min(m);
            let emit = &emit;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                emit(rows, &mut out);
                out
            }));
        }
        for handle in handles {
            pairs.extend(handle.join().expect("overlap worker panicked"));
        }
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_squares(rows: std::ops::Range<usize>, out: &mut Vec<(usize, usize)>) {
        for i in rows {
            out.push((i, i * i));
        }
    }

    #[test]
    fn chunked_output_matches_sequential_for_any_thread_count() {
        let sequential = emit_pairs_parallel(23, 1, emit_squares);
        assert_eq!(sequential.len(), 23);
        for threads in [2, 3, 8, 64, 0] {
            assert_eq!(emit_pairs_parallel(23, threads, emit_squares), sequential, "x{threads}");
        }
    }

    #[test]
    fn empty_range_is_fine() {
        assert!(emit_pairs_parallel(0, 4, emit_squares).is_empty());
    }
}
