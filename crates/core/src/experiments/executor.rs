//! The shared cell executor, re-exported from [`uc_sim::Executor`] so
//! the figure runners, the fleet and the bins all schedule on one
//! implementation.
//!
//! Every figure runner decomposes its sweep into self-contained *cells* —
//! closures that build their own fresh device (from a shared
//! `DeviceRoster`) and return one
//! measurement. Cells never share device state, so they are embarrassingly
//! parallel; the executor returns results **in the cells' original
//! order**, which keeps parallel runs byte-identical to sequential ones.
//!
//! # Example
//!
//! ```
//! use uc_core::experiments::Executor;
//!
//! let cells: Vec<_> = (0..8).map(|i| move || i * i).collect();
//! let parallel = Executor::with_threads(4).run(cells.clone());
//! let sequential = Executor::sequential().run(cells);
//! assert_eq!(parallel, sequential);
//! ```

pub use uc_sim::Executor;

// The executor's suite, run through the re-export the runners use.
#[cfg(test)]
// Boxed-stage chain fixtures are necessarily verbose types.
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_width() {
        let input: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = input.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4, 16, 64] {
            let cells: Vec<_> = input.iter().map(|&i| move || i * 3).collect();
            assert_eq!(Executor::with_threads(threads).run(cells), expected);
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(Executor::with_threads(8).run(none).is_empty());
        assert_eq!(Executor::with_threads(8).run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn workers_actually_run_concurrently_when_asked() {
        // With 4 workers and 4 cells that all wait on the same barrier,
        // completion is only possible if they run at once.
        let barrier = std::sync::Barrier::new(4);
        let cells: Vec<_> = (0..4)
            .map(|i| {
                let barrier = &barrier;
                move || {
                    barrier.wait();
                    i
                }
            })
            .collect();
        assert_eq!(Executor::with_threads(4).run(cells), vec![0, 1, 2, 3]);
    }

    #[test]
    fn chains_thread_state_in_order_at_any_width() {
        // Each chain appends its stage index; the final state must be the
        // ordered sequence regardless of worker count or interleaving.
        let build = |chains: usize,
                     stages: usize|
         -> Vec<(
            Vec<usize>,
            Vec<Box<dyn FnOnce(Vec<usize>) -> Vec<usize> + Send>>,
        )> {
            (0..chains)
                .map(|_| {
                    let stages: Vec<Box<dyn FnOnce(Vec<usize>) -> Vec<usize> + Send>> = (0..stages)
                        .map(|k| {
                            Box::new(move |mut v: Vec<usize>| {
                                v.push(k);
                                v
                            })
                                as Box<dyn FnOnce(Vec<usize>) -> Vec<usize> + Send>
                        })
                        .collect();
                    (Vec::new(), stages)
                })
                .collect()
        };
        let expected: Vec<Vec<usize>> = (0..5).map(|_| (0..7).collect()).collect();
        for threads in [1, 2, 4, 32] {
            let result = Executor::with_threads(threads).run_chains(build(5, 7));
            assert_eq!(result, expected, "threads={threads}");
        }
    }

    #[test]
    fn chains_of_unequal_length_and_empty_chains() {
        let chains: Vec<(u64, Vec<Box<dyn FnOnce(u64) -> u64 + Send>>)> = (0..4u64)
            .map(|i| {
                let stages: Vec<Box<dyn FnOnce(u64) -> u64 + Send>> = (0..i)
                    .map(|_| Box::new(|x: u64| x + 1) as Box<dyn FnOnce(u64) -> u64 + Send>)
                    .collect();
                (100 * i, stages)
            })
            .collect();
        assert_eq!(
            Executor::with_threads(3).run_chains(chains),
            vec![0, 101, 202, 303]
        );
        let none: Vec<(u8, Vec<fn(u8) -> u8>)> = Vec::new();
        assert!(Executor::with_threads(3).run_chains(none).is_empty());
    }

    #[test]
    fn chain_stages_actually_pipeline_across_workers() {
        // Two chains of two stages on two workers, all four stages meeting
        // at one barrier: only possible if stage k of one chain overlaps
        // stage k-1 (or k) of the other — i.e. chains are not serialized
        // whole.
        let barrier = std::sync::Barrier::new(2);
        let chains: Vec<(usize, Vec<Box<dyn FnOnce(usize) -> usize + Send>>)> = (0..2)
            .map(|i| {
                let stages: Vec<Box<dyn FnOnce(usize) -> usize + Send>> = (0..2)
                    .map(|_| {
                        let barrier = &barrier;
                        Box::new(move |x: usize| {
                            barrier.wait();
                            x + 1
                        }) as Box<dyn FnOnce(usize) -> usize + Send>
                    })
                    .collect();
                (i, stages)
            })
            .collect();
        assert_eq!(Executor::with_threads(2).run_chains(chains), vec![2, 3]);
    }

    #[test]
    fn chain_edge_shapes_match_sequential() {
        // The degenerate shapes — no chains at all, a lone
        // single-segment chain, and more workers than chains — must all
        // produce exactly what the sequential fold produces.
        let build = |chains: u64| -> Vec<(u64, Vec<Box<dyn FnOnce(u64) -> u64 + Send>>)> {
            (0..chains)
                .map(|i| {
                    // Single-segment chains: one stage each, mixing the
                    // seed in a way that is order-sensitive.
                    let stages: Vec<Box<dyn FnOnce(u64) -> u64 + Send>> =
                        vec![Box::new(move |x: u64| {
                            x.wrapping_mul(6364136223846793005).wrapping_add(i)
                        })];
                    (i * 31, stages)
                })
                .collect()
        };
        for chains in [0u64, 1, 3] {
            let expected = Executor::sequential().run_chains(build(chains));
            for threads in [2, 8, 64] {
                // Worker count exceeds chain count in every pairing here
                // except (3 chains, 2 threads), which rides along.
                let got = Executor::with_threads(threads).run_chains(build(chains));
                assert_eq!(got, expected, "chains={chains} threads={threads}");
            }
        }
        // An empty chain list returns an empty result at any width.
        let none: Vec<(u8, Vec<fn(u8) -> u8>)> = Vec::new();
        assert!(Executor::with_threads(64).run_chains(none).is_empty());
    }

    #[test]
    fn threads_clamp_and_env_default() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert!(Executor::from_env().threads() >= 1);
        assert_eq!(Executor::sequential().threads(), 1);
    }
}
