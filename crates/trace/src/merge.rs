//! Deterministic interleaving of per-tenant trace streams.
//!
//! A fleet simulation (`uc-fleet`) merges many tenants' arrival streams
//! onto one shared device. The merge must be a *pure function of the
//! inputs* — any tie-break left to iteration order or hash maps would
//! make two runs of the same fleet diverge, breaking the byte-identity
//! bar every experiment in this workspace holds. [`merge_streams`]
//! therefore orders entries by `(arrival, tenant id)` and keeps each
//! tenant's own entries in their original order, so identical timestamps
//! across tenants resolve the same way on every run, every thread count,
//! and every resume.
//!
//! [`validate_merged`] is the matching ingest check: a merged sequence
//! whose cross-tenant order regresses (hand-built, decoded from disk, or
//! produced by a buggy merge) is rejected with a typed
//! [`TraceError::TimestampRegression`] — never a panic — before any I/O
//! is issued.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use uc_sim::SimTime;
use uc_workload::{TraceEntry, TraceError};

/// One entry of a merged multi-tenant stream: the I/O plus which tenant
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedEntry {
    /// The issuing tenant's id.
    pub tenant: u32,
    /// The traced I/O.
    pub entry: TraceEntry,
}

/// Merges per-tenant entry streams into one arrival-ordered sequence.
///
/// Each input stream must itself be arrival-ordered (a
/// [`Trace`](uc_workload::Trace) is, by construction). The merged order
/// is total and deterministic:
///
/// 1. earlier arrival first;
/// 2. identical arrivals resolve by **ascending tenant id** (the stable
///    tie-break the fleet interleaver relies on);
/// 3. one tenant's same-instant entries keep their original relative
///    order; when a tenant id is listed more than once, the stream
///    listed first goes first at a shared instant.
///
/// Runs in `O(n log k)` for `n` entries over `k` streams.
///
/// # Errors
///
/// Returns [`TraceError::TimestampRegression`] (with the offending
/// entry's index *within its stream*) if any input stream is not
/// arrival-ordered — a malformed stream is rejected instead of silently
/// reordered.
pub fn merge_streams(streams: &[(u32, &[TraceEntry])]) -> Result<Vec<MergedEntry>, TraceError> {
    for (_, entries) in streams {
        let mut prev = SimTime::ZERO;
        for (index, entry) in entries.iter().enumerate() {
            if entry.at < prev {
                return Err(TraceError::TimestampRegression {
                    index,
                    prev,
                    at: entry.at,
                });
            }
            prev = entry.at;
        }
    }
    let total: usize = streams.iter().map(|(_, e)| e.len()).sum();
    let mut merged = Vec::with_capacity(total);
    // K-way merge over a min-heap of stream heads keyed
    // `(arrival, tenant, stream index, cursor)`: the earliest arrival
    // wins, ties go to the lowest tenant id, then to the stream listed
    // first (duplicate tenant ids); within one stream the cursor
    // preserves original order. Stream indices are unique in the heap,
    // so the cursor never decides.
    let mut heads: BinaryHeap<Reverse<(SimTime, u32, usize, usize)>> = streams
        .iter()
        .enumerate()
        .filter_map(|(s, &(tenant, entries))| {
            entries.first().map(|e| Reverse((e.at, tenant, s, 0)))
        })
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, tenant, s, cursor)) = *head;
        let entries = streams[s].1;
        merged.push(MergedEntry {
            tenant,
            entry: entries[cursor],
        });
        match entries.get(cursor + 1) {
            Some(next) => *head = Reverse((next.at, tenant, s, cursor + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    Ok(merged)
}

/// Validates a merged multi-tenant sequence: every entry is individually
/// well-formed (against `capacity`, when known) and the *cross-tenant*
/// merged order never regresses.
///
/// This is the merged-stream counterpart of
/// [`validate_entries`](uc_workload::validate_entries): a sequence whose
/// order was corrupted — by a buggy merge, a hand-built fixture, or a
/// malformed file — is a typed error at ingest time, never a panic or a
/// mid-replay device error.
///
/// # Errors
///
/// Returns the first [`TraceError`] found, with the offending entry's
/// index in the merged sequence.
pub fn validate_merged(entries: &[MergedEntry], capacity: Option<u64>) -> Result<(), TraceError> {
    let mut prev = SimTime::ZERO;
    for (index, merged) in entries.iter().enumerate() {
        merged.entry.validate(index, capacity)?;
        if merged.entry.at < prev {
            return Err(TraceError::TimestampRegression {
                index,
                prev,
                at: merged.entry.at,
            });
        }
        prev = merged.entry.at;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_blockdev::IoKind;

    fn entry(at: u64, offset: u64) -> TraceEntry {
        TraceEntry {
            at: SimTime::from_nanos(at),
            kind: IoKind::Write,
            offset,
            len: 4096,
        }
    }

    #[test]
    fn merge_orders_by_arrival_then_tenant() {
        let a = vec![entry(10, 0), entry(30, 1)];
        let b = vec![entry(10, 2), entry(20, 3)];
        // Tenant 7's stream is listed first but tenant 2 wins the t=10 tie.
        let merged = merge_streams(&[(7, &a), (2, &b)]).unwrap();
        let order: Vec<(u32, u64)> = merged
            .iter()
            .map(|m| (m.tenant, m.entry.at.as_nanos()))
            .collect();
        assert_eq!(order, vec![(2, 10), (7, 10), (2, 20), (7, 30)]);
        assert!(validate_merged(&merged, None).is_ok());
    }

    #[test]
    fn identical_timestamps_merge_identically_regardless_of_listing_order() {
        let a: Vec<TraceEntry> = (0..8).map(|i| entry(100, i * 4096)).collect();
        let b: Vec<TraceEntry> = (0..8).map(|i| entry(100, (i + 8) * 4096)).collect();
        let ab = merge_streams(&[(1, &a), (4, &b)]).unwrap();
        let ba = merge_streams(&[(4, &b), (1, &a)]).unwrap();
        assert_eq!(ab, ba, "listing order must not leak into the merge");
        // All of tenant 1 precedes all of tenant 4 at the shared instant,
        // each in original order.
        assert!(ab[..8].iter().all(|m| m.tenant == 1));
        assert!(ab[8..].iter().all(|m| m.tenant == 4));
        assert_eq!(ab[3].entry.offset, 3 * 4096);
    }

    #[test]
    fn unsorted_input_stream_is_a_typed_error() {
        let bad = vec![entry(50, 0), entry(10, 1)];
        let good = vec![entry(0, 2)];
        let err = merge_streams(&[(0, &good), (1, &bad)]).unwrap_err();
        assert_eq!(
            err,
            TraceError::TimestampRegression {
                index: 1,
                prev: SimTime::from_nanos(50),
                at: SimTime::from_nanos(10),
            }
        );
    }

    #[test]
    fn merged_validation_rejects_cross_tenant_regression_without_panicking() {
        // A hand-built merged sequence whose cross-tenant order regresses:
        // tenant 0 at t=100 followed by tenant 1 at t=40.
        let merged = vec![
            MergedEntry {
                tenant: 0,
                entry: entry(100, 0),
            },
            MergedEntry {
                tenant: 1,
                entry: entry(40, 4096),
            },
        ];
        let err = validate_merged(&merged, None).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TimestampRegression { index: 1, .. }
        ));
        assert!(!err.to_string().is_empty());
        // Entry-level checks run too, against the shared typed error.
        let oob = vec![MergedEntry {
            tenant: 3,
            entry: entry(0, 1 << 20),
        }];
        assert!(matches!(
            validate_merged(&oob, Some(1 << 20)),
            Err(TraceError::OutOfRange { index: 0, .. })
        ));
    }

    /// The original linear-scan k-way merge, kept as the test oracle:
    /// every output step scans all cursors and takes the strictly
    /// smallest `(arrival, tenant)`, so the lowest stream index wins an
    /// exact tie (duplicate tenant ids at one instant).
    fn scan_merge(streams: &[(u32, &[TraceEntry])]) -> Result<Vec<MergedEntry>, TraceError> {
        for (_, entries) in streams {
            let mut prev = SimTime::ZERO;
            for (index, entry) in entries.iter().enumerate() {
                if entry.at < prev {
                    return Err(TraceError::TimestampRegression {
                        index,
                        prev,
                        at: entry.at,
                    });
                }
                prev = entry.at;
            }
        }
        let total: usize = streams.iter().map(|(_, e)| e.len()).sum();
        let mut merged = Vec::with_capacity(total);
        let mut cursors = vec![0usize; streams.len()];
        for _ in 0..total {
            let mut best: Option<usize> = None;
            for (s, &(tenant, entries)) in streams.iter().enumerate() {
                if cursors[s] >= entries.len() {
                    continue;
                }
                let candidate = (entries[cursors[s]].at, tenant);
                if best.is_none_or(|b| candidate < (streams[b].1[cursors[b]].at, streams[b].0)) {
                    best = Some(s);
                }
            }
            let s = best.expect("total count admits another entry");
            merged.push(MergedEntry {
                tenant: streams[s].0,
                entry: streams[s].1[cursors[s]],
            });
            cursors[s] += 1;
        }
        Ok(merged)
    }

    /// A seeded stream set: 0–40 streams, some empty, arrivals on a
    /// coarse grid so instants collide across streams, and tenant ids
    /// drawn from a pool small enough to repeat. Every entry's offset
    /// names its stream and position, so outputs that pick a different
    /// stream at a tie compare unequal.
    fn stream_set(rng: &mut uc_sim::SimRng) -> Vec<(u32, Vec<TraceEntry>)> {
        let streams = rng.index(41);
        let tenant_pool = rng.range_u64(1, streams as u64 + 2);
        (0..streams)
            .map(|s| {
                let len = if rng.chance(0.2) { 0 } else { rng.index(24) };
                let mut at = rng.range_u64(0, 4);
                let entries = (0..len)
                    .map(|i| {
                        at += rng.index(3) as u64;
                        entry(at, ((s as u64) << 32) | i as u64)
                    })
                    .collect();
                (rng.range_u64(0, tenant_pool) as u32, entries)
            })
            .collect()
    }

    #[test]
    fn merge_matches_the_linear_scan_reference() {
        let mut rng = uc_sim::SimRng::new(0x4E46);
        let (mut duplicate_ties, mut regressions) = (0, 0);
        for case in 0..400 {
            let mut set = stream_set(&mut rng);
            // Every fourth case breaks one non-trivial stream's order.
            if case % 4 == 3 {
                let candidates: Vec<usize> =
                    (0..set.len()).filter(|&s| set[s].1.len() > 1).collect();
                if !candidates.is_empty() {
                    let s = candidates[rng.index(candidates.len())];
                    let stream = &mut set[s].1;
                    let i = rng.range_u64(1, stream.len() as u64) as usize;
                    stream[i].at = SimTime::from_nanos(stream[i - 1].at.as_nanos() + 5);
                    stream.swap(i - 1, i);
                    regressions += 1;
                }
            }
            let views: Vec<(u32, &[TraceEntry])> =
                set.iter().map(|(t, e)| (*t, e.as_slice())).collect();
            let expected = scan_merge(&views);
            assert_eq!(merge_streams(&views), expected, "case {case}");
            if let Ok(merged) = &expected {
                duplicate_ties += merged
                    .windows(2)
                    .filter(|w| w[0].tenant == w[1].tenant && w[0].entry.at == w[1].entry.at)
                    .filter(|w| w[0].entry.offset >> 32 != w[1].entry.offset >> 32)
                    .count();
            }
        }
        // The generator really produced the hard cases.
        assert!(duplicate_ties > 0, "no same-instant duplicate-tenant ties");
        assert!(regressions > 50, "only {regressions} regressing cases");
    }

    #[test]
    fn merge_of_empty_and_single_streams_is_trivial() {
        assert_eq!(merge_streams(&[]).unwrap(), Vec::new());
        let only = vec![entry(1, 0), entry(2, 4096)];
        let merged = merge_streams(&[(9, &only), (3, &[])]).unwrap();
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().all(|m| m.tenant == 9));
    }
}
