//! Deterministic chunk placement.

/// Stripes a virtual byte range into chunks and places each chunk's
/// replicas on distinct nodes.
///
/// Placement is a pure function of `(chunk, seed)`: no state is stored, so
/// maps are cheap for arbitrarily large virtual disks and reproducible
/// across runs. The placement hash spreads consecutive chunks across
/// unrelated node sets, which is what gives *random* writes their backend
/// parallelism advantage over a chunk-bound sequential stream
/// (Observation 3 of the paper).
///
/// # Example
///
/// ```
/// use uc_cluster::ChunkMap;
///
/// let map = ChunkMap::new(1 << 20, 12, 3, 42);
/// let replicas: Vec<usize> = map.replicas(7).collect();
/// assert_eq!(replicas.len(), 3);
/// // Replicas are distinct nodes.
/// assert!(replicas[0] != replicas[1] && replicas[1] != replicas[2]);
/// // Placement is deterministic.
/// assert!(map.replicas(7).eq(replicas));
/// // A byte range splits at chunk boundaries.
/// let frags: Vec<(u64, u32)> = map.fragments((1 << 20) - 4096, 8192).collect();
/// assert_eq!(frags, [(0, 4096), (1, 4096)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMap {
    chunk_bytes: u64,
    nodes: usize,
    replication: usize,
    seed: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChunkMap {
    /// A map with the given striping granularity and placement parameters.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0`, `nodes == 0`, or `replication` is not
    /// in `[1, nodes]`.
    pub fn new(chunk_bytes: u64, nodes: usize, replication: usize, seed: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        assert!(nodes > 0, "node count must be positive");
        assert!(
            (1..=nodes).contains(&replication),
            "replication must be in [1, nodes]"
        );
        ChunkMap {
            chunk_bytes,
            nodes,
            replication,
            seed,
        }
    }

    /// Striping granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// The chunk containing byte `offset`.
    pub fn chunk_of(&self, offset: u64) -> u64 {
        offset / self.chunk_bytes
    }

    /// The distinct nodes holding `chunk`, primary first.
    pub fn replicas(&self, chunk: u64) -> impl ExactSizeIterator<Item = usize> {
        let start = splitmix64(chunk ^ self.seed);
        Replicas {
            nodes: self.nodes as u64,
            start,
            state: start,
            drawn: 0,
            left: self.replication,
        }
    }

    /// Splits the byte range `[offset, offset + len)` at chunk boundaries,
    /// yielding `(chunk, fragment_len)` pairs in address order.
    pub fn fragments(&self, offset: u64, len: u32) -> impl Iterator<Item = (u64, u32)> {
        let chunk_bytes = self.chunk_bytes;
        let end = offset + len as u64;
        let mut cur = offset;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let chunk = cur / chunk_bytes;
            let frag = ((chunk + 1) * chunk_bytes).min(end) - cur;
            cur += frag;
            Some((chunk, frag as u32))
        })
    }
}

/// The replica nodes of one chunk, primary first.
///
/// Nodes are drawn from a splitmix64 chain seeded by the chunk, skipping
/// draws that repeat an earlier one. Instead of remembering the nodes it
/// yielded, the iterator replays the chain up to the current draw, so it
/// never allocates; with a replication factor of a few nodes that replay
/// is a handful of hashes.
struct Replicas {
    nodes: u64,
    start: u64,
    state: u64,
    drawn: usize,
    left: usize,
}

impl Iterator for Replicas {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        loop {
            self.state = splitmix64(self.state);
            let node = self.state % self.nodes;
            let mut earlier = self.start;
            let repeat = (0..self.drawn).any(|_| {
                earlier = splitmix64(earlier);
                earlier % self.nodes == node
            });
            self.drawn += 1;
            if !repeat {
                self.left -= 1;
                return Some(node as usize);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Replicas {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn replicas_are_distinct_and_stable() {
        let map = ChunkMap::new(1 << 20, 10, 3, 9);
        for chunk in 0..100 {
            let r: Vec<usize> = map.replicas(chunk).collect();
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "chunk {chunk}: duplicate replica");
            assert!(map.replicas(chunk).eq(r));
        }
    }

    #[test]
    fn placement_is_balanced() {
        let map = ChunkMap::new(1 << 20, 8, 3, 1);
        let mut load: HashMap<usize, usize> = HashMap::new();
        let chunks = 4000;
        for c in 0..chunks {
            for n in map.replicas(c) {
                *load.entry(n).or_default() += 1;
            }
        }
        let expected = chunks as usize * 3 / 8;
        for n in 0..8 {
            let l = load.get(&n).copied().unwrap_or(0);
            assert!(
                (l as i64 - expected as i64).unsigned_abs() < (expected / 5) as u64,
                "node {n} holds {l} of ~{expected}"
            );
        }
    }

    #[test]
    fn consecutive_chunks_get_different_primaries() {
        let map = ChunkMap::new(1 << 20, 16, 3, 5);
        let primaries: Vec<usize> = (0..32).map(|c| map.replicas(c).next().unwrap()).collect();
        let distinct: std::collections::HashSet<_> = primaries.iter().collect();
        assert!(
            distinct.len() > 8,
            "placement should spread consecutive chunks, got {distinct:?}"
        );
    }

    #[test]
    fn replicas_match_a_set_based_reference() {
        // The draw-and-skip-repeats placement, remembering picked nodes.
        fn reference(map: &ChunkMap, chunk: u64) -> Vec<usize> {
            let mut picked = Vec::new();
            let mut state = splitmix64(chunk ^ map.seed);
            while picked.len() < map.replication {
                state = splitmix64(state);
                let node = (state % map.nodes as u64) as usize;
                if !picked.contains(&node) {
                    picked.push(node);
                }
            }
            picked
        }
        for (nodes, replication) in [(3, 3), (4, 1), (8, 3), (12, 3), (24, 5)] {
            let map = ChunkMap::new(1 << 20, nodes, replication, 0x5EED);
            for chunk in 0..500 {
                let r = map.replicas(chunk);
                assert_eq!(r.len(), replication);
                assert_eq!(r.collect::<Vec<_>>(), reference(&map, chunk));
            }
        }
    }

    #[test]
    fn fragments_cover_range_exactly() {
        let map = ChunkMap::new(64 << 10, 4, 2, 0);
        let frags: Vec<(u64, u32)> = map.fragments(32 << 10, 160 << 10).collect();
        let total: u64 = frags.iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(total, 160 << 10);
        assert_eq!(frags[0], (0, 32 << 10));
        assert_eq!(frags[1], (1, 64 << 10));
        assert_eq!(frags[2], (2, 64 << 10));
        assert_eq!(frags.len(), 3);
    }

    #[test]
    fn aligned_request_is_single_fragment() {
        let map = ChunkMap::new(1 << 20, 4, 2, 0);
        assert!(map.fragments(5 << 20, 4096).eq([(5, 4096)]));
    }

    #[test]
    fn full_replication_uses_every_node() {
        let map = ChunkMap::new(1 << 20, 3, 3, 7);
        let mut r: Vec<usize> = map.replicas(11).collect();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn bad_replication_panics() {
        let _ = ChunkMap::new(1 << 20, 2, 3, 0);
    }
}
