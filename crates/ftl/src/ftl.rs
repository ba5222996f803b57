//! The page-mapping FTL itself.

use crate::map::{assert_page_map_fits, PageMap};
use crate::{BlockState, FtlConfig, FtlStats, GcPolicy, WearStats};
use uc_flash::{FlashArray, FlashOpStats};
use uc_invariant::{ensure, Contract, Violation};
use uc_sim::SimTime;

/// A deterministic, one-shot map-corruption fault for invariant testing.
///
/// Only exists with the test-only `fault-injection` feature; the invariant
/// property suites arm one of these and prove the [`Contract`] audit
/// catches the corruption with a shrunk minimal repro.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFault {
    /// The next host write updates L2P but leaves the reverse map stale —
    /// the classic torn-map-update bug.
    DropReverseMapping,
    /// The next host write forgets the block's valid-count increment,
    /// breaking valid-count conservation.
    SkipValidCount,
}

/// A page-level flash translation layer over a [`FlashArray`].
///
/// Host writes are striped round-robin across dies (one open "host
/// frontier" block per die); GC relocations stay within their die (one open
/// "GC frontier" block per die). All NAND operations — host, relocation and
/// erase — share the same die/channel timelines, so GC pressure shows up as
/// foreground latency exactly as on a real drive.
///
/// # Page-granular interface
///
/// The FTL works in whole pages; callers (the SSD device model) split byte
/// requests into page operations.
///
/// # Example
///
/// ```
/// use uc_flash::{FlashGeometry, FlashTiming};
/// use uc_ftl::{Ftl, FtlConfig};
/// use uc_sim::SimTime;
///
/// let g = FlashGeometry::new(2, 2, 1, 16, 64, 4096)?;
/// let mut ftl = Ftl::new(FtlConfig::new(g, FlashTiming::mlc()));
/// let mut now = SimTime::ZERO;
/// for lpn in 0..100 {
///     now = ftl.write_page(now, lpn);
/// }
/// assert_eq!(ftl.stats().host_pages_written, 100);
/// assert!(ftl.stats().write_amplification() >= 1.0);
/// # Ok::<(), uc_flash::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    pub(crate) config: FtlConfig,
    pub(crate) flash: FlashArray,
    /// Logical page -> physical page (none if unmapped).
    pub(crate) l2p: PageMap,
    /// Physical page -> logical page (none if the page is stale).
    pub(crate) p2l: PageMap,
    /// All block states, indexed `die * blocks_per_die + slot`.
    pub(crate) blocks: Vec<BlockState>,
    /// Per-die stacks of free block slots.
    pub(crate) free: Vec<Vec<u32>>,
    /// Per-die open block receiving host writes.
    pub(crate) open_host: Vec<u32>,
    /// Per-die open block receiving GC relocations.
    pub(crate) open_gc: Vec<u32>,
    /// Round-robin die cursor for host writes.
    pub(crate) cursor: u32,
    /// Monotonic open-sequence counter (GC age reference).
    pub(crate) seq: u64,
    pub(crate) stats: FtlStats,
    /// One-shot fault armed by the invariant test suites.
    #[cfg(feature = "fault-injection")]
    pub(crate) armed_fault: Option<MapFault>,
}

impl Ftl {
    /// Builds an FTL with every block free except one host frontier and one
    /// GC frontier per die.
    ///
    /// Watermarks are sanitized (trigger ≥ 3; trigger < target ≤ trigger+3)
    /// and the logical capacity is clamped so that, even with every logical
    /// page mapped, each die retains at least `target` free blocks — the
    /// invariant that lets GC always terminate. On realistic geometries the
    /// over-provisioning fraction is the binding constraint; on very small
    /// test geometries the watermark clamp may shave extra capacity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has too few blocks per die to hold the two
    /// write frontiers plus the GC watermark (needs `blocks_per_die >
    /// target + 3`), or if it has `u32::MAX` physical pages or more (16 TiB
    /// at 4 KiB pages).
    pub fn new(config: FtlConfig) -> Self {
        // Sanitization and the logical-capacity clamp live on `FtlConfig`
        // so the checkpoint decoder can validate against the same math.
        let config = config.sanitized();
        let g = config.geometry;
        let dies = g.total_dies() as usize;
        let bpd = g.blocks_per_die();
        let total_blocks = g.total_blocks() as usize;
        assert!(
            bpd > config.gc_target_free + 3,
            "geometry too small: {} blocks/die cannot hold frontiers + watermark {}",
            bpd,
            config.gc_target_free
        );
        assert_page_map_fits(g);
        let logical = config.effective_logical_pages() as usize;

        let mut free: Vec<Vec<u32>> = (0..dies)
            // Stacks pop from the back; push slots in reverse so low slots
            // are used first (purely cosmetic determinism).
            .map(|_| (0..bpd).rev().collect())
            .collect();
        let mut blocks = vec![BlockState::default(); total_blocks];
        let mut open_host = Vec::with_capacity(dies);
        let mut open_gc = Vec::with_capacity(dies);
        let mut seq = 0u64;
        for die_free in free.iter_mut() {
            let host = die_free.pop().expect("geometry has at least 2 blocks/die");
            let gc = die_free.pop().expect("geometry has at least 2 blocks/die");
            open_host.push(host);
            open_gc.push(gc);
            seq += 2;
        }
        for (die, (&h, &g_)) in open_host.iter().zip(&open_gc).enumerate() {
            blocks[die * bpd as usize + h as usize].opened_seq = 0;
            blocks[die * bpd as usize + g_ as usize].opened_seq = 1;
        }

        Ftl {
            flash: FlashArray::new(g, config.timing),
            l2p: PageMap::unmapped(logical),
            p2l: PageMap::unmapped(g.total_pages() as usize),
            blocks,
            free,
            open_host,
            open_gc,
            cursor: 0,
            seq,
            stats: FtlStats::default(),
            config,
            #[cfg(feature = "fault-injection")]
            armed_fault: None,
        }
    }

    /// Arms a one-shot [`MapFault`]: the next host write executes with the
    /// corresponding bookkeeping bug. Test-only.
    #[cfg(feature = "fault-injection")]
    pub fn arm_fault(&mut self, fault: MapFault) {
        self.armed_fault = Some(fault);
    }

    /// The configuration this FTL was built with.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Host-visible pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.config.geometry.page_size()
    }

    /// Activity counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Raw flash operation counters.
    pub fn flash_stats(&self) -> FlashOpStats {
        self.flash.stats()
    }

    /// Total free blocks across all dies.
    pub fn free_blocks(&self) -> u64 {
        self.free.iter().map(|f| f.len() as u64).sum()
    }

    /// Wear summary over all blocks.
    pub fn wear(&self) -> WearStats {
        WearStats::from_counts(self.blocks.iter().map(|b| b.erase_count))
    }

    /// Writes one logical page, returning the completion instant of its
    /// program operation (including any GC stall it absorbed).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn write_page(&mut self, now: SimTime, lpn: u64) -> SimTime {
        assert!(
            lpn < self.l2p.len(),
            "lpn {lpn} out of range ({} logical pages)",
            self.l2p.len()
        );
        let die = self.cursor;
        self.cursor = (self.cursor + 1) % self.config.geometry.total_dies();

        self.ensure_free_blocks(now, die);

        // Invalidate the previous location, if any.
        if let Some(old) = self.l2p.get(lpn) {
            self.invalidate_ppn(old);
        }

        let ppn = self.allocate_host_page(die);
        self.l2p.set(lpn, ppn);
        self.p2l.set(ppn, lpn);

        #[cfg(feature = "fault-injection")]
        if let Some(fault) = self.armed_fault.take() {
            match fault {
                MapFault::DropReverseMapping => self.p2l.clear(ppn),
                MapFault::SkipValidCount => {
                    // Undo the increment `allocate_host_page` just made.
                    let block = (ppn / self.ppb() as u64) as usize;
                    self.blocks[block].valid -= 1;
                }
            }
        }

        // Contract hook (O(1)): the map update we just made round-trips.
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "map-update-roundtrip",
                self.p2l.get(ppn) == Some(lpn),
                "write lpn {lpn} -> ppn {ppn}, but reverse map holds {:?}",
                self.p2l.get(ppn)
            );
            Ok(())
        });

        self.stats.host_pages_written += 1;
        self.flash.program_page(now, die)
    }

    /// Reads one logical page, returning the completion instant.
    ///
    /// Reads of never-written pages still cost a flash access (the device
    /// cannot know the page is unmapped until it consults the out-of-band
    /// area in older parts; timing-wise we charge a read on a
    /// deterministically-hashed die).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn read_page(&mut self, now: SimTime, lpn: u64) -> SimTime {
        assert!(
            lpn < self.l2p.len(),
            "lpn {lpn} out of range ({} logical pages)",
            self.l2p.len()
        );
        let die = match self.l2p.get(lpn) {
            Some(ppn) => self.die_of_ppn(ppn),
            None => {
                (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.config.geometry.total_dies() as u64)
                    as u32
            }
        };
        self.stats.host_pages_read += 1;
        self.flash.read_page(now, die)
    }

    /// Invalidates a logical page without writing (TRIM/discard).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn trim(&mut self, lpn: u64) {
        assert!(lpn < self.l2p.len(), "lpn out of range");
        if let Some(old) = self.l2p.get(lpn) {
            self.invalidate_ppn(old);
            self.l2p.clear(lpn);
            self.stats.pages_trimmed += 1;

            // Contract hook (O(1)): both directions of the dead mapping
            // are gone.
            uc_invariant::enforce(|| {
                ensure!(
                    self,
                    "trim-unmaps-both-directions",
                    self.l2p.get(lpn).is_none() && self.p2l.get(old).is_none(),
                    "trim of lpn {lpn} left l2p {:?} / p2l[{old}] {:?}",
                    self.l2p.get(lpn),
                    self.p2l.get(old)
                );
                Ok(())
            });
        }
    }

    /// `true` if `lpn` currently maps to a physical page.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        lpn < self.l2p.len() && self.l2p.get(lpn).is_some()
    }

    /// Count of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.l2p.count_mapped()
    }

    /// Sum of valid counts over all blocks (must equal
    /// [`Ftl::mapped_pages`]; exposed for invariant testing).
    pub fn total_valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid as u64).sum()
    }

    // ---- internals ----------------------------------------------------

    fn bpd(&self) -> u32 {
        self.config.geometry.blocks_per_die()
    }

    fn ppb(&self) -> u32 {
        self.config.geometry.pages_per_block()
    }

    fn block_index(&self, die: u32, slot: u32) -> usize {
        (die * self.bpd() + slot) as usize
    }

    fn ppn_of(&self, die: u32, slot: u32, page: u32) -> u64 {
        (self.block_index(die, slot) as u64) * self.ppb() as u64 + page as u64
    }

    fn die_of_ppn(&self, ppn: u64) -> u32 {
        ((ppn / self.ppb() as u64) / self.bpd() as u64) as u32
    }

    fn invalidate_ppn(&mut self, ppn: u64) {
        let block = (ppn / self.ppb() as u64) as usize;
        debug_assert!(self.blocks[block].valid > 0, "double invalidation");
        self.blocks[block].valid -= 1;
        self.p2l.clear(ppn);
    }

    /// Takes the next page of `die`'s host frontier, rotating to a fresh
    /// block when it fills.
    fn allocate_host_page(&mut self, die: u32) -> u64 {
        let slot = self.open_host[die as usize];
        let idx = self.block_index(die, slot);
        let page = self.blocks[idx].written;
        self.blocks[idx].written += 1;
        self.blocks[idx].valid += 1;
        if self.blocks[idx].is_full(self.ppb()) {
            let fresh = self.free[die as usize]
                .pop()
                .expect("ensure_free_blocks keeps at least one free block");
            self.open_host[die as usize] = fresh;
            let fidx = self.block_index(die, fresh);
            self.blocks[fidx].opened_seq = self.seq;
            self.seq += 1;
        }
        self.ppn_of(die, slot, page)
    }

    /// Runs GC on `die` until the free pool recovers to the target
    /// watermark (or no victim yields net space).
    fn ensure_free_blocks(&mut self, now: SimTime, die: u32) {
        if (self.free[die as usize].len() as u32) > self.config.gc_trigger_free {
            return;
        }
        let mut guard = self.bpd() * 2;
        while (self.free[die as usize].len() as u32) < self.config.gc_target_free && guard > 0 {
            guard -= 1;
            if !self.gc_one_block(now, die) {
                break;
            }
        }
    }

    /// Collects one victim block on `die`. Returns `false` if no victim
    /// exists or the best victim would free no space.
    fn gc_one_block(&mut self, now: SimTime, die: u32) -> bool {
        let bpd = self.bpd();
        let ppb = self.ppb();
        let host_open = self.open_host[die as usize];
        let gc_open = self.open_gc[die as usize];
        let base = self.block_index(die, 0);

        let pick_with = |blocks: &[BlockState], policy: GcPolicy, seq: u64| {
            let candidates = (0..bpd).filter_map(|slot| {
                if slot == host_open || slot == gc_open {
                    return None;
                }
                let b = &blocks[base + slot as usize];
                if b.is_full(ppb) {
                    Some((slot as usize, b))
                } else {
                    None
                }
            });
            policy.pick(candidates, ppb, seq)
        };

        let mut victim_slot = match pick_with(&self.blocks, self.config.gc_policy, self.seq) {
            Some(slot) => slot as u32,
            None => return false,
        };
        // A fully-valid victim frees no space; fall back to greedy (real
        // FIFO/cost-benefit firmwares skip such blocks too).
        if self.blocks[base + victim_slot as usize].valid >= ppb {
            victim_slot = match pick_with(&self.blocks, GcPolicy::Greedy, self.seq) {
                Some(slot) => slot as u32,
                None => return false,
            };
            if self.blocks[base + victim_slot as usize].valid >= ppb {
                return false;
            }
        }
        self.stats.gc_invocations += 1;

        let victim_idx = base + victim_slot as usize;

        // Relocate every live page of the victim into the GC frontier.
        let victim_written = self.blocks[victim_idx].written;
        for page in 0..victim_written {
            let ppn = self.ppn_of(die, victim_slot, page);
            let Some(lpn) = self.p2l.get(ppn) else {
                continue;
            };
            self.flash.read_page(now, die);
            let new_ppn = self.allocate_gc_page(die);
            self.flash.program_page(now, die);
            // Rebind the logical page.
            self.p2l.clear(ppn);
            self.l2p.set(lpn, new_ppn);
            self.p2l.set(new_ppn, lpn);
            self.blocks[victim_idx].valid -= 1;
            self.stats.gc_pages_relocated += 1;

            // Contract hook (O(1)): the relocation rebound the logical
            // page and retired the old physical page.
            uc_invariant::enforce(|| {
                ensure!(
                    self,
                    "gc-relocation-rebinds",
                    self.l2p.get(lpn) == Some(new_ppn)
                        && self.p2l.get(new_ppn) == Some(lpn)
                        && self.p2l.get(ppn).is_none(),
                    "GC moved lpn {lpn}: ppn {ppn} -> {new_ppn}, maps now \
                     l2p {:?} / p2l[new] {:?} / p2l[old] {:?}",
                    self.l2p.get(lpn),
                    self.p2l.get(new_ppn),
                    self.p2l.get(ppn)
                );
                Ok(())
            });
        }
        // Contract hook (O(1)): a collected victim holds no live data.
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "gc-victim-drained",
                self.blocks[victim_idx].valid == 0,
                "victim block {victim_idx} still has {} valid pages after GC",
                self.blocks[victim_idx].valid
            );
            Ok(())
        });

        // Erase and return the victim to the free pool.
        self.flash.erase_block(now, die);
        self.blocks[victim_idx].erase();
        self.free[die as usize].push(victim_slot);
        self.stats.gc_blocks_erased += 1;
        true
    }

    /// Takes the next page of `die`'s GC frontier, rotating when full.
    fn allocate_gc_page(&mut self, die: u32) -> u64 {
        let slot = self.open_gc[die as usize];
        let idx = self.block_index(die, slot);
        let page = self.blocks[idx].written;
        self.blocks[idx].written += 1;
        self.blocks[idx].valid += 1;
        if self.blocks[idx].is_full(self.ppb()) {
            let fresh = self.free[die as usize]
                .pop()
                .expect("GC reserve guarantees a free block for the GC frontier");
            self.open_gc[die as usize] = fresh;
            let fidx = self.block_index(die, fresh);
            self.blocks[fidx].opened_seq = self.seq;
            self.seq += 1;
        }
        self.ppn_of(die, slot, page)
    }
}

/// Full structural audit of the FTL mapping machinery. O(physical pages);
/// called by the invariant property suites after every op, and manually
/// from debuggers — never from the per-op hot path.
impl Contract for Ftl {
    fn contract_name(&self) -> &'static str {
        "uc-ftl/Ftl"
    }

    fn check(&self) -> Result<(), Violation> {
        let ppb = self.ppb();
        // Forward direction: every mapped logical page round-trips.
        for (lpn, ppn) in (0u64..).zip(self.l2p.iter()) {
            let Some(ppn) = ppn else {
                continue;
            };
            ensure!(
                self,
                "l2p-in-range",
                ppn < self.p2l.len(),
                "lpn {lpn} maps to ppn {ppn} beyond {} physical pages",
                self.p2l.len()
            );
            ensure!(
                self,
                "l2p-p2l-bijective",
                self.p2l.get(ppn) == Some(lpn),
                "lpn {lpn} -> ppn {ppn}, but reverse map holds {:?}",
                self.p2l.get(ppn)
            );
        }
        // Reverse direction: every live physical page round-trips.
        for (ppn, lpn) in (0u64..).zip(self.p2l.iter()) {
            let Some(lpn) = lpn else {
                continue;
            };
            ensure!(
                self,
                "p2l-in-range",
                lpn < self.l2p.len(),
                "ppn {ppn} claims lpn {lpn} beyond {} logical pages",
                self.l2p.len()
            );
            ensure!(
                self,
                "p2l-l2p-bijective",
                self.l2p.get(lpn) == Some(ppn),
                "ppn {ppn} claims lpn {lpn}, but forward map holds {:?}",
                self.l2p.get(lpn)
            );
        }
        // Conservation: block valid counts account for exactly the mapped
        // pages — no leaked and no phantom liveness.
        let mapped = self.mapped_pages();
        let valid = self.total_valid_pages();
        ensure!(
            self,
            "valid-count-conservation",
            mapped == valid,
            "{mapped} mapped logical pages but block valid counts sum to {valid}"
        );
        let live = self.p2l.count_mapped();
        ensure!(
            self,
            "live-ppn-conservation",
            live == mapped,
            "{mapped} mapped logical pages but {live} live physical pages"
        );
        // Per-block sanity.
        for (i, b) in self.blocks.iter().enumerate() {
            ensure!(
                self,
                "block-valid-le-written",
                b.valid <= b.written,
                "block {i}: {} valid pages exceed {} written",
                b.valid,
                b.written
            );
            ensure!(
                self,
                "block-written-le-capacity",
                b.written <= ppb,
                "block {i}: {} written pages exceed block capacity {ppb}",
                b.written
            );
        }
        // Free blocks are blank (erase really reset them).
        for (die, stack) in self.free.iter().enumerate() {
            for &slot in stack {
                let b = &self.blocks[die * self.bpd() as usize + slot as usize];
                ensure!(
                    self,
                    "free-block-blank",
                    b.written == 0 && b.valid == 0,
                    "free block die {die} slot {slot} has written {} / valid {}",
                    b.written,
                    b.valid
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_flash::{FlashGeometry, FlashTiming};
    use uc_persist::Persist;

    fn small_ftl() -> Ftl {
        // 2 channels x 2 dies, 16 blocks/die, 64 pages, 4 KiB pages.
        let g = FlashGeometry::new(2, 2, 1, 16, 64, 4096).unwrap();
        Ftl::new(FtlConfig::new(g, FlashTiming::mlc()).with_over_provisioning(0.2))
    }

    /// A geometry large enough that over-provisioning (not the watermark
    /// clamp) bounds logical capacity, so GC behaviour is realistic.
    fn gc_ftl(op: f64, policy: GcPolicy) -> Ftl {
        let g = FlashGeometry::new(2, 2, 1, 64, 64, 4096).unwrap();
        Ftl::new(
            FtlConfig::new(g, FlashTiming::mlc())
                .with_over_provisioning(op)
                .with_gc_policy(policy),
        )
    }

    #[test]
    fn read_your_writes_mapping() {
        let mut ftl = small_ftl();
        let mut now = SimTime::ZERO;
        for lpn in 0..50 {
            now = ftl.write_page(now, lpn);
        }
        for lpn in 0..50 {
            assert!(ftl.is_mapped(lpn));
        }
        assert!(!ftl.is_mapped(50));
        assert_eq!(ftl.mapped_pages(), 50);
        assert_eq!(ftl.total_valid_pages(), 50);
    }

    #[test]
    fn overwrite_invalidates_old_location() {
        let mut ftl = small_ftl();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now = ftl.write_page(now, 7);
        }
        assert_eq!(ftl.mapped_pages(), 1);
        assert_eq!(ftl.total_valid_pages(), 1);
        assert_eq!(ftl.stats().host_pages_written, 10);
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = small_ftl();
        ftl.write_page(SimTime::ZERO, 3);
        ftl.trim(3);
        assert!(!ftl.is_mapped(3));
        assert_eq!(ftl.total_valid_pages(), 0);
        assert_eq!(ftl.stats().pages_trimmed, 1);
        // Trimming an unmapped page is a no-op.
        ftl.trim(3);
        assert_eq!(ftl.stats().pages_trimmed, 1);
    }

    #[test]
    fn writes_stripe_across_dies() {
        let mut ftl = small_ftl();
        // 4 dies on 2 channels (die % 2): writes 0 and 1 proceed fully in
        // parallel on separate channels; writes 2 and 3 reuse the channels,
        // queueing only behind the bus transfer, not the whole program.
        let f: Vec<SimTime> = (0..4).map(|l| ftl.write_page(SimTime::ZERO, l)).collect();
        assert_eq!(f[0], f[1]);
        assert_eq!(f[2], f[3]);
        let xfer = FlashTiming::mlc().bus_time(4096);
        assert_eq!(f[2], f[0] + xfer);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_wa_above_one() {
        let mut ftl = gc_ftl(0.08, GcPolicy::Greedy);
        let logical = ftl.logical_pages();
        let mut now = SimTime::ZERO;
        // Write 3x the logical space with uniform random overwrites.
        let mut state = 0xDEADBEEFu64;
        for _ in 0..(logical * 3) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = state % logical;
            now = ftl.write_page(now, lpn);
        }
        let s = ftl.stats();
        assert!(s.gc_blocks_erased > 0, "GC must have run");
        assert!(
            s.write_amplification() > 1.0,
            "random overwrites must amplify writes (wa = {})",
            s.write_amplification()
        );
        // Mapping stays coherent through GC.
        assert_eq!(ftl.mapped_pages(), ftl.total_valid_pages());
        // Free pool never exhausted.
        assert!(ftl.free_blocks() > 0);
    }

    #[test]
    fn sequential_overwrites_have_low_wa() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        let mut now = SimTime::ZERO;
        for round in 0..3 {
            for lpn in 0..logical {
                now = ftl.write_page(now, lpn);
            }
            let _ = round;
        }
        let wa = ftl.stats().write_amplification();
        assert!(
            wa < 1.2,
            "sequential overwrite should produce near-1 WA, got {wa}"
        );
    }

    #[test]
    fn gc_respects_policy_choice() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
            let g = FlashGeometry::new(2, 2, 1, 16, 64, 4096).unwrap();
            let mut ftl = Ftl::new(
                FtlConfig::new(g, FlashTiming::mlc())
                    .with_over_provisioning(0.2)
                    .with_gc_policy(policy),
            );
            let logical = ftl.logical_pages();
            let mut now = SimTime::ZERO;
            let mut state = 1u64;
            for _ in 0..(logical * 2) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                now = ftl.write_page(now, state % logical);
            }
            assert_eq!(ftl.mapped_pages(), ftl.total_valid_pages(), "{policy}");
            assert!(ftl.stats().gc_blocks_erased > 0, "{policy}");
        }
    }

    #[test]
    fn greedy_wa_not_worse_than_fifo() {
        let run = |policy: GcPolicy| {
            let mut ftl = gc_ftl(0.08, policy);
            let logical = ftl.logical_pages();
            let mut now = SimTime::ZERO;
            let mut state = 99u64;
            for _ in 0..(logical * 4) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                now = ftl.write_page(now, state % logical);
            }
            ftl.stats().write_amplification()
        };
        let greedy = run(GcPolicy::Greedy);
        let fifo = run(GcPolicy::Fifo);
        assert!(
            greedy <= fifo + 0.05,
            "greedy WA {greedy} should not exceed FIFO WA {fifo}"
        );
    }

    #[test]
    fn reads_cost_flash_time_even_when_unmapped() {
        let mut ftl = small_ftl();
        let t = ftl.read_page(SimTime::ZERO, 123);
        assert!(t > SimTime::ZERO);
        assert_eq!(ftl.stats().host_pages_read, 1);
    }

    #[test]
    fn wear_accumulates_under_gc() {
        let mut ftl = gc_ftl(0.1, GcPolicy::Greedy);
        let logical = ftl.logical_pages();
        let mut now = SimTime::ZERO;
        let mut state = 5u64;
        for _ in 0..(logical * 4) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            now = ftl.write_page(now, state % logical);
        }
        let wear = ftl.wear();
        assert!(wear.max_erases > 0);
        assert!(wear.mean_erases > 0.0);
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        // Drive a GC-heavy workload to a midpoint, checkpoint, and verify
        // the restored FTL makes byte-identical scheduling and GC
        // decisions from there on.
        let mut a = gc_ftl(0.08, GcPolicy::Greedy);
        let logical = a.logical_pages();
        let mut now = SimTime::ZERO;
        let mut state = 0x5EEDu64;
        let next = |state: &mut u64| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state % logical
        };
        for _ in 0..(logical * 2) {
            now = a.write_page(now, next(&mut state));
        }
        let cp = a.to_bytes();
        let mut b = Ftl::from_bytes(&cp).unwrap();
        assert_eq!(b.to_bytes(), cp, "round trip is lossless");
        let mut state_b = state;
        let mut now_b = now;
        for _ in 0..(logical * 2) {
            now = a.write_page(now, next(&mut state));
            now_b = b.write_page(now_b, next(&mut state_b));
            assert_eq!(now, now_b);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.wear(), b.wear());
        assert_eq!(a.free_blocks(), b.free_blocks());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut ftl = small_ftl();
        let bad = ftl.logical_pages();
        ftl.write_page(SimTime::ZERO, bad);
    }
}
