//! The calibrated device roster of the paper's Table I.

use uc_blockdev::{BlockDevice, CheckpointDevice, DeviceFactory};
use uc_essd::{Essd, EssdConfig};
use uc_ssd::{Ssd, SsdConfig};

/// Which of the paper's three devices to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The local-SSD baseline (Samsung 970 Pro class).
    LocalSsd,
    /// ESSD-1 (AWS io2 class).
    Essd1,
    /// ESSD-2 (Alibaba PL3 class).
    Essd2,
}

impl DeviceKind {
    /// All three devices, in the paper's order.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Essd1, DeviceKind::Essd2, DeviceKind::LocalSsd];

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::LocalSsd => "SSD",
            DeviceKind::Essd1 => "ESSD-1",
            DeviceKind::Essd2 => "ESSD-2",
        }
    }

    /// Filename-safe lowercase slug (used in checkpoint file names).
    pub fn slug(&self) -> &'static str {
        match self {
            DeviceKind::LocalSsd => "ssd",
            DeviceKind::Essd1 => "essd-1",
            DeviceKind::Essd2 => "essd-2",
        }
    }
}

uc_persist::persist_enum! { DeviceKind { 0 = LocalSsd, 1 = Essd1, 2 = Essd2 } }

/// The payload codecs of every device class the roster builds.
///
/// This is the registry
/// [`DeviceCheckpoint::load_from`](uc_blockdev::DeviceCheckpoint::load_from)
/// needs to thaw an on-disk checkpoint of *any* roster device: the
/// record's kind tag selects the SSD or ESSD decoder, and an unknown tag
/// fails typed instead of misparsing.
pub fn payload_codecs() -> Vec<uc_blockdev::PayloadCodec> {
    vec![
        uc_blockdev::PayloadCodec::of::<uc_ssd::SsdCheckpoint>(),
        uc_blockdev::PayloadCodec::of::<uc_essd::EssdCheckpoint>(),
    ]
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A factory for fresh instances of the paper's three devices.
///
/// Experiments build a *fresh* device per measurement cell so that FTL and
/// buffer state cannot leak between cells; the roster carries the scaled
/// capacities (the paper's 1 TB SSD / 2 TB ESSDs keep their 1:2 ratio at
/// simulation scale — see DESIGN.md).
///
/// The roster implements [`DeviceFactory`] (keyed by [`DeviceKind`]), so
/// the parallel cell executor — and any other consumer of the factory
/// seam — can hand one shared roster to many worker threads and let each
/// cell build its own device where it runs.
///
/// A `scale` multiplier (see [`DeviceRoster::with_scale`]) grows every
/// capacity proportionally toward the paper's TB-scale settings; `--scale
/// 1024` on the `contract` binary reproduces the paper's full 1 TB / 2 TB
/// geometry.
///
/// # Example
///
/// ```
/// use uc_core::devices::{DeviceKind, DeviceRoster};
///
/// let roster = DeviceRoster::scaled_default();
/// let mut ssd = roster.build(DeviceKind::LocalSsd);
/// assert!(ssd.info().capacity() >= roster.ssd_capacity());
///
/// let bigger = roster.with_scale(4);
/// assert_eq!(bigger.ssd_capacity(), 4 * roster.ssd_capacity());
/// ```
#[derive(Debug, Clone)]
pub struct DeviceRoster {
    ssd_capacity: u64,
    essd_capacity: u64,
    scale: u64,
}

impl DeviceRoster {
    /// The default simulation scale: 1 GiB SSD, 2 GiB ESSDs (the paper's
    /// 1 TB : 2 TB ratio at 1/1024 scale).
    pub fn scaled_default() -> Self {
        DeviceRoster {
            ssd_capacity: 1 << 30,
            essd_capacity: 2 << 30,
            scale: 1,
        }
    }

    /// A roster with explicit capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is below 64 MiB (too small for the scaled
    /// geometries to be meaningful).
    pub fn with_capacities(ssd: u64, essd: u64) -> Self {
        assert!(
            ssd >= 64 << 20 && essd >= 64 << 20,
            "capacities below 64 MiB produce degenerate geometries"
        );
        DeviceRoster {
            ssd_capacity: ssd,
            essd_capacity: essd,
            scale: 1,
        }
    }

    /// This roster with its capacity multiplier *set* to `scale` —
    /// replacing any previous multiplier, so effective capacities are
    /// always `base × scale` (the ROADMAP "scale story" knob: `scale =
    /// 1024` turns the default GiB-scale roster into the paper's TB-scale
    /// devices).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn with_scale(&self, scale: u64) -> Self {
        assert!(scale > 0, "scale multiplier must be positive");
        DeviceRoster {
            ssd_capacity: self.ssd_capacity,
            essd_capacity: self.essd_capacity,
            scale,
        }
    }

    /// The active capacity multiplier.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The SSD's scaled capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `base × scale` overflows `u64` (release builds would
    /// otherwise wrap silently into nonsense geometry).
    pub fn ssd_capacity(&self) -> u64 {
        self.ssd_capacity
            .checked_mul(self.scale)
            .expect("scaled SSD capacity overflows u64")
    }

    /// The ESSDs' scaled capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `base × scale` overflows `u64`.
    pub fn essd_capacity(&self) -> u64 {
        self.essd_capacity
            .checked_mul(self.scale)
            .expect("scaled ESSD capacity overflows u64")
    }

    /// The capacity `kind` is built with.
    pub fn capacity_of(&self, kind: DeviceKind) -> u64 {
        match kind {
            DeviceKind::LocalSsd => self.ssd_capacity(),
            _ => self.essd_capacity(),
        }
    }

    /// Builds a fresh instance of `kind`.
    pub fn build(&self, kind: DeviceKind) -> Box<dyn BlockDevice + Send> {
        match kind {
            DeviceKind::LocalSsd => {
                Box::new(Ssd::new(SsdConfig::samsung_970_pro(self.ssd_capacity())))
            }
            DeviceKind::Essd1 => Box::new(Essd::new(EssdConfig::aws_io2(self.essd_capacity()))),
            DeviceKind::Essd2 => Box::new(Essd::new(EssdConfig::alibaba_pl3(self.essd_capacity()))),
        }
    }

    /// Builds a fresh instance with a distinct jitter seed (for
    /// repeated-trial experiments).
    pub fn build_seeded(&self, kind: DeviceKind, seed: u64) -> Box<dyn BlockDevice + Send> {
        // Same construction as the checkpoint seam, upcast to the plain
        // data-path trait — one copy of the per-kind profiles to maintain.
        self.build_checkpointable(kind, seed)
    }

    /// Builds a fresh, seeded instance through the checkpoint seam: the
    /// same device [`DeviceRoster::build_seeded`] returns, typed so its
    /// complete hidden state can be captured and restored
    /// ([`CheckpointDevice`]).
    ///
    /// This is how the segmented Figure 3 runner moves one device's
    /// endurance timeline between workers: build here, restore the
    /// previous segment's checkpoint into it, run to the next milestone.
    pub fn build_checkpointable(
        &self,
        kind: DeviceKind,
        seed: u64,
    ) -> Box<dyn CheckpointDevice + Send> {
        match kind {
            DeviceKind::LocalSsd => Box::new(Ssd::with_seed(
                SsdConfig::samsung_970_pro(self.ssd_capacity()),
                seed,
            )),
            DeviceKind::Essd1 => Box::new(Essd::new(
                EssdConfig::aws_io2(self.essd_capacity()).with_seed(seed),
            )),
            DeviceKind::Essd2 => Box::new(Essd::new(
                EssdConfig::alibaba_pl3(self.essd_capacity()).with_seed(seed),
            )),
        }
    }
}

impl DeviceFactory for DeviceRoster {
    type Key = DeviceKind;

    fn fresh(&self, key: DeviceKind, seed: u64) -> Box<dyn BlockDevice + Send> {
        self.build_seeded(key, seed)
    }
}

impl Default for DeviceRoster {
    fn default() -> Self {
        DeviceRoster::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_builds_all_kinds() {
        let roster = DeviceRoster::scaled_default();
        for kind in DeviceKind::ALL {
            let dev = roster.build(kind);
            assert!(dev.info().capacity() > 0, "{kind}");
        }
    }

    #[test]
    fn capacities_keep_paper_ratio() {
        let roster = DeviceRoster::scaled_default();
        assert_eq!(roster.essd_capacity(), 2 * roster.ssd_capacity());
        assert_eq!(
            roster.capacity_of(DeviceKind::Essd1),
            roster.capacity_of(DeviceKind::Essd2)
        );
    }

    #[test]
    fn scale_multiplies_every_capacity() {
        let roster = DeviceRoster::scaled_default();
        let scaled = roster.with_scale(8);
        assert_eq!(scaled.scale(), 8);
        assert_eq!(scaled.ssd_capacity(), 8 * roster.ssd_capacity());
        assert_eq!(scaled.essd_capacity(), 8 * roster.essd_capacity());
        for kind in DeviceKind::ALL {
            assert_eq!(scaled.capacity_of(kind), 8 * roster.capacity_of(kind));
        }
        // The paper ratio survives scaling.
        assert_eq!(scaled.essd_capacity(), 2 * scaled.ssd_capacity());
        // with_scale *sets* the multiplier; it does not compose.
        assert_eq!(
            scaled.with_scale(2).ssd_capacity(),
            2 * roster.ssd_capacity()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = DeviceRoster::scaled_default().with_scale(0);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn absurd_scale_panics_instead_of_wrapping() {
        let _ = DeviceRoster::scaled_default()
            .with_scale(u64::MAX)
            .ssd_capacity();
    }

    #[test]
    fn roster_is_a_device_factory() {
        fn takes_factory<F: DeviceFactory<Key = DeviceKind>>(f: &F) -> u64 {
            f.fresh(DeviceKind::Essd1, 3).info().capacity()
        }
        let roster = DeviceRoster::scaled_default();
        assert_eq!(takes_factory(&roster), roster.essd_capacity());
        // Factories cross threads: build each kind on its own worker.
        std::thread::scope(|scope| {
            for kind in DeviceKind::ALL {
                let roster = &roster;
                scope.spawn(move || {
                    assert!(roster.fresh(kind, 1).info().capacity() > 0);
                });
            }
        });
    }

    #[test]
    fn checkpointable_build_matches_plain_build() {
        use uc_blockdev::IoRequest;
        use uc_sim::SimTime;
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        for kind in DeviceKind::ALL {
            let mut plain = roster.build_seeded(kind, 42);
            let mut ckpt = roster.build_checkpointable(kind, 42);
            assert_eq!(plain.info(), ckpt.info(), "{kind}");
            let mut now = SimTime::ZERO;
            for i in 0..16u64 {
                let req = IoRequest::write((i % 8) * 65536, 65536, now);
                let a = plain.submit(&req).unwrap();
                let b = ckpt.submit(&req).unwrap();
                assert_eq!(a, b, "{kind}");
                now = a;
            }
            // The checkpoint seam is live on the built object.
            let cp = ckpt.checkpoint();
            assert_eq!(cp.device(), ckpt.info().name());
            ckpt.restore_from(cp).unwrap();
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DeviceKind::LocalSsd.label(), "SSD");
        assert_eq!(DeviceKind::Essd1.to_string(), "ESSD-1");
    }

    #[test]
    #[should_panic(expected = "64 MiB")]
    fn degenerate_capacity_rejected() {
        let _ = DeviceRoster::with_capacities(1 << 20, 1 << 30);
    }
}
