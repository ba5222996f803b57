//! Tenant placement: which device and capacity slot each tenant lives on.
//!
//! Every device in a fleet pool is carved into fixed-size *slots* of
//! `region_span` bytes; a tenant occupies exactly one slot, and every
//! device keeps at least one slot of headroom so the rebalancer always
//! has somewhere to move a tenant. The assignment is audited by a
//! machine-checked [`Contract`]: across any sequence of migrations no
//! tenant may be lost, duplicated, or double-placed — the *tenant
//! conservation* invariant the rebalancer is held to.

use uc_invariant::{ensure, Contract, Violation};
use uc_sim::SimTime;

/// The tenant-to-slot assignment of a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    region_span: u64,
    slots_per_device: usize,
    device_count: usize,
    /// `homes[tenant]` is the tenant's `(device, slot)`, or `None` for a
    /// tenant lost to a (deliberately injected) migration fault.
    homes: Vec<Option<(usize, usize)>>,
}

impl Placement {
    /// The initial assignment: tenants fill devices in contiguous blocks
    /// (tenant 0..k on device 0, the next k on device 1, …), leaving at
    /// least one free slot per device as migration headroom.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the devices cannot hold every
    /// tenant plus one headroom slot each.
    pub fn contiguous(
        tenants: usize,
        device_count: usize,
        slots_per_device: usize,
        region_span: u64,
    ) -> Self {
        assert!(tenants > 0 && device_count > 0, "empty fleet");
        assert!(region_span > 0, "zero region span");
        let block = tenants.div_ceil(device_count);
        assert!(
            slots_per_device > block,
            "need {block} tenant slots plus headroom per device, have {slots_per_device}"
        );
        let homes = (0..tenants).map(|t| Some((t / block, t % block))).collect();
        Placement {
            region_span,
            slots_per_device,
            device_count,
            homes,
        }
    }

    /// Bytes per slot.
    pub fn region_span(&self) -> u64 {
        self.region_span
    }

    /// Slots carved out of each device.
    pub fn slots_per_device(&self) -> usize {
        self.slots_per_device
    }

    /// Devices in the pool.
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Tenants the placement was built for.
    pub fn tenant_count(&self) -> usize {
        self.homes.len()
    }

    /// The tenant's current `(device, slot)`, or `None` if a migration
    /// fault dropped it.
    pub fn home(&self, tenant: u32) -> Option<(usize, usize)> {
        self.homes[tenant as usize]
    }

    /// Byte offset of a slot's region base within its device.
    pub fn base(&self, slot: usize) -> u64 {
        slot as u64 * self.region_span
    }

    /// The tenants resident on `device`, in ascending id order (the
    /// deterministic iteration order of the fleet interleaver).
    pub fn residents(&self, device: usize) -> Vec<u32> {
        self.homes
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Some((d, _)) if *d == device))
            .map(|(t, _)| t as u32)
            .collect()
    }

    /// The lowest unoccupied slot on `device`, if any.
    pub fn free_slot(&self, device: usize) -> Option<usize> {
        let mut used = vec![false; self.slots_per_device];
        for h in self.homes.iter().flatten() {
            if h.0 == device {
                used[h.1] = true;
            }
        }
        used.iter().position(|&u| !u)
    }

    /// Re-homes `tenant` to `(device, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if the tenant has no current home, the target is out of
    /// bounds, or the target slot is occupied.
    pub fn migrate(&mut self, tenant: u32, device: usize, slot: usize) {
        assert!(device < self.device_count && slot < self.slots_per_device);
        assert!(
            !self.homes.iter().flatten().any(|&h| h == (device, slot)),
            "target slot ({device}, {slot}) is occupied"
        );
        let home = &mut self.homes[tenant as usize];
        assert!(home.is_some(), "tenant {tenant} has no home to migrate");
        *home = Some((device, slot));
    }

    /// Drops `tenant` from the placement without re-homing it — the
    /// seeded migration fault the conservation contract must catch.
    #[cfg(feature = "fault-injection")]
    pub fn drop_tenant(&mut self, tenant: u32) {
        self.homes[tenant as usize] = None;
    }

    /// The raw homes table (for snapshots).
    pub(crate) fn homes(&self) -> &[Option<(usize, usize)>] {
        &self.homes
    }

    /// Rebuilds a placement from snapshot fields. Used by the persist
    /// codec; the caller is expected to [`Contract::check`] the result.
    pub(crate) fn from_parts(
        region_span: u64,
        slots_per_device: usize,
        device_count: usize,
        homes: Vec<Option<(usize, usize)>>,
    ) -> Self {
        Placement {
            region_span,
            slots_per_device,
            device_count,
            homes,
        }
    }
}

/// Tenant conservation: every tenant placed exactly once, within bounds,
/// and no slot double-occupied. O(tenants).
impl Contract for Placement {
    fn contract_name(&self) -> &'static str {
        "uc-fleet/Placement"
    }

    fn check(&self) -> Result<(), Violation> {
        let mut seen = vec![false; self.device_count * self.slots_per_device];
        for (t, home) in self.homes.iter().enumerate() {
            let Some((device, slot)) = home else {
                return Err(Violation::new(
                    self.contract_name(),
                    "every-tenant-placed",
                    format!("tenant {t} has no placement (lost in migration)"),
                ));
            };
            ensure!(
                self,
                "home-in-bounds",
                *device < self.device_count && *slot < self.slots_per_device,
                "tenant {t} placed at ({device}, {slot}) outside {}x{}",
                self.device_count,
                self.slots_per_device
            );
            let key = device * self.slots_per_device + slot;
            ensure!(
                self,
                "no-double-placement",
                !seen[key],
                "slot ({device}, {slot}) holds two tenants (second is {t})"
            );
            seen[key] = true;
        }
        Ok(())
    }
}

/// The audit record of one completed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Epoch boundary at which the migration ran.
    pub epoch: u64,
    /// The migrated tenant.
    pub tenant: u32,
    /// Source `(device, slot)`.
    pub from: (usize, usize),
    /// Target `(device, slot)`.
    pub to: (usize, usize),
    /// The freeze instant (source state checkpointed here).
    pub frozen_at: SimTime,
    /// When the copied extent finished landing on the target — the floor
    /// from which the tenant's deferred tail replays.
    pub completed_at: SimTime,
    /// Bytes copied (the tenant's written extent).
    pub bytes_copied: u64,
    /// CRC-32 of the source device's frozen checkpoint bytes, encoded in
    /// place from the live device. Two byte-identical runs freeze
    /// identical state; the CI identity gate compares these fingerprints.
    pub freeze_crc: u32,
}

/// Before/after audit of one migration against the placement.
///
/// Checked right after every migration: exactly one tenant (the migrant)
/// changed homes, onto a different device, and the population count is
/// conserved.
#[derive(Debug)]
pub struct MigrationAudit<'a> {
    /// The migrated tenant.
    pub tenant: u32,
    /// Homes before the migration.
    pub before: &'a [Option<(usize, usize)>],
    /// Homes after the migration.
    pub after: &'a [Option<(usize, usize)>],
}

impl Contract for MigrationAudit<'_> {
    fn contract_name(&self) -> &'static str {
        "uc-fleet/Migration"
    }

    fn check(&self) -> Result<(), Violation> {
        ensure!(
            self,
            "population-conserved",
            self.before.iter().flatten().count() == self.after.iter().flatten().count(),
            "migration changed the placed-tenant count: {} -> {}",
            self.before.iter().flatten().count(),
            self.after.iter().flatten().count()
        );
        for (t, (b, a)) in self.before.iter().zip(self.after).enumerate() {
            if t as u32 == self.tenant {
                ensure!(
                    self,
                    "migrant-rehomed",
                    a.is_some() && b.is_some() && a.map(|h| h.0) != b.map(|h| h.0),
                    "tenant {t} was not moved to a new device: {b:?} -> {a:?}"
                );
            } else {
                ensure!(
                    self,
                    "only-migrant-moves",
                    a == b,
                    "bystander tenant {t} moved during migration of {}: {b:?} -> {a:?}",
                    self.tenant
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_fill_places_everyone_with_headroom() {
        let p = Placement::contiguous(10, 3, 5, 1 << 20);
        assert_eq!(p.check(), Ok(()));
        assert_eq!(p.home(0), Some((0, 0)));
        assert_eq!(p.home(4), Some((1, 0)));
        assert_eq!(p.residents(0), vec![0, 1, 2, 3]);
        // Every device keeps a free slot.
        for d in 0..3 {
            assert!(p.free_slot(d).is_some(), "device {d} has headroom");
        }
        assert_eq!(p.base(2), 2 << 20);
    }

    #[test]
    fn migration_rehomes_and_conserves() {
        let mut p = Placement::contiguous(4, 2, 3, 1 << 20);
        let before = p.homes().to_vec();
        let slot = p.free_slot(1).unwrap();
        p.migrate(0, 1, slot);
        let audit = MigrationAudit {
            tenant: 0,
            before: &before,
            after: p.homes(),
        };
        assert_eq!(audit.check(), Ok(()));
        assert_eq!(p.check(), Ok(()));
        assert_eq!(p.home(0), Some((1, slot)));
        assert!(p.residents(1).contains(&0));
    }

    #[test]
    fn double_placement_is_a_violation() {
        let p = Placement::from_parts(1 << 20, 3, 2, vec![Some((0, 0)), Some((0, 0))]);
        let v = p.check().unwrap_err();
        assert_eq!(v.invariant, "no-double-placement");
    }

    #[test]
    fn lost_tenant_is_a_violation() {
        let p = Placement::from_parts(1 << 20, 3, 2, vec![Some((0, 0)), None]);
        let v = p.check().unwrap_err();
        assert_eq!(v.invariant, "every-tenant-placed");
        assert!(v.detail.contains("tenant 1"));
    }

    #[test]
    fn bystander_move_fails_the_migration_audit() {
        let before = vec![Some((0, 0)), Some((0, 1))];
        let after = vec![Some((1, 0)), Some((1, 1))]; // tenant 1 moved too
        let audit = MigrationAudit {
            tenant: 0,
            before: &before,
            after: &after,
        };
        let v = audit.check().unwrap_err();
        assert_eq!(v.invariant, "only-migrant-moves");
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn migrating_onto_an_occupied_slot_panics() {
        let mut p = Placement::contiguous(4, 2, 3, 1 << 20);
        p.migrate(0, 1, 0); // tenant 2 lives at (1, 0)
    }
}
