//! The FTL's page-number maps and their checkpoint codec.

use uc_flash::FlashGeometry;
use uc_persist::{DecodeError, Decoder, Encoder, Persist};

/// A page-number map: index → page, or none.
///
/// Entries hold `page + 1` as a `u32`, so none is stored as 0 and a
/// fresh map is one zeroed allocation, `vec![0; n]`.
/// [`Ftl::new`](crate::Ftl::new) bounds the geometry below `u32::MAX`
/// physical pages, so every entry fits.
///
/// Cloning an [`Ftl`](crate::Ftl) at a checkpoint copies each map once,
/// as it is. The durable form is the same: a `u64` length, then each
/// entry's `page + 1` as a `u32` (0 = none). Decoding accepts any `u32`;
/// the FTL's own check bounds every page by the opposite map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMap(Vec<u32>);

impl PageMap {
    /// A map of `len` entries, all none.
    pub(crate) fn unmapped(len: usize) -> Self {
        PageMap(vec![0; len])
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The page at `index`, or `None` if it maps nowhere.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`PageMap::len`].
    pub fn get(&self, index: u64) -> Option<u64> {
        self.0[index as usize].checked_sub(1).map(u64::from)
    }

    pub(crate) fn set(&mut self, index: u64, page: u64) {
        self.0[index as usize] = entry(page);
    }

    pub(crate) fn clear(&mut self, index: u64) {
        self.0[index as usize] = 0;
    }

    /// Every entry in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        self.0.iter().map(|e| e.checked_sub(1).map(u64::from))
    }

    /// Count of entries that are not none.
    pub(crate) fn count_mapped(&self) -> u64 {
        self.0.iter().filter(|&&e| e != 0).count() as u64
    }

    /// Whether every mapped entry is a page below `bound`.
    pub(crate) fn all_below(&self, bound: u64) -> bool {
        // A stored `page + 1` is at most `bound` exactly when the page is
        // below it; none (0) always passes.
        self.0.iter().all(|&e| u64::from(e) <= bound)
    }
}

/// The stored form of `page`: `page + 1`.
fn entry(page: u64) -> u32 {
    u32::try_from(page + 1).expect("page numbers are below u32::MAX")
}

/// Asserts the bound that lets [`PageMap`] store every page as a `u32`.
pub(crate) fn assert_page_map_fits(g: FlashGeometry) {
    assert!(
        g.total_pages() < u64::from(u32::MAX),
        "geometry has {} physical pages; the FTL maps hold fewer than {}",
        g.total_pages(),
        u32::MAX
    );
}

/// The durable form is the memory form, through the `Vec<u32>` codec.
impl Persist for PageMap {
    fn encode(&self, w: &mut Encoder) {
        self.0.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Vec::decode(r).map(PageMap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_claimed_length_fails_without_allocating() {
        // A corrupt length prefix claims 2^60 entries backed by 0 bytes.
        let bytes = (1u64 << 60).to_le_bytes();
        assert!(matches!(
            PageMap::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated { .. })
        ));
    }
}
