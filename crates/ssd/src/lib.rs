//! Local flash SSD device model.
//!
//! Assembles the substrates into a device with the behaviours the paper's
//! local-SSD baseline (Samsung 970 Pro) exhibits:
//!
//! * a serialized **firmware pipeline** (per-command processing cost — the
//!   queue-depth latency knee of Figure 2),
//! * a full-duplex **host DMA link** (per-byte transfer cost — the I/O-size
//!   latency slope of Figure 2),
//! * a DRAM **write buffer** that acknowledges writes at DRAM speed while
//!   draining to flash through the FTL (why small writes are ~10 µs but
//!   sustained writes collapse when GC starts — Figure 3),
//! * a sequential **readahead prefetcher** (why sequential reads are ~10 µs
//!   but random reads pay a NAND sense — Observation 1's asymmetry),
//! * the full page-mapping FTL with garbage collection from `uc-ftl`.
//!
//! # Example
//!
//! ```
//! use uc_blockdev::{BlockDevice, IoRequest};
//! use uc_sim::SimTime;
//! use uc_ssd::{Ssd, SsdConfig};
//!
//! let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(1 << 30));
//! let done = ssd.submit(&IoRequest::write(0, 4096, SimTime::ZERO))?;
//! // A buffered 4 KiB write completes in ~10 us, not a NAND program time.
//! assert!((done - SimTime::ZERO).as_micros_f64() < 20.0);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod config;
mod device;
mod persist;
mod prefetch;

pub use buffer::WriteBuffer;
pub use config::SsdConfig;
pub use device::{Ssd, SsdStats};
pub use prefetch::Prefetcher;
