//! Flash translation layer (FTL).
//!
//! The FTL bridges the block interface to raw NAND (§II-A of the paper):
//! it keeps a page-level logical-to-physical map, allocates program
//! locations striped across dies for parallelism, and reclaims invalidated
//! space with garbage collection. GC relocations and erases are scheduled
//! on the *same* die/channel timelines as host operations, so GC pressure
//! degrades foreground throughput exactly the way the paper's Figure 3
//! shows for the local SSD.
//!
//! Three victim-selection policies are provided for the ablation benches:
//! greedy (min valid pages), cost-benefit, and FIFO.
//!
//! # Example
//!
//! ```
//! use uc_flash::{FlashGeometry, FlashTiming};
//! use uc_ftl::{Ftl, FtlConfig};
//! use uc_sim::SimTime;
//!
//! let geometry = FlashGeometry::new(2, 2, 1, 16, 64, 4096)?;
//! let mut ftl = Ftl::new(FtlConfig::new(geometry, FlashTiming::mlc()));
//! let done = ftl.write_page(SimTime::ZERO, 0);
//! assert!(done > SimTime::ZERO);
//! let read_done = ftl.read_page(done, 0);
//! assert!(read_done > done);
//! assert_eq!(ftl.stats().host_pages_written, 1);
//! # Ok::<(), uc_flash::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod config;
mod ftl;
mod gc;
mod map;
mod persist;
mod stats;

pub use blocks::{BlockId, BlockState};
pub use config::FtlConfig;
pub use ftl::Ftl;
#[cfg(feature = "fault-injection")]
pub use ftl::MapFault;
pub use gc::GcPolicy;
pub use map::PageMap;
pub use stats::{FtlStats, WearStats};
