//! NAND flash device model.
//!
//! This crate models the physical layer of a flash SSD as described in
//! §II-A of the paper: a multi-level hierarchy of channels, dies, planes,
//! blocks and pages, where the die is the minimum unit of parallel
//! operations and the page the minimum unit of data storage.
//!
//! The model is a *timing* model: [`FlashArray`] schedules page reads, page
//! programs and block erases onto per-die and per-channel resource
//! timelines and answers when each operation completes. Which pages hold
//! valid data is the flash translation layer's business (`uc-ftl`).
//!
//! # Example
//!
//! ```
//! use uc_flash::{FlashArray, FlashGeometry, FlashTiming};
//! use uc_sim::SimTime;
//!
//! let geometry = FlashGeometry::new(8, 4, 2, 64, 256, 4096)?;
//! let mut array = FlashArray::new(geometry, FlashTiming::mlc());
//! let done = array.read_page(SimTime::ZERO, 0);
//! assert!(done > SimTime::ZERO);
//! # Ok::<(), uc_flash::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod geometry;
mod persist;
mod timing;

pub use array::{DiePool, FlashArray, FlashOpStats};
pub use geometry::{FlashGeometry, GeometryError};
pub use timing::FlashTiming;
