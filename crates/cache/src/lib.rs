//! Conventional trace-driven cache simulator substrate.
//!
//! This crate reimplements the (unnamed) write-back cache simulator the
//! ASPLOS 2000 FVC paper ran its evaluation on:
//!
//! * [`CacheGeometry`] — size / line size / associativity arithmetic.
//! * [`DataCache`] — a set-associative cache's tag, dirty-bit and
//!   replacement state. It holds no line data: a resident line always
//!   holds the architectural values, which the controllers keep in one
//!   [`MainMemory`] image.
//! * [`replacement`] — the replacement-policy zoo ([`ReplacementKind`]:
//!   true LRU, seeded random, SHiP-lite RRIP, value-pinned LRU).
//! * [`MainMemory`] — the architectural memory image, with word-level
//!   counts of the traffic the modelled bus moves.
//! * [`VictimCache`] — Jouppi's fully-associative swap-on-hit buffer
//!   (the Figure 15 baseline).
//! * [`StackDistance`] — the exact, bounded LRU stack-distance engine:
//!   the fully-associative LRU model of the miss classifier and the
//!   `fvl-profile` reuse profiler.
//! * [`MissClassifier`] — compulsory / capacity / conflict attribution
//!   (the Figure 14 discussion).
//! * [`CacheSim`] — an [`fvl_mem::AccessSink`] driving one conventional
//!   write-back, write-allocate cache; the paper's baseline DMC when
//!   associativity is 1.
//!
//! # Example
//!
//! ```
//! use fvl_cache::{CacheGeometry, CacheSim};
//! use fvl_mem::{Access, AccessSink};
//!
//! let geom = CacheGeometry::new(16 * 1024, 32, 1)?; // the paper's 16KB DMC
//! let mut sim = CacheSim::new(geom);
//! sim.on_access(Access::store(0x1000, 7));
//! sim.on_access(Access::load(0x1000, 7));
//! assert_eq!(sim.stats().hits(), 1);
//! assert_eq!(sim.stats().misses(), 1);
//! # Ok::<(), fvl_cache::GeometryError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod backing;
mod classify;
mod data_cache;
mod geometry;
#[cfg(feature = "metrics")]
pub mod metrics;
pub mod replacement;
mod sim;
mod simulator;
mod stack;
mod stats;
mod victim;

pub use backing::MainMemory;
pub use classify::{MissClass, MissClassifier};
pub use data_cache::{DataCache, EvictedLine, LineTag};
pub use geometry::{CacheGeometry, GeometryError};
pub use replacement::{Replacement, ReplacementKind, ReplacementPolicy};
pub use sim::{CacheSim, WritePolicy};
pub use simulator::Simulator;
pub use stack::StackDistance;
pub use stats::CacheStats;
pub use victim::VictimCache;
