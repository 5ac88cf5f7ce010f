//! Instruction-cache and memory-channel substrate for `specfetch`.
//!
//! The paper studies a **blocking** I-cache with, at most, one outstanding
//! request to the next level of the hierarchy, plus the one-line buffer
//! that gives the Resume policy and next-line prefetching their
//! almost-free hardware cost:
//!
//! - [`ICache`]: a set-associative (direct-mapped in the paper) instruction
//!   cache with the per-line **first-time-referenced bit** that drives
//!   next-line prefetching.
//! - [`Bus`]: the single-transaction channel to the next level; whoever
//!   holds it (demand miss or prefetch) blocks everyone else until the
//!   miss penalty elapses — the source of the paper's `bus` ISPI component.
//! - [`LineBuffer`]: the one-line fill buffer shared by the Resume policy
//!   and both prefetch buffers. Resume parks a wrong-path fill that
//!   completes after a squash, a prefetcher each completed prefetch; the
//!   line is written into the cache at the next miss, which also checks
//!   the buffer to avoid a redundant memory request.
//! - [`NextLinePrefetcher`]: the paper's "maximal fetchahead and first
//!   time referenced" next-line prefetch variant.
//! - [`TargetPrefetcher`]: the Smith & Hsu '92 branch-target prefetch
//!   extension (combined with next-line it approximates Pierce & Mudge's
//!   wrong-path prefetching, both related-work baselines in the paper).
//! - [`StreamBuffer`]: Jouppi '90's FIFO stream buffer, the third
//!   prefetching scheme of the paper's related-work survey.
//!
//! # Examples
//!
//! ```
//! use specfetch_cache::{CacheConfig, ICache};
//! use specfetch_isa::Addr;
//!
//! let cfg = CacheConfig::paper_8k();
//! let mut cache = ICache::new(&cfg);
//! let line = Addr::new(0x1000).line(cfg.line_bytes);
//!
//! assert!(!cache.access(line)); // cold miss
//! cache.fill(line);
//! assert!(cache.access(line)); // now a hit
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod config;
mod icache;
mod line_buffer;
mod prefetch;
mod stats;
mod stream;
mod target_prefetch;

pub use bus::{Bus, Purpose, Transaction};
pub use config::{CacheConfig, CacheConfigError};
pub use icache::ICache;
pub use line_buffer::LineBuffer;
pub use prefetch::{drain_prefetch, NextLinePrefetcher};
pub use stats::CacheStats;
pub use stream::StreamBuffer;
pub use target_prefetch::TargetPrefetcher;
