//! # ampom-mem — the virtual-memory substrate
//!
//! A user-level model of the pieces of the Linux 2.4 virtual-memory system
//! that openMosix and AMPoM manipulate:
//!
//! * [`page::PageId`] — page-granular addresses (the unit AMPoM reasons in),
//! * [`region`] — the code / data / heap / stack layout of an address space
//!   (the paper migrates "the currently-accessed code, stack, and data
//!   pages" at freeze time),
//! * [`space::AddressSpace`] — per-page residency and dirty state on the
//!   node currently executing the process,
//! * [`table`] — the **master page table (MPT)** and **home page table
//!   (HPT)** with the ownership-transfer rules of paper §2.2,
//! * [`eviction`] — CLOCK page replacement for destination nodes whose
//!   RAM cannot hold the whole migrant (the testbed's 512 MB nodes vs
//!   575 MB processes),
//! * [`writeback`] — the migrant-side write-set (versioned delta batches)
//!   and deputy-side sink with exactly-once apply accounting,
//! * [`replica`] — a Mitosis-style node-local MPT replica with lazy
//!   invalidation-driven coherence.
//!
//! Nothing here knows about networks or prefetching; `ampom-core` composes
//! these pieces with `ampom-net` into the full migration machinery.

pub mod eviction;
pub mod page;
pub mod region;
pub mod replica;
pub mod space;
pub mod table;
pub mod writeback;

pub use eviction::ClockEvictor;
pub use page::{PageId, PAGE_SIZE};
pub use region::{MemoryLayout, Region, RegionKind};
pub use replica::MptReplica;
pub use space::{AddressSpace, PageState};
pub use table::{PageLocation, PageTablePair};
pub use writeback::{WriteSet, WritebackSink};
