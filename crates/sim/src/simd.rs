//! The simulator's lane level, as perfbench's host line prints it.
//!
//! The cache's tag scans are plain slice searches in `cache.rs`; DESIGN.md
//! §5c records why there is no unrolled or intrinsic path. This module
//! stays only because perfbench prints [`active_level`] (ROADMAP item 1).

/// Which lane implementation runs. There is one; the enum survives so
/// host records can keep printing [`active_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain scalar code; compiles everywhere.
    Portable,
}

/// The lane implementation in use: always [`SimdLevel::Portable`].
pub fn active_level() -> SimdLevel {
    SimdLevel::Portable
}
