//! Helpers shared by the root integration tests; a test file opts in with
//! `mod common;`.

pub use nbody_core::testutil::ScratchDir;
