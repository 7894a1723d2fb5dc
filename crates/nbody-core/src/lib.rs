//! # nbody-core
//!
//! Core primitives for the PTPM fast N-body reproduction: vector math,
//! particle storage, softened Newtonian gravity with the direct
//! particle–particle (PP) method, symplectic integrators, and conserved-
//! quantity diagnostics.
//!
//! This crate is the ground truth of the workspace: every faster method —
//! the Barnes-Hut treecode (`treecode` crate) and the four simulated-GPU
//! execution plans (`plans` crate) — is validated against
//! [`gravity::accelerations_pp`].
//!
//! ## Quick start
//!
//! ```
//! use nbody_core::prelude::*;
//!
//! // a circular two-body orbit
//! let v = (1.0_f64 / 2.0).sqrt() / 2.0 * 2.0_f64.sqrt(); // speed per body
//! let mut set = ParticleSet::from_bodies(&[
//!     Body::new(Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0),
//!     Body::new(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0),
//! ]);
//! let params = GravityParams { g: 1.0, softening: 0.0 };
//! let mut engine = DirectPp::new(params);
//! run(&mut set, &mut engine, &LeapfrogKdk, 1e-3, 100);
//! assert!(set.all_finite());
//! let _ = v;
//! ```

#![warn(missing_docs)]

pub mod body;
pub mod energy;
pub mod flops;
pub mod gravity;
pub mod hermite;
pub mod integrator;
pub mod soa;
pub mod testutil;
pub mod units;
pub mod vec3;

/// The most commonly used items, re-exported.
pub mod prelude {
    pub use crate::body::{Body, ParticleSet};
    pub use crate::energy::{total_energy, Diagnostics};
    pub use crate::flops::{FlopConvention, Throughput};
    pub use crate::gravity::{accelerations_pp, accelerations_pp_rows, GravityParams};
    pub use crate::hermite::{accelerations_and_jerks_pp, Hermite4};
    pub use crate::integrator::{
        prime, run, DirectPp, ForceEngine, Integrator, LeapfrogDkd, LeapfrogKdk, SymplecticEuler,
    };
    pub use crate::soa::{
        accelerations_pp_tiled_parallel, accelerations_pp_tiled_with, SoaBodies, SoaView,
    };
    pub use crate::units::{to_standard_units, UnitsTransform};
    pub use crate::vec3::{Vec3, Vec3f};
}

pub use prelude::*;
