//! Particle storage.
//!
//! [`Body`] is the convenient array-of-structs view used at API boundaries;
//! [`ParticleSet`] is the struct-of-arrays storage every hot loop runs on.
//! SoA matters here for the same reason it matters on the GPU the paper
//! targets: the force kernels stream positions and masses with unit stride.

use crate::vec3::Vec3;
use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};

/// A single gravitating body (AoS view).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Body {
    /// Position.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
    /// Mass (must be non-negative).
    pub mass: f64,
}

impl Body {
    /// Creates a body at rest.
    #[inline]
    pub fn at_rest(pos: Vec3, mass: f64) -> Self {
        Self { pos, vel: Vec3::ZERO, mass }
    }

    /// Creates a body with position, velocity and mass.
    #[inline]
    pub fn new(pos: Vec3, vel: Vec3, mass: f64) -> Self {
        Self { pos, vel, mass }
    }

    /// Momentum `m v`.
    #[inline]
    pub fn momentum(&self) -> Vec3 {
        self.vel * self.mass
    }

    /// Kinetic energy `m v² / 2`.
    #[inline]
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self.mass * self.vel.norm_sq()
    }
}

/// Struct-of-arrays particle storage: the canonical in-memory system state.
///
/// Invariants maintained by all constructors and mutators:
/// * `pos`, `vel`, `acc`, `mass` all have the same length;
/// * every mass is finite and non-negative.
///
/// The serialized form holds `pos`, `vel` and `mass` only: accelerations
/// are derived state, which every force engine recomputes from positions
/// and masses, so they are neither written nor read (a decoded set has
/// zero `acc`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleSet {
    pos: Vec<Vec3>,
    vel: Vec<Vec3>,
    acc: Vec<Vec3>,
    mass: Vec<f64>,
}

impl ParticleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity reserved for `n` particles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            acc: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
        }
    }

    /// Builds a set from an AoS slice of bodies.
    pub fn from_bodies(bodies: &[Body]) -> Self {
        let mut set = Self::with_capacity(bodies.len());
        for b in bodies {
            set.push(*b);
        }
        set
    }

    /// Builds a set from parallel component vectors, with zero
    /// accelerations.
    ///
    /// # Panics
    /// Panics where [`ParticleSet::try_from_parts`] returns an error.
    pub fn from_parts(pos: Vec<Vec3>, vel: Vec<Vec3>, mass: Vec<f64>) -> Self {
        Self::try_from_parts(pos, vel, mass).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a set from parallel component vectors, with zero
    /// accelerations, or says which invariant they break: the vectors have
    /// different lengths, or a mass is negative or non-finite.
    pub fn try_from_parts(
        pos: Vec<Vec3>,
        vel: Vec<Vec3>,
        mass: Vec<f64>,
    ) -> Result<Self, PartsError> {
        let n = pos.len();
        for (component, len) in [("vel", vel.len()), ("mass", mass.len())] {
            if len != n {
                return Err(PartsError::Ragged { component, len, n });
            }
        }
        if let Some(index) = mass.iter().position(|m| !(m.is_finite() && *m >= 0.0)) {
            return Err(PartsError::Mass { index, mass: mass[index] });
        }
        Ok(Self { pos, vel, acc: vec![Vec3::ZERO; n], mass })
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if the set holds no particles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Appends one body.
    ///
    /// # Panics
    /// Panics if the body's mass is negative or non-finite.
    pub fn push(&mut self, b: Body) {
        assert!(b.mass.is_finite() && b.mass >= 0.0, "invalid mass {}", b.mass);
        self.pos.push(b.pos);
        self.vel.push(b.vel);
        self.acc.push(Vec3::ZERO);
        self.mass.push(b.mass);
    }

    /// Extracts the AoS view (allocates).
    pub fn to_bodies(&self) -> Vec<Body> {
        (0..self.len())
            .map(|i| Body { pos: self.pos[i], vel: self.vel[i], mass: self.mass[i] })
            .collect()
    }

    /// Positions, read-only.
    #[inline]
    pub fn pos(&self) -> &[Vec3] {
        &self.pos
    }

    /// Velocities, read-only.
    #[inline]
    pub fn vel(&self) -> &[Vec3] {
        &self.vel
    }

    /// Accelerations, read-only.
    #[inline]
    pub fn acc(&self) -> &[Vec3] {
        &self.acc
    }

    /// Masses, read-only.
    #[inline]
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// Positions, mutable.
    #[inline]
    pub fn pos_mut(&mut self) -> &mut [Vec3] {
        &mut self.pos
    }

    /// Velocities, mutable.
    #[inline]
    pub fn vel_mut(&mut self) -> &mut [Vec3] {
        &mut self.vel
    }

    /// Accelerations, mutable.
    #[inline]
    pub fn acc_mut(&mut self) -> &mut [Vec3] {
        &mut self.acc
    }

    /// Simultaneous mutable access to positions and velocities (the drift
    /// step of an integrator needs both).
    #[inline]
    pub fn pos_vel_mut(&mut self) -> (&mut [Vec3], &mut [Vec3]) {
        (&mut self.pos, &mut self.vel)
    }

    /// Simultaneous access to velocities (mutable) and accelerations (read),
    /// for the kick step.
    #[inline]
    pub fn vel_mut_acc(&mut self) -> (&mut [Vec3], &[Vec3]) {
        (&mut self.vel, &self.acc)
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Center of mass, or `None` if total mass is zero.
    pub fn center_of_mass(&self) -> Option<Vec3> {
        let m = self.total_mass();
        if m <= 0.0 {
            return None;
        }
        let weighted: Vec3 = self.pos.iter().zip(&self.mass).map(|(&p, &mi)| p * mi).sum();
        Some(weighted / m)
    }

    /// Mass-weighted mean velocity, or `None` if total mass is zero.
    pub fn center_of_mass_velocity(&self) -> Option<Vec3> {
        let m = self.total_mass();
        if m <= 0.0 {
            return None;
        }
        let weighted: Vec3 = self.vel.iter().zip(&self.mass).map(|(&v, &mi)| v * mi).sum();
        Some(weighted / m)
    }

    /// Shifts positions and velocities so the center of mass sits at the
    /// origin with zero net momentum. No-op on a massless set.
    pub fn recenter(&mut self) {
        let (Some(com), Some(cov)) = (self.center_of_mass(), self.center_of_mass_velocity()) else {
            return;
        };
        for p in &mut self.pos {
            *p -= com;
        }
        for v in &mut self.vel {
            *v -= cov;
        }
    }

    /// Moves the acceleration buffer out of the set (leaving it empty) so a
    /// force engine can fill it without a second allocation; pair with
    /// [`ParticleSet::restore_acc`]. While taken, [`ParticleSet::acc`] is
    /// empty — force engines only read positions and masses, so the
    /// integrator's refresh step can hand the set and its own acceleration
    /// buffer to the engine simultaneously, allocation-free.
    #[inline]
    pub fn take_acc(&mut self) -> Vec<Vec3> {
        std::mem::take(&mut self.acc)
    }

    /// Returns a buffer taken by [`ParticleSet::take_acc`].
    ///
    /// # Panics
    /// Panics if `acc.len() != self.len()` (the length invariant must hold
    /// again once restored).
    #[inline]
    pub fn restore_acc(&mut self, acc: Vec<Vec3>) {
        assert_eq!(acc.len(), self.len(), "restored acceleration buffer length mismatch");
        self.acc = acc;
    }

    /// Zeroes the acceleration buffer.
    pub fn clear_acc(&mut self) {
        self.acc.iter_mut().for_each(|a| *a = Vec3::ZERO);
    }

    /// Axis-aligned bounding box of all positions, or `None` if empty.
    pub fn bounding_box(&self) -> Option<(Vec3, Vec3)> {
        let first = *self.pos.first()?;
        let mut lo = first;
        let mut hi = first;
        for &p in &self.pos[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some((lo, hi))
    }

    /// True if every stored component is finite.
    pub fn all_finite(&self) -> bool {
        self.pos.iter().all(|p| p.is_finite())
            && self.vel.iter().all(|v| v.is_finite())
            && self.acc.iter().all(|a| a.is_finite())
            && self.mass.iter().all(|m| m.is_finite())
    }

    /// Packs positions and masses as `[x, y, z, m]` quadruples of `f32` —
    /// the layout the simulated GPU buffers use (float4, as in the paper's
    /// OpenCL kernels).
    pub fn pack_pos_mass_f32(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len() * 4);
        for i in 0..self.len() {
            let p = self.pos[i];
            out.push(p.x as f32);
            out.push(p.y as f32);
            out.push(p.z as f32);
            out.push(self.mass[i] as f32);
        }
        out
    }
}

/// Why parallel component vectors cannot form a [`ParticleSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartsError {
    /// A component vector's length differs from the positions'.
    Ragged {
        /// The ragged component, `"vel"` or `"mass"`.
        component: &'static str,
        /// Its length.
        len: usize,
        /// The number of positions.
        n: usize,
    },
    /// A mass is negative or non-finite.
    Mass {
        /// Index of the first such mass.
        index: usize,
        /// Its value.
        mass: f64,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::Ragged { component, len, n } => {
                write!(f, "pos/{component} length mismatch ({n} positions, {len} {component})")
            }
            PartsError::Mass { index, mass } => write!(f, "invalid mass {mass} at index {index}"),
        }
    }
}

impl std::error::Error for PartsError {}

/// Writes `pos`, `vel` and `mass`, in that order: exactly the components a
/// snapshot's content checksum covers.
impl Serialize for ParticleSet {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.key("pos");
        self.pos.serialize(s);
        s.key("vel");
        self.vel.serialize(s);
        s.key("mass");
        self.mass.serialize(s);
        s.end_object();
    }
}

/// Reads `pos`, `vel` and `mass` through [`ParticleSet::try_from_parts`],
/// so a ragged or invalid set is an error, never a panic. As in derived
/// impls, the first of duplicate keys wins and unknown keys are skipped;
/// that includes the `acc` older writers stored.
impl Deserialize for ParticleSet {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        let (mut pos, mut vel, mut mass) = (None, None, None);
        d.begin_object()?;
        while let Some(key) = d.next_key()? {
            match key {
                "pos" if pos.is_none() => pos = Some(serde::field(d, "pos")?),
                "vel" if vel.is_none() => vel = Some(serde::field(d, "vel")?),
                "mass" if mass.is_none() => mass = Some(serde::field(d, "mass")?),
                _ => d.skip_value()?,
            }
        }
        let pos = pos.map_or_else(|| serde::missing_field("pos"), Ok)?;
        let vel = vel.map_or_else(|| serde::missing_field("vel"), Ok)?;
        let mass = mass.map_or_else(|| serde::missing_field("mass"), Ok)?;
        Self::try_from_parts(pos, vel, mass).map_err(|e| DeError::new(e.to_string()))
    }
}

impl FromIterator<Body> for ParticleSet {
    fn from_iter<I: IntoIterator<Item = Body>>(iter: I) -> Self {
        let mut set = Self::new();
        for b in iter {
            set.push(b);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ParticleSet {
        ParticleSet::from_bodies(&[
            Body::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 2.0),
            Body::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0), 2.0),
            Body::new(Vec3::new(0.0, 3.0, 0.0), Vec3::ZERO, 1.0),
        ])
    }

    #[test]
    fn body_helpers() {
        let b = Body::new(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 3.0);
        assert_eq!(b.momentum(), Vec3::new(6.0, 0.0, 0.0));
        assert_eq!(b.kinetic_energy(), 6.0);
        assert_eq!(Body::at_rest(Vec3::X, 1.0).vel, Vec3::ZERO);
    }

    #[test]
    fn roundtrip_bodies() {
        let set = sample_set();
        let bodies = set.to_bodies();
        assert_eq!(ParticleSet::from_bodies(&bodies), set);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let r = std::panic::catch_unwind(|| {
            ParticleSet::from_parts(vec![Vec3::ZERO], vec![], vec![1.0])
        });
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "invalid mass")]
    fn negative_mass_rejected() {
        let mut s = ParticleSet::new();
        s.push(Body::at_rest(Vec3::ZERO, -1.0));
    }

    #[test]
    fn center_of_mass_weighted() {
        let set = sample_set();
        // masses 2,2,1 at x=1,-1 and y=3: com = (0, 3/5, 0)
        let com = set.center_of_mass().unwrap();
        assert!((com - Vec3::new(0.0, 0.6, 0.0)).norm() < 1e-12);
        assert_eq!(set.total_mass(), 5.0);
    }

    #[test]
    fn com_of_massless_set_is_none() {
        let set = ParticleSet::from_bodies(&[Body::at_rest(Vec3::X, 0.0)]);
        assert!(set.center_of_mass().is_none());
        assert!(set.center_of_mass_velocity().is_none());
    }

    #[test]
    fn recenter_zeroes_com_and_momentum() {
        let mut set = sample_set();
        // give it net drift
        for v in set.vel_mut() {
            *v += Vec3::new(5.0, 0.0, 0.0);
        }
        set.recenter();
        let com = set.center_of_mass().unwrap();
        let cov = set.center_of_mass_velocity().unwrap();
        assert!(com.norm() < 1e-12);
        assert!(cov.norm() < 1e-12);
    }

    #[test]
    fn bounding_box_covers_all() {
        let set = sample_set();
        let (lo, hi) = set.bounding_box().unwrap();
        assert_eq!(lo, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(hi, Vec3::new(1.0, 3.0, 0.0));
        assert!(ParticleSet::new().bounding_box().is_none());
    }

    #[test]
    fn clear_acc_resets() {
        let mut set = sample_set();
        set.acc_mut()[0] = Vec3::ONE;
        set.clear_acc();
        assert!(set.acc().iter().all(|a| *a == Vec3::ZERO));
    }

    #[test]
    fn pack_layout_is_float4() {
        let set = sample_set();
        let packed = set.pack_pos_mass_f32();
        assert_eq!(packed.len(), set.len() * 4);
        assert_eq!(packed[0], 1.0); // x of particle 0
        assert_eq!(packed[3], 2.0); // mass of particle 0
        assert_eq!(packed[4], -1.0); // x of particle 1
        assert_eq!(packed[11], 1.0); // mass of particle 2
    }

    #[test]
    fn from_iterator_collects() {
        let set: ParticleSet = (0..4).map(|i| Body::at_rest(Vec3::splat(i as f64), 1.0)).collect();
        assert_eq!(set.len(), 4);
        assert_eq!(set.pos()[3], Vec3::splat(3.0));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut set = sample_set();
        assert!(set.all_finite());
        set.pos_mut()[0].x = f64::NAN;
        assert!(!set.all_finite());
    }
}
