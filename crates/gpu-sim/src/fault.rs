//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is installed on a device with
//! [`Device::set_fault_plan`](crate::device::Device::set_fault_plan). From
//! then on every *fallible* operation — `try_launch`, `try_upload_*`,
//! `try_download_*` — consults the plan, in issue order, against a private
//! xorshift64* stream. With a fixed seed the fault schedule is a pure
//! function of the operation sequence: the same program sees the same
//! faults, the same recovery path, and the same simulated timings on every
//! run, which is what makes recovery *testable*.
//!
//! What can be injected (see [`FaultKind`]):
//!
//! * **launch failures** — the kernel never executes; device memory is
//!   untouched and a fixed penalty is charged to the stall clock;
//! * **detectable result corruption** — the kernel runs (its full time is
//!   charged) but its writes are rolled back, modelling an ECC-detected
//!   corrupt result that must be recomputed;
//! * **PCIe transfer errors and timeouts** — the transfer time (or a fixed
//!   timeout) is charged but no data moves, modelling a CRC-failed
//!   detect-and-retry cycle;
//! * **per-CU degradation/loss** — rolled once per device at install time;
//!   degraded CUs run slower and lost CUs receive no work (timing changes
//!   only, never results — see [`schedule_launch`](crate::sched::schedule_launch));
//! * **device loss** — permanent; every subsequent operation fails with
//!   [`FaultKind::DeviceLost`].
//!
//! The correctness contract: injected faults never silently alter
//! functional state. A faulted operation either leaves memory exactly as it
//! was (launch failure, transfer faults) or rolls it back (corruption), so a
//! retry that eventually succeeds reproduces the fault-free result
//! **bit-exactly**; only the clocks differ.

use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};

/// The kinds of injected fault. Serialized into traces as unit variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A kernel launch was rejected before executing.
    LaunchFail,
    /// A kernel executed but its result was detected as corrupt and rolled
    /// back.
    ResultCorruption,
    /// A PCIe transfer failed its integrity check; no data moved.
    TransferError,
    /// A PCIe transfer timed out; no data moved.
    TransferTimeout,
    /// The device dropped off the bus permanently.
    DeviceLost,
}

impl FaultKind {
    /// Stable identifier used in trace exports.
    pub fn id(self) -> &'static str {
        match self {
            FaultKind::LaunchFail => "launch-fail",
            FaultKind::ResultCorruption => "result-corruption",
            FaultKind::TransferError => "transfer-error",
            FaultKind::TransferTimeout => "transfer-timeout",
            FaultKind::DeviceLost => "device-lost",
        }
    }
}

/// The error a fallible device operation returns when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultError {
    /// What happened.
    pub kind: FaultKind,
    /// Simulated seconds the failed attempt cost (already charged).
    pub charged_s: f64,
}

impl FaultError {
    /// True if retrying the operation can succeed (everything but a lost
    /// device is transient).
    pub fn is_transient(&self) -> bool {
        self.kind != FaultKind::DeviceLost
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault: {} (cost {:.3e} s)", self.kind.id(), self.charged_s)
    }
}

impl std::error::Error for FaultError {}

/// Per-operation fault probabilities and penalty costs. All probabilities
/// are in `[0, 1]` and independent; `Default` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a launch is rejected before executing.
    pub launch_fail_prob: f64,
    /// Probability a launch's result is detected corrupt and rolled back.
    pub launch_corrupt_prob: f64,
    /// Probability a transfer fails its integrity check.
    pub transfer_error_prob: f64,
    /// Probability a transfer times out.
    pub transfer_timeout_prob: f64,
    /// Per-operation probability the device is lost for good.
    pub device_loss_prob: f64,
    /// Per-CU probability (rolled once at install) of running degraded.
    pub cu_degrade_prob: f64,
    /// Per-CU probability (rolled once at install) of being offline.
    pub cu_loss_prob: f64,
    /// Stall seconds charged for a rejected launch.
    pub launch_fail_penalty_s: f64,
    /// Stall seconds charged for a timed-out transfer.
    pub transfer_timeout_s: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            launch_fail_prob: 0.0,
            launch_corrupt_prob: 0.0,
            transfer_error_prob: 0.0,
            transfer_timeout_prob: 0.0,
            device_loss_prob: 0.0,
            cu_degrade_prob: 0.0,
            cu_loss_prob: 0.0,
            launch_fail_penalty_s: 50e-6,
            transfer_timeout_s: 1e-3,
        }
    }
}

impl FaultConfig {
    /// Transient faults only: each launch fails or corrupts with probability
    /// `p`, each transfer errors or times out with probability `p`. Always
    /// recoverable by retry.
    pub fn transient(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        Self {
            launch_fail_prob: p,
            launch_corrupt_prob: p,
            transfer_error_prob: p,
            transfer_timeout_prob: p,
            ..Self::default()
        }
    }

    /// Adds per-CU degradation/loss on top of this configuration.
    pub fn with_cu_faults(mut self, degrade_prob: f64, loss_prob: f64) -> Self {
        self.cu_degrade_prob = degrade_prob;
        self.cu_loss_prob = loss_prob;
        self
    }

    /// Adds a per-operation device-loss probability.
    pub fn with_device_loss(mut self, p: f64) -> Self {
        self.device_loss_prob = p;
        self
    }

    /// Checks the configuration is usable: every probability in `[0, 1]`,
    /// every penalty finite and non-negative. Admission layers call this on
    /// *deserialized* configs, which bypass the asserting constructors.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("launch_fail_prob", self.launch_fail_prob),
            ("launch_corrupt_prob", self.launch_corrupt_prob),
            ("transfer_error_prob", self.transfer_error_prob),
            ("transfer_timeout_prob", self.transfer_timeout_prob),
            ("device_loss_prob", self.device_loss_prob),
            ("cu_degrade_prob", self.cu_degrade_prob),
            ("cu_loss_prob", self.cu_loss_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} outside [0, 1]"));
            }
        }
        for (name, s) in [
            ("launch_fail_penalty_s", self.launch_fail_penalty_s),
            ("transfer_timeout_s", self.transfer_timeout_s),
        ] {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("{name} {s} must be finite and non-negative"));
            }
        }
        Ok(())
    }
}

/// Health of one compute unit, rolled once when the plan is installed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CuHealth {
    /// False once the CU is offline; it receives no work.
    pub alive: bool,
    /// Relative speed in `(0, 1]`; 1.0 is nominal.
    pub speed: f64,
}

impl CuHealth {
    /// A fully healthy CU.
    pub fn nominal() -> Self {
        Self { alive: true, speed: 1.0 }
    }

    /// True when the CU runs at full speed.
    pub fn is_nominal(&self) -> bool {
        self.alive && self.speed >= 1.0
    }
}

/// What a fault decision resolved to (internal to the device hooks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Proceed normally.
    None,
    /// Inject the given fault.
    Inject(FaultKind),
}

/// xorshift64* stream, private to the fault plan. Mirrors
/// `nbody_core::testutil::XorShift64` (same shifts 12/25/27 and multiplier)
/// so fault schedules share the repo-wide PRNG family without `gpu-sim`
/// gaining a dependency.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Running totals of what a plan injected, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Rejected launches.
    pub launch_fails: usize,
    /// Rolled-back corrupt results.
    pub corruptions: usize,
    /// Failed transfers.
    pub transfer_errors: usize,
    /// Timed-out transfers.
    pub transfer_timeouts: usize,
    /// 1 if the device was lost.
    pub device_losses: usize,
}

impl FaultCounts {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> usize {
        self.launch_fails
            + self.corruptions
            + self.transfer_errors
            + self.transfer_timeouts
            + self.device_losses
    }
}

/// A seeded fault schedule bound to one device.
///
/// Create with [`FaultPlan::new`]; the device rolls per-CU health when the
/// plan is installed (the spec is known only then). Decisions are drawn
/// lazily, one operation at a time, so the schedule is deterministic in
/// `(seed, config, operation sequence)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    rng: XorShift64,
    cu_health: Vec<CuHealth>,
    device_lost: bool,
    counts: FaultCounts,
}

impl FaultPlan {
    /// A fault plan for `config`, fully determined by `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        Self {
            config,
            seed,
            rng: XorShift64::new(seed),
            cu_health: Vec::new(),
            device_lost: false,
            counts: FaultCounts::default(),
        }
    }

    /// The seed the plan was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Rolls per-CU health for `spec`. Called by the device on install;
    /// idempotent only in the sense that re-installing re-rolls.
    pub fn install(&mut self, spec: &DeviceSpec) {
        self.cu_health = (0..spec.compute_units)
            .map(|_| {
                let lost = self.rng.next_f64() < self.config.cu_loss_prob;
                let degraded = self.rng.next_f64() < self.config.cu_degrade_prob;
                // always draw the factor so the stream advances uniformly
                let factor = 0.25 + 0.5 * self.rng.next_f64();
                if lost {
                    CuHealth { alive: false, speed: 0.0 }
                } else if degraded {
                    CuHealth { alive: true, speed: factor }
                } else {
                    CuHealth::nominal()
                }
            })
            .collect();
        // a device whose every CU is offline is a lost device
        if !self.cu_health.is_empty() && self.cu_health.iter().all(|c| !c.alive) {
            self.device_lost = true;
            self.counts.device_losses = 1;
        }
    }

    /// Per-CU health rolled at install time (empty before install).
    pub fn cu_health(&self) -> &[CuHealth] {
        &self.cu_health
    }

    /// True if any CU is degraded or offline — launches must use the
    /// degraded scheduler.
    pub fn degrades_scheduling(&self) -> bool {
        self.cu_health.iter().any(|c| !c.is_nominal())
    }

    /// True once the device has been lost.
    pub fn device_lost(&self) -> bool {
        self.device_lost
    }

    /// Injection totals so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn roll_device_loss(&mut self) -> bool {
        if self.device_lost {
            return true;
        }
        if self.rng.next_f64() < self.config.device_loss_prob {
            self.device_lost = true;
            self.counts.device_losses = 1;
            return true;
        }
        false
    }

    /// Decides the fate of the next kernel launch.
    pub fn decide_launch(&mut self) -> FaultDecision {
        if self.roll_device_loss() {
            return FaultDecision::Inject(FaultKind::DeviceLost);
        }
        if self.rng.next_f64() < self.config.launch_fail_prob {
            self.counts.launch_fails += 1;
            return FaultDecision::Inject(FaultKind::LaunchFail);
        }
        if self.rng.next_f64() < self.config.launch_corrupt_prob {
            self.counts.corruptions += 1;
            return FaultDecision::Inject(FaultKind::ResultCorruption);
        }
        FaultDecision::None
    }

    /// Decides the fate of the next PCIe transfer.
    pub fn decide_transfer(&mut self) -> FaultDecision {
        if self.roll_device_loss() {
            return FaultDecision::Inject(FaultKind::DeviceLost);
        }
        if self.rng.next_f64() < self.config.transfer_error_prob {
            self.counts.transfer_errors += 1;
            return FaultDecision::Inject(FaultKind::TransferError);
        }
        if self.rng.next_f64() < self.config.transfer_timeout_prob {
            self.counts.transfer_timeouts += 1;
            return FaultDecision::Inject(FaultKind::TransferTimeout);
        }
        FaultDecision::None
    }
}

/// Bounded retry with deterministic exponential backoff. The backoff is
/// *simulated* time: recovery layers charge it to the device's stall clock
/// so recovery overhead shows up in traces and the PTPM observed grid, not
/// in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts including the first (so `1` means no retry).
    pub max_attempts: usize,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Backoff multiplier per further retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 8, base_backoff_s: 100e-6, multiplier: 2.0 }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (1-based): deterministic
    /// exponential.
    pub fn backoff_s(&self, retry: usize) -> f64 {
        debug_assert!(retry >= 1);
        self.base_backoff_s * self.multiplier.powi(retry as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_constructors_and_rejects_garbage() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::transient(0.3).with_device_loss(0.01).validate().is_ok());
        let bad = FaultConfig { transfer_error_prob: 1.5, ..FaultConfig::default() };
        assert!(bad.validate().unwrap_err().contains("transfer_error_prob"));
        let bad = FaultConfig { device_loss_prob: -0.1, ..FaultConfig::default() };
        assert!(bad.validate().unwrap_err().contains("device_loss_prob"));
        let bad = FaultConfig { transfer_timeout_s: f64::NAN, ..FaultConfig::default() };
        assert!(bad.validate().unwrap_err().contains("transfer_timeout_s"));
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let cfg = FaultConfig::transient(0.3);
        let mut a = FaultPlan::new(7, cfg);
        let mut b = FaultPlan::new(7, cfg);
        a.install(&DeviceSpec::tiny_test_device());
        b.install(&DeviceSpec::tiny_test_device());
        for _ in 0..200 {
            assert_eq!(a.decide_launch(), b.decide_launch());
            assert_eq!(a.decide_transfer(), b.decide_transfer());
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "p=0.3 over 400 ops must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::transient(0.3);
        let mut a = FaultPlan::new(1, cfg);
        let mut b = FaultPlan::new(2, cfg);
        let da: Vec<_> = (0..100).map(|_| a.decide_launch()).collect();
        let db: Vec<_> = (0..100).map(|_| b.decide_launch()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn zero_probabilities_inject_nothing() {
        let mut plan = FaultPlan::new(9, FaultConfig::default());
        plan.install(&DeviceSpec::tiny_test_device());
        for _ in 0..100 {
            assert_eq!(plan.decide_launch(), FaultDecision::None);
            assert_eq!(plan.decide_transfer(), FaultDecision::None);
        }
        assert_eq!(plan.counts().total(), 0);
        assert!(!plan.degrades_scheduling());
        assert!(!plan.device_lost());
    }

    #[test]
    fn device_loss_is_permanent() {
        let cfg = FaultConfig::default().with_device_loss(1.0);
        let mut plan = FaultPlan::new(3, cfg);
        plan.install(&DeviceSpec::tiny_test_device());
        assert_eq!(plan.decide_launch(), FaultDecision::Inject(FaultKind::DeviceLost));
        assert!(plan.device_lost());
        // and every later op fails the same way without advancing counts
        assert_eq!(plan.decide_transfer(), FaultDecision::Inject(FaultKind::DeviceLost));
        assert_eq!(plan.counts().device_losses, 1);
    }

    #[test]
    fn cu_health_rolled_from_seed() {
        let cfg = FaultConfig::default().with_cu_faults(0.5, 0.25);
        let spec = DeviceSpec::radeon_hd_5850();
        let mut a = FaultPlan::new(11, cfg);
        let mut b = FaultPlan::new(11, cfg);
        a.install(&spec);
        b.install(&spec);
        assert_eq!(a.cu_health(), b.cu_health());
        assert_eq!(a.cu_health().len(), spec.compute_units as usize);
        assert!(a.degrades_scheduling(), "p=0.5 over 18 CUs should hit");
        for c in a.cu_health() {
            if c.alive {
                assert!(c.speed > 0.0 && c.speed <= 1.0);
            } else {
                assert_eq!(c.speed, 0.0);
            }
        }
    }

    #[test]
    fn all_cus_lost_means_device_lost() {
        let cfg = FaultConfig::default().with_cu_faults(0.0, 1.0);
        let mut plan = FaultPlan::new(5, cfg);
        plan.install(&DeviceSpec::tiny_test_device());
        assert!(plan.device_lost());
    }

    #[test]
    fn retry_backoff_is_exponential() {
        let p = RetryPolicy { max_attempts: 5, base_backoff_s: 1e-4, multiplier: 2.0 };
        assert!((p.backoff_s(1) - 1e-4).abs() < 1e-18);
        assert!((p.backoff_s(2) - 2e-4).abs() < 1e-18);
        assert!((p.backoff_s(4) - 8e-4).abs() < 1e-18);
    }

    #[test]
    fn transient_errors_are_retryable() {
        let e = FaultError { kind: FaultKind::TransferError, charged_s: 0.0 };
        assert!(e.is_transient());
        let lost = FaultError { kind: FaultKind::DeviceLost, charged_s: 0.0 };
        assert!(!lost.is_transient());
        assert!(lost.to_string().contains("device-lost"));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn transient_rejects_bad_probability() {
        let _ = FaultConfig::transient(1.5);
    }
}
