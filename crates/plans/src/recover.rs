//! Bounded-retry recovery around the device's fallible API.
//!
//! The fault model (see `gpu_sim::fault`) guarantees that a faulted
//! operation never silently alters functional state: memory is either
//! untouched or rolled back. That makes naive retry *correct* — a run that
//! recovers from any number of transient faults produces forces
//! bit-identical to the fault-free run; only the clocks differ.
//!
//! [`with_retry`] is the core loop: transient faults back off with the
//! policy's deterministic exponential schedule, and each backoff is charged
//! to the device's **stall clock** so recovery overhead lands in simulated
//! time (total device seconds, traces, the PTPM observed grid) rather than
//! wall time. A permanent fault ([`FaultKind::DeviceLost`]) or exhausted
//! attempts surfaces as the last error.
//!
//! The `*_with_recovery` wrappers are what the plan runners use: retry under
//! the default policy, and treat unrecoverable faults as fatal.

use gpu_sim::prelude::*;

/// Runs `op` against `device` with bounded retry under `policy`.
///
/// On a transient fault the next attempt is preceded by
/// [`RetryPolicy::backoff_s`], charged to the device's stall clock. Returns
/// the last error when `op` fails permanently or `policy.max_attempts` is
/// exhausted.
pub fn with_retry<T>(
    device: &mut Device,
    policy: &RetryPolicy,
    mut op: impl FnMut(&mut Device) -> Result<T, FaultError>,
) -> Result<T, FaultError> {
    let mut attempt = 1;
    loop {
        match op(device) {
            Ok(v) => return Ok(v),
            Err(e) if !e.is_transient() || attempt >= policy.max_attempts => return Err(e),
            Err(_) => {
                device.charge_stall(policy.backoff_s(attempt));
                attempt += 1;
            }
        }
    }
}

/// Launches `kernel` with retry under the default policy.
///
/// # Panics
/// Panics if the fault is permanent or retries are exhausted.
pub fn launch_with_recovery<K: Kernel>(
    device: &mut Device,
    kernel: &K,
    grid: NdRange,
) -> LaunchTiming {
    with_retry(device, &RetryPolicy::default(), |d| d.try_launch(kernel, grid))
        .unwrap_or_else(|e| panic!("kernel `{}` failed beyond recovery: {e}", kernel.name()))
}

/// Uploads `f32` data with retry under the default policy.
///
/// # Panics
/// Panics if the fault is permanent or retries are exhausted.
pub fn upload_f32_with_recovery(device: &mut Device, buf: BufF32, data: &[f32]) {
    with_retry(device, &RetryPolicy::default(), |d| d.try_upload_f32(buf, data))
        .unwrap_or_else(|e| panic!("upload failed beyond recovery: {e}"));
}

/// Uploads `u32` data with retry under the default policy.
///
/// # Panics
/// Panics if the fault is permanent or retries are exhausted.
pub fn upload_u32_with_recovery(device: &mut Device, buf: BufU32, data: &[u32]) {
    with_retry(device, &RetryPolicy::default(), |d| d.try_upload_u32(buf, data))
        .unwrap_or_else(|e| panic!("upload failed beyond recovery: {e}"));
}

/// Downloads an `f32` buffer with retry under the default policy.
///
/// # Panics
/// Panics if the fault is permanent or retries are exhausted.
pub fn download_f32_with_recovery(device: &mut Device, buf: BufF32) -> Vec<f32> {
    with_retry(device, &RetryPolicy::default(), |d| d.try_download_f32(buf))
        .unwrap_or_else(|e| panic!("download failed beyond recovery: {e}"))
}

/// Downloads a `u32` buffer with retry under the default policy.
///
/// # Panics
/// Panics if the fault is permanent or retries are exhausted.
pub fn download_u32_with_recovery(device: &mut Device, buf: BufU32) -> Vec<u32> {
    with_retry(device, &RetryPolicy::default(), |d| d.try_download_u32(buf))
        .unwrap_or_else(|e| panic!("download failed beyond recovery: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::ItemCtx;

    struct AddOne {
        buf: BufF32,
        n: usize,
    }

    impl Kernel for AddOne {
        type ItemRegs = ();
        type GroupRegs = ();
        fn name(&self) -> &str {
            "add-one"
        }
        fn lds_words(&self) -> usize {
            0
        }
        fn phase(&self, _p: usize, ctx: &mut ItemCtx<'_>, _r: &mut (), _g: &()) {
            let i = ctx.global_id;
            if i < self.n {
                let v = ctx.read_f32_coalesced(self.buf, i);
                ctx.flops(1);
                ctx.write_f32_coalesced(self.buf, i, v + 1.0);
            }
        }
        fn control(&self, _p: usize, _g: &mut (), _i: &GroupInfo) -> Control {
            Control::Done
        }
    }

    fn faulty_device(seed: u64, cfg: FaultConfig) -> Device {
        let mut dev =
            Device::with_transfer_model(DeviceSpec::tiny_test_device(), TransferModel::free());
        dev.set_fault_plan(FaultPlan::new(seed, cfg));
        dev
    }

    #[test]
    fn recovery_reproduces_fault_free_results_bitexactly() {
        let mut clean =
            Device::with_transfer_model(DeviceSpec::tiny_test_device(), TransferModel::free());
        let mut faulty = faulty_device(12, FaultConfig::transient(0.4));
        let mut outputs = Vec::new();
        for dev in [&mut clean, &mut faulty] {
            let buf = dev.alloc_f32(16);
            upload_f32_with_recovery(dev, buf, &[1.5; 16]);
            launch_with_recovery(dev, &AddOne { buf, n: 16 }, NdRange { global: 16, local: 4 });
            outputs.push(download_f32_with_recovery(dev, buf));
        }
        assert_eq!(outputs[0], outputs[1], "recovered run must be bit-exact");
        assert!(
            faulty.fault_plan().unwrap().counts().total() > 0,
            "p=0.4 over several ops must inject something"
        );
        assert!(faulty.stall_seconds() > 0.0, "recovery backoff must be charged");
        assert_eq!(clean.stall_seconds(), 0.0);
    }

    #[test]
    fn backoff_charges_are_deterministic() {
        let run = || {
            let mut dev = faulty_device(12, FaultConfig::transient(0.4));
            let buf = dev.alloc_f32(16);
            upload_f32_with_recovery(&mut dev, buf, &[1.5; 16]);
            launch_with_recovery(
                &mut dev,
                &AddOne { buf, n: 16 },
                NdRange { global: 16, local: 4 },
            );
            let _ = download_f32_with_recovery(&mut dev, buf);
            (dev.stall_seconds(), dev.kernel_seconds(), dev.fault_plan().unwrap().counts())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn permanent_fault_surfaces_after_no_retries() {
        let mut dev = faulty_device(3, FaultConfig::default().with_device_loss(1.0));
        let buf = dev.alloc_f32(4);
        let err =
            with_retry(&mut dev, &RetryPolicy::default(), |d| d.try_upload_f32(buf, &[0.0; 4]))
                .unwrap_err();
        assert_eq!(err.kind, FaultKind::DeviceLost);
        assert_eq!(dev.stall_seconds(), 0.0, "no backoff for a dead device");
    }

    #[test]
    fn retries_exhaust_against_certain_faults() {
        let cfg = FaultConfig { transfer_error_prob: 1.0, ..FaultConfig::default() };
        let mut dev = faulty_device(5, cfg);
        let buf = dev.alloc_f32(4);
        let policy = RetryPolicy { max_attempts: 3, base_backoff_s: 1e-4, multiplier: 2.0 };
        let err = with_retry(&mut dev, &policy, |d| d.try_upload_f32(buf, &[0.0; 4])).unwrap_err();
        assert_eq!(err.kind, FaultKind::TransferError);
        // two backoffs charged (after attempts 1 and 2), none after the last
        assert!((dev.stall_seconds() - (1e-4 + 2e-4)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond recovery")]
    fn unrecoverable_launch_panics_with_kernel_name() {
        let mut dev = faulty_device(4, FaultConfig::default().with_device_loss(1.0));
        let buf = dev.alloc_f32(4);
        let _ =
            launch_with_recovery(&mut dev, &AddOne { buf, n: 4 }, NdRange { global: 4, local: 4 });
    }
}
