//! Compute device profiles: power draw and *effective* multiply-add
//! throughput.
//!
//! The paper measures per-image GPU latency with batched inference on a
//! GTX 1080 Ti and multiplies by the monitored GPU power. The effective
//! throughput therefore depends on the workload (utilisation differs
//! between 32×32 CIFAR nets and 224×224 ImageNet nets), so profiles are
//! calibrated per Table VII row rather than from datasheet peak FLOPs.

use serde::{Deserialize, Serialize};

/// A compute device: name, active power and effective MAC/s throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Active power draw in watts while inferring.
    pub power_w: f64,
    /// Effective multiply-adds per second under the calibrated workload.
    pub macs_per_sec: f64,
}

impl DeviceProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if power or throughput is non-positive.
    pub fn new(name: &str, power_w: f64, macs_per_sec: f64) -> Self {
        assert!(power_w > 0.0, "device power must be positive");
        assert!(macs_per_sec > 0.0, "device throughput must be positive");
        DeviceProfile { name: name.to_string(), power_w, macs_per_sec }
    }

    /// Calibrates a profile from a measured (power, workload MACs,
    /// per-image latency) triple — how the Table VII presets are built.
    ///
    /// # Panics
    ///
    /// Panics if any input is non-positive.
    pub(crate) fn calibrated(name: &str, power_w: f64, workload_macs: u64, latency_s: f64) -> Self {
        assert!(latency_s > 0.0 && workload_macs > 0, "calibration needs positive latency and MACs");
        DeviceProfile::new(name, power_w, workload_macs as f64 / latency_s)
    }

    /// The paper's edge GPU running CIFAR-scale nets: 56 W, ResNet32
    /// (~69.4M MACs) at 0.056 ms/image ⇒ ~1.24 TMAC/s effective.
    pub fn edge_gpu_cifar() -> Self {
        DeviceProfile::calibrated("GTX1080Ti (CIFAR workload)", 56.0, 69_400_000, 56.0e-6)
    }

    /// The paper's edge GPU running ImageNet-scale nets: 75 W, ResNet18
    /// (~1.82G MACs) at 0.203 ms/image ⇒ ~9.0 TMAC/s effective.
    pub fn edge_gpu_imagenet() -> Self {
        DeviceProfile::calibrated("GTX1080Ti (ImageNet workload)", 75.0, 1_820_000_000, 203.0e-6)
    }

    /// A constrained embedded edge device (Jetson-class): ~10 W and an
    /// order of magnitude less throughput. Used by the beyond-paper
    /// sensitivity ablation.
    pub fn edge_jetson_like() -> Self {
        DeviceProfile::new("Jetson-class edge", 10.0, 1.0e11)
    }

    /// A datacenter accelerator for the cloud side (its energy is ignored
    /// by the paper's accounting but its latency matters for the simulator).
    pub fn cloud_accelerator() -> Self {
        DeviceProfile::new("cloud accelerator", 250.0, 2.0e13)
    }

    /// The same device at `factor ×` the effective throughput (same name
    /// and power draw): every kernel latency scales by `1 / factor`. This
    /// is how [`crate::fleet::ComputeTier`] derives a class's effective
    /// profile from its base profile — `factor 1.0` returns the profile
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub(crate) fn scaled_throughput(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "throughput scale must be finite and positive");
        DeviceProfile { name: self.name.clone(), power_w: self.power_w, macs_per_sec: self.macs_per_sec * factor }
    }

    /// Seconds to execute `macs` multiply-adds.
    pub fn latency_s(&self, macs: u64) -> f64 {
        macs as f64 / self.macs_per_sec
    }

    /// Joules to execute `macs` multiply-adds.
    pub fn compute_energy_j(&self, macs: u64) -> f64 {
        self.power_w * self.latency_s(macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar_preset_matches_table_vii() {
        let d = DeviceProfile::edge_gpu_cifar();
        // ResNet32: 0.056 ms and 3.14 mJ per image.
        let t = d.latency_s(69_400_000);
        assert!((t - 56.0e-6).abs() < 1e-9, "latency {t}");
        let e = d.compute_energy_j(69_400_000);
        assert!((e * 1e3 - 3.136).abs() < 0.01, "energy {} mJ", e * 1e3);
    }

    #[test]
    fn imagenet_preset_matches_table_vii() {
        let d = DeviceProfile::edge_gpu_imagenet();
        let e = d.compute_energy_j(1_820_000_000);
        assert!((e * 1e3 - 15.225).abs() < 0.05, "energy {} mJ", e * 1e3);
    }

    #[test]
    fn latency_scales_linearly() {
        let d = DeviceProfile::new("x", 10.0, 1e9);
        assert!((d.latency_s(2_000_000_000) - 2.0).abs() < 1e-12);
        assert!((d.compute_energy_j(1_000_000_000) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let _ = DeviceProfile::new("bad", 0.0, 1.0);
    }

    #[test]
    fn scaled_throughput_is_identity_at_one_and_inverse_in_latency() {
        let d = DeviceProfile::new("x", 10.0, 1e9);
        assert_eq!(d.scaled_throughput(1.0), d);
        let half = d.scaled_throughput(0.5);
        assert!((half.latency_s(1_000_000) - 2.0 * d.latency_s(1_000_000)).abs() < 1e-15);
        assert_eq!(half.power_w, d.power_w);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_scale_rejected() {
        let _ = DeviceProfile::new("x", 10.0, 1e9).scaled_throughput(0.0);
    }
}
