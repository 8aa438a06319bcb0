//! The cluster type.

use serde::{Deserialize, Serialize};

/// A homogeneous cluster: `processors` identical processors of
/// `speed_gflops` each, fully interconnected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Cluster name (for reports).
    pub name: String,
    /// Number of processors `P ≥ 1`.
    pub processors: u32,
    /// Per-processor speed in GFLOPS (10⁹ FLOP per second).
    pub speed_gflops: f64,
}

impl Cluster {
    /// Creates a cluster, validating the parameters.
    pub fn new(name: impl Into<String>, processors: u32, speed_gflops: f64) -> Self {
        assert!(processors >= 1, "a cluster needs at least one processor");
        assert!(
            speed_gflops > 0.0 && speed_gflops.is_finite(),
            "processor speed must be positive, got {speed_gflops}"
        );
        Cluster {
            name: name.into(),
            processors,
            speed_gflops,
        }
    }

    /// Per-processor speed in FLOP/s (what execution-time models take).
    #[inline]
    pub fn speed_flops(&self) -> f64 {
        self.speed_gflops * 1e9
    }

    /// Time to execute `flop` operations on one processor, in seconds.
    pub fn seq_time(&self, flop: f64) -> f64 {
        flop / self.speed_flops()
    }
}

impl std::fmt::Display for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} × {:.1} GFLOPS)",
            self.name, self.processors, self.speed_gflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_conversion_to_flops() {
        let c = Cluster::new("c", 4, 2.5);
        assert_eq!(c.speed_flops(), 2.5e9);
    }

    #[test]
    fn seq_time_divides_by_speed() {
        let c = Cluster::new("c", 1, 2.0);
        assert_eq!(c.seq_time(4e9), 2.0);
    }

    #[test]
    fn display_is_informative() {
        let c = Cluster::new("chti", 20, 4.3);
        assert_eq!(c.to_string(), "chti (20 × 4.3 GFLOPS)");
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Cluster::new("bad", 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn negative_speed_rejected() {
        let _ = Cluster::new("bad", 1, -1.0);
    }
}
