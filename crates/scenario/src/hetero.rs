//! Device heterogeneity: per-client speed multipliers plus a straggler
//! deadline. A client misses a round when its simulated round time —
//! speed multiplier times a pre-drawn per-round jitter — exceeds the
//! deadline, mirroring the net server's wall-clock straggler cut-off
//! without introducing wall-clock nondeterminism.

/// Per-client relative round times (1.0 = nominal hardware).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    speeds: Vec<f64>,
}

impl DeviceProfile {
    /// Speeds spread linearly from `fastest` to `slowest` across client
    /// ids — the archetypal heterogeneous fleet (id 0 the flagship
    /// phone, the last id the museum piece).
    pub fn linear(clients: usize, fastest: f64, slowest: f64) -> DeviceProfile {
        let speeds = (0..clients)
            .map(|i| {
                if clients <= 1 {
                    fastest
                } else {
                    fastest + (slowest - fastest) * i as f64 / (clients - 1) as f64
                }
            })
            .collect();
        DeviceProfile { speeds }
    }

    /// The multiplier for `client` (nominal for ids beyond the profile).
    pub(crate) fn speed(&self, client: usize) -> f64 {
        self.speeds.get(client).copied().unwrap_or(1.0)
    }

    /// Number of profiled clients.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// Whether `client` would miss a round given its pre-drawn jitter
    /// fraction for that round and the straggler `deadline` (in nominal
    /// round-time units).
    pub(crate) fn misses(&self, client: usize, jitter: f64, deadline: f64) -> bool {
        self.speed(client) * (1.0 + jitter) > deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_spread() {
        let p = DeviceProfile::linear(3, 1.0, 3.0);
        assert_eq!(p.speed(0), 1.0);
        assert_eq!(p.speed(1), 2.0);
        assert_eq!(p.speed(2), 3.0);
        assert_eq!(p.speed(99), 1.0, "unprofiled clients run nominal");
    }

    #[test]
    fn straggler_misses_deadline() {
        let p = DeviceProfile::linear(4, 1.0, 4.0);
        // Deadline 2.5: clients at speed 3.0 and 4.0 miss with zero jitter.
        assert!(!p.misses(0, 0.0, 2.5));
        assert!(!p.misses(1, 0.0, 2.5));
        assert!(p.misses(2, 0.0, 2.5));
        assert!(p.misses(3, 0.0, 2.5));
        // Jitter can push a borderline client over.
        assert!(p.misses(1, 0.3, 2.5));
    }
}
