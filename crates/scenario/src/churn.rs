//! Client churn traces: declarative arrival / departure / rejoin
//! schedules. A trace is data, not randomness — the same trace replays
//! the same presence pattern on every run and on both the in-process
//! `Framework` and the `rhychee-net` server.

/// One presence transition in a churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The client leaves the federation at the start of `round`.
    Depart {
        /// Round (0-based) the departure takes effect.
        round: usize,
        /// Departing client id.
        client: usize,
    },
    /// The client rejoins at the start of `round`.
    Rejoin {
        /// Round (0-based) the rejoin takes effect.
        round: usize,
        /// Rejoining client id.
        client: usize,
    },
}

impl ChurnEvent {
    fn round(&self) -> usize {
        match *self {
            ChurnEvent::Depart { round, .. } | ChurnEvent::Rejoin { round, .. } => round,
        }
    }

    fn client(&self) -> usize {
        match *self {
            ChurnEvent::Depart { client, .. } | ChurnEvent::Rejoin { client, .. } => client,
        }
    }
}

/// An ordered schedule of churn events. Every client starts present;
/// the latest event at or before a round decides its presence.
#[derive(Debug, Clone, Default)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// An empty trace: everyone stays for the whole run.
    pub fn new() -> ChurnTrace {
        ChurnTrace::default()
    }

    /// Schedules a departure at the start of `round`.
    #[must_use]
    pub fn depart(mut self, round: usize, client: usize) -> ChurnTrace {
        self.events.push(ChurnEvent::Depart { round, client });
        self
    }

    /// Schedules a rejoin at the start of `round`.
    #[must_use]
    pub fn rejoin(mut self, round: usize, client: usize) -> ChurnTrace {
        self.events.push(ChurnEvent::Rejoin { round, client });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the trace has any events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `client` is present in `round`: the latest event at or
    /// before `round` wins; ties at the same round resolve in insertion
    /// order (a depart+rejoin scheduled for the same round nets out to
    /// the later entry).
    pub fn active(&self, round: usize, client: usize) -> bool {
        let mut present = true;
        for e in &self.events {
            if e.client() == client && e.round() <= round {
                present = matches!(e, ChurnEvent::Rejoin { .. });
            }
        }
        present
    }

    /// Number of presence transitions taking effect exactly at `round`
    /// (feeds the `fl.scenario.clients_churned` counter).
    pub(crate) fn transitions_at(&self, round: usize) -> usize {
        self.events.iter().filter(|e| e.round() == round).count()
    }

    /// Clients with a departure taking effect exactly at `round` — the
    /// keyholders whose loss triggers threshold recovery.
    pub(crate) fn departures_at(&self, round: usize) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                ChurnEvent::Depart { round: r, client } if r == round => Some(client),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_present_by_default() {
        let t = ChurnTrace::new();
        assert!(t.active(0, 0));
        assert!(t.active(100, 7));
    }

    #[test]
    fn depart_then_rejoin() {
        let t = ChurnTrace::new().depart(2, 1).rejoin(4, 1);
        assert!(t.active(0, 1));
        assert!(t.active(1, 1));
        assert!(!t.active(2, 1));
        assert!(!t.active(3, 1));
        assert!(t.active(4, 1), "client 1 is back from round 4");
        assert!(t.active(9, 1));
        // Other clients are untouched.
        assert!(t.active(3, 0));
    }

    #[test]
    fn transition_counts() {
        let t = ChurnTrace::new().depart(1, 0).depart(1, 2).rejoin(3, 0);
        assert_eq!(t.transitions_at(0), 0);
        assert_eq!(t.transitions_at(1), 2);
        assert_eq!(t.transitions_at(3), 1);
        assert_eq!(t.departures_at(1), vec![0, 2]);
        assert!(t.departures_at(3).is_empty());
    }
}
