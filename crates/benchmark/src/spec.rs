//! What the benchmark runs and what it reports: the four workloads with
//! their fixed constants, and the metric lists read from the root
//! `BENCHMARK.json` (the one place names, units, directions and
//! regression bounds are written down).

use crate::json::Value;
use crate::sut::{Codec, ParamSet, Threads};

/// The root `BENCHMARK.json`, compiled in so the binary, `compare` and
/// the tests can never disagree with the file the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The shape of a workload's timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every layer of the round, in process, `clients` client legs and
    /// the server path run back to back.
    Ladder {
        /// Federation size P.
        clients: usize,
    },
    /// Server path only, over `uploads` distinct pre-built upload frames.
    FanIn {
        /// Uploads folded per round.
        uploads: usize,
    },
    /// Real `FlServer` and `FlClient` threads over loopback TCP.
    Net {
        /// Client threads (never more than `nproc`).
        clients: usize,
        /// Rounds per federation; one `round_ms` sample per federation.
        rounds: usize,
    },
}

/// One workload and its per-workload constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// CKKS parameter set (both N = 8192).
    pub params: ParamSet,
    /// Upload wire format.
    pub codec: Codec,
    /// Parallelism handed to the product.
    pub threads: Threads,
    /// Loop shape.
    pub shape: Shape,
    /// Largest allowed |decrypted global − plaintext mean| per
    /// coordinate (observed: 7.6e-4 at CKKS-4, 9.5e-7 at CKKS-3).
    pub tolerance: f64,
    /// Least final test accuracy, where the workload trains a model. A
    /// broken aggregate scores near chance (0.10); over 34 seeds the
    /// ladders scored 0.875–0.95 and the 2-client net runs 0.72–0.855,
    /// so the floors sit well below those ranges and far above chance.
    pub min_accuracy: Option<f64>,
    /// Fewest timed rounds (ladder, fan-in) or federations (net) a run
    /// makes however short `--seconds` is.
    pub min_rounds: usize,
}

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ladder_ckks4",
        params: ParamSet::Ckks4,
        codec: Codec::Canonical,
        threads: Threads::One,
        shape: Shape::Ladder { clients: 10 },
        tolerance: 5e-3,
        min_accuracy: Some(0.80),
        min_rounds: 5,
    },
    Workload {
        name: "ladder_ckks3_seeded",
        params: ParamSet::Ckks3,
        codec: Codec::Seeded,
        threads: Threads::One,
        shape: Shape::Ladder { clients: 10 },
        tolerance: 1e-4,
        min_accuracy: Some(0.80),
        min_rounds: 5,
    },
    Workload {
        name: "fanin100_ckks4",
        params: ParamSet::Ckks4,
        codec: Codec::Canonical,
        threads: Threads::One,
        shape: Shape::FanIn { uploads: 100 },
        tolerance: 5e-3,
        min_accuracy: None,
        min_rounds: 5,
    },
    Workload {
        name: "net_ckks4",
        params: ParamSet::Ckks4,
        codec: Codec::Canonical,
        threads: Threads::Auto,
        shape: Shape::Net { clients: 2, rounds: 20 },
        tolerance: 5e-3,
        min_accuracy: Some(0.60),
        min_rounds: 3,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `--smoke` variant: two clients (or uploads), one round, so a
    /// debug-build test crosses every call once.
    pub fn smoke(&self) -> Workload {
        let shape = match self.shape {
            Shape::Ladder { .. } => Shape::Ladder { clients: 2 },
            Shape::FanIn { .. } => Shape::FanIn { uploads: 2 },
            Shape::Net { .. } => Shape::Net { clients: 2, rounds: 1 },
        };
        // One round of two clients on 100 samples each does not reach
        // the accuracy floor; every other check stays on.
        Workload { shape, min_accuracy: None, min_rounds: 1, ..*self }
    }

    /// The constants a result file records for this workload.
    pub fn constants(&self) -> Value {
        let mut v = Value::obj();
        v.set("params", format!("{:?}", self.params))
            .set("codec", format!("{:?}", self.codec))
            .set("threads", format!("{:?}", self.threads))
            .set("shape", format!("{:?}", self.shape))
            .set("tolerance", self.tolerance)
            .set("min_accuracy", self.min_accuracy.map_or(Value::Null, Value::Num))
            .set("min_rounds", self.min_rounds as u64);
        v
    }
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; `None` for
    /// per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Gated metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Ungated single-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))?
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = `{other}`")),
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Contract {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")? as u64,
            workloads: doc
                .get("workloads")
                .ok_or("BENCHMARK.json: missing `workloads`")?
                .items()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
                .collect(),
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// The compiled-in contract.
    pub fn embedded() -> Contract {
        Contract::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }
}

/// Derives the `k`-th independent seed from `--seed` (SplitMix64), so
/// data, federation, keys and fan-in models never share a stream.
pub fn subseed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_names_exactly_the_workloads_the_binary_runs() {
        let contract = Contract::embedded();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(contract.workloads, names);
        assert!(contract.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn subseeds_differ_by_index_and_by_seed() {
        let a: Vec<u64> = (0..4).map(|k| subseed(1, k)).collect();
        let b: Vec<u64> = (0..4).map(|k| subseed(2, k)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
        assert_eq!(a, (0..4).map(|k| subseed(1, k)).collect::<Vec<_>>());
    }
}
