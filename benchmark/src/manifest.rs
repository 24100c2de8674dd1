//! The benchmark's contract: `BENCHMARK.json` at the repository root,
//! compiled in and parsed once. It is the only place that names the
//! workloads (with their reasons) and the metrics (unit, direction and,
//! end to end, the regression bound); the code looks units up here and
//! refuses to print a result whose metrics differ from the declared ones.

use std::sync::OnceLock;

#[derive(Debug, serde::Deserialize)]
pub struct Def {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
}

#[derive(Debug, serde::Deserialize)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

#[derive(Debug, serde::Deserialize)]
pub struct Manifest {
    /// How long one run measures (`--seconds`).
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json holds the keys this benchmark reads")
    })
}

impl Def {
    /// By what share of `before` the value `after` is worse (negative:
    /// better), in the direction the metric declares.
    pub fn worsening(&self, before: f64, after: f64) -> f64 {
        let change = (after - before) / before.abs().max(f64::MIN_POSITIVE);
        if self.better == "higher" {
            -change
        } else {
            change
        }
    }
}

/// Why a workload is part of the benchmark, in one line.
pub fn why(workload: &str) -> &'static str {
    manifest()
        .workloads
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| &w.why)
}

/// The unit a metric is declared with. Reporting an undeclared metric is
/// a bug in the benchmark, not in the program it measures.
pub fn unit_of(name: &str) -> &'static str {
    let m = manifest();
    &m.end_to_end
        .iter()
        .chain(&m.per_layer)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_respects_the_schema_limits() {
        let m = manifest();
        let names: Vec<&str> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|d| d.name.as_str())
            .chain(m.workloads.iter().map(|w| w.name.as_str()))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(names.iter().all(|n| is_name(n)));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        assert!((1..=60).contains(&m.run_seconds));
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(d.unit.len() <= 16, "{}", d.name);
            assert!(d.better == "higher" || d.better == "lower", "{}", d.name);
        }
        for d in &m.end_to_end {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(include_str!("../../BENCHMARK.json").len() < 64 * 1024);
    }

    #[test]
    fn the_declared_workloads_are_the_ones_that_run() {
        let declared: Vec<&str> = manifest()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        assert_eq!(declared, Workload::ALL.map(Workload::name));
        for w in &manifest().workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
