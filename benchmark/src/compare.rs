//! `compare A.json B.json`: one row per workload × end-to-end metric with
//! each side's median and quartiles; flags a regression of B against A
//! beyond the metric's bound, prints `unresolved` where either side's own
//! run-to-run spread exceeds the bound, and exits non-zero on regression.
//! Counts that must repeat exactly are compared bit for bit.

use std::collections::BTreeMap;

use crate::adapter::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

/// Per-layer counts a simulator-speed change must leave bit-identical.
const EXACT_LAYER_COUNTS: [&str; 3] = ["sim.warp_issues", "sim.simulated_s", "sim.digest"];

/// Values of every `(workload, metric)` over the runs of one result set.
pub type Values = BTreeMap<(String, String), Vec<f64>>;

/// Reads a result set written by a full run.
pub fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no runs array"))?;
    let mut values = Values::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: a run without metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no value"))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

/// Verdict on one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A side's own spread exceeds the bound: no verdict either way.
    Unresolved,
}

/// Summary of one side of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First and third quartile (the median twice with a single run).
    pub quartiles: (f64, f64),
    /// Runs.
    pub n: usize,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let m = median(values);
        Side {
            median: m,
            quartiles: quartiles(values).unwrap_or((m, m)),
            n: values.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.quartiles.1 - self.quartiles.0) / self.median.abs()
    }
}

/// Judges B against A for a metric of the given direction and bound.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when no row regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<13} {:<23} {:>5} | {:>12} {:>25} | {:>12} {:>25} | {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "A median",
        "A q1..q3 (n)",
        "B median",
        "B q1..q3 (n)",
        "B vs A"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<13} {:<23} missing on one side", w.name, m.name);
                clean = false;
                continue;
            };
            let (sa, sb) = (Side::of(va), Side::of(vb));
            let verdict = judge(&sa, &sb, m.better, m.bound);
            clean &= verdict != Verdict::Regression;
            let quart = |s: &Side| format!("{:.5}..{:.5} ({})", s.quartiles.0, s.quartiles.1, s.n);
            println!(
                "{:<13} {:<23} {:>4.1}% | {:>12.5} {:>25} | {:>12.5} {:>25} | {:>+7.2}%  {}",
                w.name,
                m.name,
                m.bound * 100.0,
                sa.median,
                quart(&sa),
                sb.median,
                quart(&sb),
                (sb.median / sa.median - 1.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for w in &WORKLOADS {
        for name in EXACT_LAYER_COUNTS {
            let key = (w.name.to_string(), name.to_string());
            if let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) {
                let mut all: Vec<u64> = va.iter().chain(vb).map(|v| v.to_bits()).collect();
                all.dedup();
                let verdict = if all.len() == 1 {
                    "identical"
                } else {
                    "DIFFERS"
                };
                println!(
                    "{:<13} {:<23} {verdict} over {} runs",
                    w.name,
                    name,
                    va.len() + vb.len()
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_flags_regressions_beyond_the_bound_only() {
        let side = |values: &[f64]| Side::of(values);
        let a = side(&[100.0, 101.0, 99.0, 100.5]);
        let same = side(&[101.0, 100.0, 102.0, 100.0]);
        assert_eq!(judge(&a, &same, Better::Lower, 0.07), Verdict::Ok);
        let slower = side(&[110.0, 111.0, 109.0, 110.0]);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.07), Verdict::Regression);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.07), Verdict::Better);
        assert_eq!(
            judge(&slower, &a, Better::Higher, 0.07),
            Verdict::Regression
        );
        assert_eq!(judge(&a, &slower, Better::Lower, 0.12), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Side::of(&[80.0, 100.0, 120.0, 100.0]);
        let quiet = Side::of(&[100.0, 100.5, 99.5, 100.0]);
        assert!(noisy.spread() > 0.07);
        assert_eq!(
            judge(&noisy, &quiet, Better::Lower, 0.07),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&quiet, &noisy, Better::Lower, 0.07),
            Verdict::Unresolved
        );
        let single = Side::of(&[5.0]);
        assert_eq!(single.spread(), 0.0, "one run has no spread to resolve");
    }
}
