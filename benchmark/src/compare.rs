//! `compare A.json B.json`: one row per (workload, end-to-end metric), by the
//! rule of the choosing-metrics guide — B may not be worse than A by more
//! than the metric's bound; where the run-to-run spread is wider than the
//! bound and the two sets of runs interleave, the row is unresolved, not
//! unchanged.

use crate::catalogue::{Estimate, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// One side of a row: the value its run reports, and the repetitions that
/// stand for the run (see [`Estimate::sample`]).
pub struct Side {
    value: f64,
    sample: Vec<f64>,
}

impl Side {
    fn of(estimate: Estimate, values: &[f64], lower_is_better: bool) -> Side {
        Side {
            value: estimate.of(values, lower_is_better),
            sample: estimate.sample(values, lower_is_better),
        }
    }

    /// Quartile distance of the sample over its median.
    fn spread(&self) -> f64 {
        let [q1, median, q3] = stats::quartiles(&self.sample);
        (q3 - q1) / median.abs()
    }

    fn range(&self) -> (f64, f64) {
        self.sample
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)))
    }
}

/// Judges `b` against `a` for one metric.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> Row {
    // How much worse B's value is, as a share of A's (negative: better).
    let worse_by = if lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    } / a.value.abs();
    let ((a_min, a_max), (b_min, b_max)) = (a.range(), b.range());
    let apart = b_min > a_max || b_max < a_min;
    if a.spread().max(b.spread()) > bound && !apart {
        Row::Unresolved
    } else if worse_by > bound {
        Row::Worse
    } else if worse_by < -bound {
        Row::Better
    } else {
        Row::Same
    }
}

fn values(results: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let entry = results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .ok_or_else(|| format!("no {metric} of {workload} in the results"))?;
    let values: Vec<f64> = entry
        .get("values")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::num)
        .collect();
    if values.is_empty() {
        return Err(format!("{metric} of {workload} has no values"));
    }
    Ok(values)
}

/// Prints the table and returns how many rows are worse and unresolved.
pub fn compare(a: &Json, b: &Json) -> Result<(usize, usize), String> {
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<15} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A", "A quartiles", "B", "B quartiles", "bound"
    );
    for (workload, _) in WORKLOADS {
        for ((metric, _, lower), estimate, bound) in END_TO_END {
            let estimate = estimate.on(workload);
            let sa = Side::of(estimate, &values(a, workload, metric)?, lower);
            let sb = Side::of(estimate, &values(b, workload, metric)?, lower);
            let row = judge(&sa, &sb, lower, bound);
            worse += usize::from(row == Row::Worse);
            unresolved += usize::from(row == Row::Unresolved);
            let ([a1, _, a3], [b1, _, b3]) =
                (stats::quartiles(&sa.sample), stats::quartiles(&sb.sample));
            println!(
                "{workload:<14} {metric:<15} {:>12.4} {:>25} {:>12.4} {:>25} {:>5.0}%  {}",
                sa.value,
                format!("{a1:.4} .. {a3:.4}"),
                sb.value,
                format!("{b1:.4} .. {b3:.4}"),
                bound * 100.0,
                match row {
                    Row::Better => "better",
                    Row::Same => "same",
                    Row::Worse => "WORSE",
                    Row::Unresolved => "unresolved",
                }
            );
        }
        for side in [a, b] {
            let comparable = side
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("comparable"));
            if comparable.and_then(Json::bool) != Some(true) {
                println!("{workload:<14} a result of this workload is marked not comparable");
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_the_rule() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let judge_as = |estimate: Estimate, b: &[f64], lower| {
            judge(
                &Side::of(estimate, &a, lower),
                &Side::of(estimate, b, lower),
                lower,
                0.10,
            )
        };
        let judge = |b: &[f64], lower| judge_as(Estimate::Median, b, lower);
        assert_eq!(judge(&[100.2, 99.8, 100.9, 99.1, 100.0], true), Row::Same);
        assert_eq!(
            judge(&[120.0, 121.0, 119.0, 120.5, 119.5], true),
            Row::Worse
        );
        assert_eq!(
            judge(&[120.0, 121.0, 119.0, 120.5, 119.5], false),
            Row::Better
        );
        assert_eq!(judge(&[80.0, 81.0, 79.0, 80.5, 79.5], true), Row::Better);
        // Spread wider than the bound and the runs interleave: no verdict.
        assert_eq!(
            judge(&[70.0, 130.0, 100.0, 85.0, 115.0], true),
            Row::Unresolved
        );
        // Spread wider than the bound but every run of B is worse: a verdict.
        assert_eq!(
            judge(&[150.0, 250.0, 200.0, 180.0, 220.0], true),
            Row::Worse
        );
        // A timing: the best repetitions decide, the disturbed ones do not.
        assert_eq!(
            judge_as(Estimate::Best, &[99.2, 160.0, 100.1, 175.0, 99.8], true),
            Row::Same
        );
        assert_eq!(
            judge_as(Estimate::Best, &[121.0, 160.0, 122.0, 175.0, 120.0], true),
            Row::Worse
        );
        // An exact count: one value a side.
        assert_eq!(judge_as(Estimate::First, &[100.0], true), Row::Same);
        assert_eq!(judge_as(Estimate::First, &[200.0], true), Row::Worse);
    }
}
